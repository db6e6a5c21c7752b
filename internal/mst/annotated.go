package mst

import (
	"fmt"
	"math"

	"holistic/internal/parallel"
)

// AnnotatedTree is a merge sort tree whose elements additionally carry
// running prefix aggregates within every sorted run (Figure 5). It evaluates
// framed DISTINCT variants of arbitrary distributive (or algebraic)
// aggregates: the aggregate only needs a merge function — no inverse — which
// is what makes the approach applicable to user-defined aggregates (§4.3).
//
// The tree is keyed by the previous-occurrence index of each tuple
// (Algorithm 1): an entry's value contributes to a frame [lo, hi) exactly
// when its position is inside the frame and its previous occurrence lies
// before lo, i.e. exactly when a CountBelow query would count it. The
// aggregate over a frame is therefore assembled from the same run prefixes
// the count query visits, using the stored prefix aggregates.
//
// Internally keys are disambiguated to key·(n+1)+position so that every
// element is unique and a run's merge order is reproducible; thresholds
// scale accordingly. This forces the 64-bit representation.
type AnnotatedTree[S any] struct {
	t     *tree[int64]
	agg   [][]S
	merge func(S, S) S
	n     int
	shift int64
}

// BuildAnnotated constructs an annotated merge sort tree over keys, where
// values[i] is the aggregate input of tuple i and merge combines two
// aggregate states. Keys must lie in [0, len(keys)] — the previous-index
// domain of §5.1.
func BuildAnnotated[S any](keys []int64, values []S, merge func(S, S) S, opt Options) (*AnnotatedTree[S], error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	n := len(keys)
	if len(values) != n {
		return nil, fmt.Errorf("mst: %d keys but %d values", n, len(values))
	}
	if n >= math.MaxInt32 {
		return nil, fmt.Errorf("mst: input of %d elements exceeds the 2³¹ element limit", n)
	}
	shift := int64(n) + 1
	composite := make([]int64, n)
	for i, k := range keys {
		if k < 0 || k > int64(n) {
			return nil, fmt.Errorf("mst: key %d at position %d outside previous-index domain [0, %d]", k, i, n)
		}
		composite[i] = k*shift + int64(i)
	}
	at := &AnnotatedTree[S]{
		t:     buildTree(composite, opt),
		merge: merge,
		n:     n,
		shift: shift,
	}
	// Annotate every level with per-run prefix aggregates. The base position
	// of an element is recovered from its composite key, so annotations can
	// be computed after the build in one parallel pass per level.
	at.agg = make([][]S, len(at.t.levels))
	for l := range at.t.levels {
		elems := at.t.levels[l]
		agg := make([]S, len(elems))
		rl := at.t.effLen[l]
		numRuns := 1
		if rl > 0 {
			numRuns = (n + rl - 1) / rl
		}
		build := func(r int) {
			start := r * rl
			end := start + rl
			if end > n {
				end = n
			}
			var acc S
			for i := start; i < end; i++ {
				pos := int(elems[i] % at.shift)
				v := values[pos]
				if i == start {
					acc = v
				} else {
					acc = merge(acc, v)
				}
				agg[i] = acc
			}
		}
		if opt.Serial {
			for r := 0; r < numRuns; r++ {
				build(r)
			}
		} else {
			parallel.ForEach(numRuns, build)
		}
		at.agg[l] = agg
	}
	return at, nil
}

// Len returns the number of elements the tree was built over.
func (at *AnnotatedTree[S]) Len() int { return at.n }

// MemBytes reports the approximate resident size of the tree: payloads and
// cascading pointers plus the per-element aggregate annotations, assuming
// aggBytes bytes per aggregate state. Used for cache budget accounting.
func (at *AnnotatedTree[S]) MemBytes(aggBytes int) int64 {
	total := int64(stats(at.t, 8).Bytes)
	for _, lv := range at.agg {
		total += int64(len(lv) * aggBytes)
	}
	return total
}

// CountBelow returns the number of entries at positions [lo, hi) whose key
// is strictly smaller than threshold (the distinct count when keys are
// previous-occurrence indices and threshold is the frame start).
func (at *AnnotatedTree[S]) CountBelow(lo, hi int, threshold int64) int {
	lo, hi, ct, ok := at.clip(lo, hi, threshold)
	if !ok {
		return 0
	}
	return at.t.countBelow(lo, hi, ct)
}

// aggWalkFrame is one suspended partial run of the iterative aggregate
// walk: the run's level, index and exact rank of the threshold, plus the
// resumable child-scan cursor (cs, absolute position) and the run's end.
type aggWalkFrame struct {
	level, run, rank int32
	cs, runEnd       int32
}

// AggBelow merges the aggregate states of all entries at positions [lo, hi)
// whose key is strictly smaller than threshold. ok is false when no entry
// qualifies (the SQL aggregate is then NULL).
//
// The walk visits the same run-prefix decomposition a count query produces
// (§4.3), iteratively with an explicit stack of resumable frames: child
// scans suspend when they descend into a partially covered child and resume
// afterwards, so contributions merge in exactly the left-to-right recursion
// order without allocating a visit closure per query.
func (at *AnnotatedTree[S]) AggBelow(lo, hi int, threshold int64) (result S, ok bool) {
	lo, hi, ct, valid := at.clip(lo, hi, threshold)
	if !valid {
		return result, false
	}
	t := at.t
	top := t.top()
	rank := lowerBoundP(t.run(top, 0), ct)
	if lo <= 0 && hi >= t.n {
		if rank == 0 {
			return result, false
		}
		return at.agg[top][rank-1], true
	}
	take := func(level, runStart, rank int) {
		if rank == 0 {
			return
		}
		part := at.agg[level][runStart+rank-1]
		if !ok {
			result, ok = part, true
		} else {
			result = at.merge(result, part)
		}
	}
	var stack [maxDescentStack]aggWalkFrame
	runEnd := t.effLen[top]
	if runEnd > t.n {
		runEnd = t.n
	}
	stack[0] = aggWalkFrame{level: i32(top), run: 0, rank: i32(rank), cs: 0, runEnd: i32(runEnd)}
	sp := 1
	for sp > 0 {
		fr := &stack[sp-1]
		level := int(fr.level)
		r := int(fr.run)
		childLen := t.effLen[level-1]
		runStart := r * t.effLen[level]
		descended := false
		for int(fr.cs) < int(fr.runEnd) {
			cs := int(fr.cs)
			ce := cs + childLen
			if ce > int(fr.runEnd) {
				ce = int(fr.runEnd)
			}
			c := (cs - runStart) / childLen
			fr.cs = i32(cs + childLen)
			if hi <= cs || lo >= ce {
				continue
			}
			childRank := t.childRank(level, r, int(fr.rank), c, ct)
			if lo <= cs && hi >= ce {
				take(level-1, cs, childRank)
				continue
			}
			if sp == len(stack) {
				//lint:invariant at most two partial runs exist per level and trees have at most 32 levels, so the stack cannot exceed 2·33 frames
				panic("mst: AggBelow walk stack overflow")
			}
			// cs is the partial child's run start; its end is clamped to n.
			childEnd := cs + childLen
			if childEnd > t.n {
				childEnd = t.n
			}
			stack[sp] = aggWalkFrame{
				level: i32(level - 1), run: i32(r*t.f + c), rank: i32(childRank),
				cs: i32(cs), runEnd: i32(childEnd),
			}
			sp++
			descended = true
			break
		}
		if !descended && int(fr.cs) >= int(fr.runEnd) {
			sp--
		}
	}
	return result, ok
}

// clip clamps the position range and maps the key threshold to the composite
// domain. Every element with key < threshold has composite key
// < threshold·shift because the position component is < shift.
func (at *AnnotatedTree[S]) clip(lo, hi int, threshold int64) (int, int, int64, bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > at.n {
		hi = at.n
	}
	if lo >= hi || threshold <= 0 {
		return 0, 0, 0, false
	}
	if threshold > int64(at.n) {
		threshold = int64(at.n) + 1
	}
	return lo, hi, threshold * at.shift, true
}
