package mst

import "fmt"

// maxDescentStack bounds the explicit stacks of the iterative descents.
// A tree over n < 2³¹ elements with fanout f >= 2 has at most 32 merge
// levels; a count descent keeps at most two partial runs per level alive
// (the runs containing lo and hi-1), so 2·33 frames is a hard ceiling.
const maxDescentStack = 72

// descFrame is one pending partial run of an iterative descent: the run's
// level and index, plus the exact number of its elements < threshold.
type descFrame struct {
	level, run, rank int32
}

// countBelow counts the elements at positions [lo, hi) of the base array
// whose value is strictly smaller than threshold. Callers guarantee
// 0 <= lo < hi <= n.
//
// The range is pieced together from sorted runs top-down (Figure 2): runs
// completely inside [lo, hi) contribute their rank of threshold directly;
// the at most two runs overlapping a range edge are descended into. With
// fractional cascading the rank inside a child run is re-located inside a
// window of at most k elements around the parent's sampled pointer
// (Figure 3), so only the top-level binary search pays O(log n).
//
// The descent is iterative with an explicit stack: partially overlapped
// runs are pushed and their children scanned when popped, so the hot query
// path pays no call overhead per level.
func (t *tree[P]) countBelow(lo, hi int, threshold P) int {
	top := t.top()
	rank := lowerBoundP(t.run(top, 0), threshold)
	if lo <= 0 && hi >= t.n {
		return rank
	}
	var stack [maxDescentStack]descFrame
	stack[0] = descFrame{level: i32(top), run: 0, rank: i32(rank)}
	sp := 1
	total := 0
	for sp > 0 {
		sp--
		fr := stack[sp]
		level := int(fr.level)
		r := int(fr.run)
		rank := int(fr.rank)
		runStart := r * t.effLen[level]
		runEnd := runStart + t.effLen[level]
		if runEnd > t.n {
			runEnd = t.n
		}
		// A partially overlapped run is never a leaf: level-0 runs hold
		// exactly one element and are either fully covered or skipped.
		childLen := t.effLen[level-1]
		for c, cs := 0, runStart; cs < runEnd; c, cs = c+1, cs+childLen {
			ce := cs + childLen
			if ce > runEnd {
				ce = runEnd
			}
			if hi <= cs || lo >= ce {
				continue
			}
			childRank := t.childRank(level, r, rank, c, threshold)
			if lo <= cs && hi >= ce {
				total += childRank
			} else {
				if sp == len(stack) {
					//lint:invariant at most two partial runs exist per level and trees have at most 32 levels, so the stack cannot exceed 2·33 frames
					panic("mst: countBelow descent stack overflow")
				}
				stack[sp] = descFrame{level: i32(level - 1), run: i32(r*t.f + c), rank: i32(childRank)}
				sp++
			}
		}
	}
	return total
}

// childRank returns the number of elements < threshold in child run c of run
// r at the given level. rank must be the exact number of elements
// < threshold in the parent run; the sampled cascading pointer at the last
// sample point at or before rank bounds the child position to a window of at
// most rank mod k elements (§4.2).
func (t *tree[P]) childRank(level, r, rank, c int, threshold P) int {
	kid := t.run(level-1, r*t.f+c)
	samples := t.samples[level]
	if samples == nil {
		return lowerBoundP(kid, threshold)
	}
	q := rank / t.k
	base := int(samples[r*t.stride[level]+q*t.f+c])
	wHi := base + rank - q*t.k
	if wHi > len(kid) {
		wHi = len(kid)
	}
	return base + lowerBoundP(kid[base:wHi], threshold)
}

// selectKth returns the base position of the i-th entry (0-based, in
// position order) whose value v satisfies vLo <= v < vHi. The descent
// follows §4.5 / Figure 7: at every level, count the qualifying elements per
// child run (two cascaded searches each) and descend into the child that
// straddles the running total.
func (t *tree[P]) selectKth(vLo, vHi P, i int) (int, bool) {
	top := t.top()
	run0 := t.run(top, 0)
	rLo := lowerBoundP(run0, vLo)
	rHi := lowerBoundP(run0, vHi)
	if i >= rHi-rLo {
		return 0, false
	}
	level, r := top, 0
	for level > 0 {
		runStart := r * t.effLen[level]
		runEnd := runStart + t.effLen[level]
		if runEnd > t.n {
			runEnd = t.n
		}
		numKids := (runEnd - runStart + t.effLen[level-1] - 1) / t.effLen[level-1]
		descended := false
		for c := 0; c < numKids; c++ {
			cLo := t.childRank(level, r, rLo, c, vLo)
			cHi := t.childRank(level, r, rHi, c, vHi)
			if cnt := cHi - cLo; i < cnt {
				rLo, rHi = cLo, cHi
				r = r*t.f + c
				level--
				descended = true
				break
			} else {
				i -= cnt
			}
		}
		if !descended {
			//lint:invariant SelectKth verified i < count at the root, so every level's children jointly contain the i-th element; losing it means corrupted cascade samples
			panic(fmt.Sprintf("mst: selectKth descent lost element (level=%d run=%d i=%d)", level, r, i))
		}
	}
	return r, true
}
