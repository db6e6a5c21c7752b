package core

import (
	"fmt"
	"math"
	"strconv"

	"holistic/internal/arena"
	"holistic/internal/frame"
	"holistic/internal/mst"
	"holistic/internal/preprocess"
	"holistic/internal/rangetree"
)

// filtered couples a partition with a function's inclusion mask (FILTER
// clause, argument-NULL dropping, IGNORE NULLS). All evaluation happens in
// the filtered domain; frame boundaries are remapped into it (§4.5, §4.7).
type filtered struct {
	p     *partition
	remap *preprocess.Remap // nil = identity
	k     int               // filtered length
}

func newFiltered(p *partition, f *FuncSpec, dropNullCol string) *filtered {
	mask := p.includeMask(f, dropNullCol)
	r := remapFor(mask)
	arena.Bools.Put(mask) // NewRemap copied what it needs
	return &filtered{p: p, remap: r, k: filteredLen(p, r)}
}

// keptOrder projects the all-rows function-order sort onto the filtered
// domain: the kept rows in function order, as filtered-domain indices. The
// result is written into buf when it has sufficient capacity (buf may come
// from pooled scratch — indexed writes only, never append) and always has
// length fl.k.
func keptOrder(fl *filtered, sortedAll []int32, buf []int32) []int32 {
	var out []int32
	if cap(buf) >= fl.k {
		out = buf[:fl.k]
	} else {
		out = make([]int32, fl.k)
	}
	w := 0
	for _, pos := range sortedAll {
		if fl.kept(int(pos)) {
			out[w] = i32(fl.toFiltered(int(pos)))
			w++
		}
	}
	return out[:w]
}

// local maps a filtered position to a partition-local position.
func (fl *filtered) local(j int) int {
	if fl.remap == nil {
		return j
	}
	return fl.remap.ToOriginal(j)
}

// orig maps a filtered position to the original row index.
func (fl *filtered) orig(j int) int { return fl.p.orig(fl.local(j)) }

// kept reports whether partition-local position i survived the filter.
func (fl *filtered) kept(i int) bool {
	return fl.remap == nil || fl.remap.Kept(i)
}

// toFiltered maps a partition-local boundary into the filtered domain.
func (fl *filtered) toFiltered(b int) int {
	if fl.remap == nil {
		return b
	}
	return fl.remap.ToFiltered(b)
}

// frameRanges fetches row's post-exclusion frame ranges remapped into the
// filtered domain.
func (fl *filtered) frameRanges(fc *frame.Computer, row int, scratch, out [][2]int) [][2]int {
	raw := fc.Ranges(row, scratch[:0])
	return mapRanges(fl.remap, raw, out[:0])
}

// evalMST dispatches a function to its merge-sort-tree evaluation.
func evalMST(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	switch f.Name {
	case CountStar, Count:
		return evalCounts(p, f, fc, out, opt)
	case Sum, Avg, Min, Max:
		return evalDistributive(p, f, fc, out, opt)
	case CountDistinct, SumDistinct, AvgDistinct:
		return evalDistinct(p, f, fc, out, opt)
	case Rank, PercentRank, RowNumber, CumeDist, Ntile:
		return evalRankFamily(p, f, fc, out, opt)
	case DenseRank:
		return evalDenseRank(p, f, fc, out, opt)
	case PercentileDisc, PercentileCont, NthValue, FirstValue, LastValue:
		return evalSelectFamily(p, f, fc, out, opt)
	case Lead, Lag:
		return evalLeadLag(p, f, fc, out, opt)
	}
	return fmt.Errorf("unhandled function %v", f.Name)
}

// evalCounts evaluates COUNT(*) and COUNT(x): pure frame-size arithmetic in
// the filtered domain — no index structure needed.
func evalCounts(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	drop := ""
	if f.Name == Count {
		drop = f.Arg
	}
	fl := newFiltered(p, f, drop)
	return forEachRow(p, opt, func(lo, hi int) {
		var scratch, mapped [3][2]int
		for i := lo; i < hi; i++ {
			total := 0
			for _, r := range fl.frameRanges(fc, i, scratch[:], mapped[:]) {
				total += r[1] - r[0]
			}
			out.setInt(p.orig(i), int64(total))
		}
	})
}

// buildDistinctInputs sorts the filtered rows by the argument column and
// derives Algorithm 1's prevIdcs plus the forward links used by the
// exclusion-hole correction. next[j] is the next occurrence of j's value in
// the filtered domain, with fl.k as the "none" sentinel. The stages run
// under separate phase spans, matching Figure 14's phase split.
func buildDistinctInputs(fl *filtered, f *FuncSpec, opt Options) (prev, next []int64) {
	cmpArg := fl.p.argCompare(f)
	eqArg := fl.p.argEqual(f)
	// Sort primarily by value hashes so the hot comparisons are integer
	// compares regardless of the argument type (§6.7); the real comparator
	// only breaks hash ties, so collisions cost time, never correctness.
	// Both the hash array and the sorted index array are pure temporaries
	// and live in pooled scratch; prev/next are retained by the cache and
	// must be allocated fresh.
	col := fl.p.t.Column(f.Arg)
	var hashes []uint64
	opt.trace.Timed("preprocess: populate hashes", func() {
		hashes = arena.Uint64s.Get(fl.k)
		for j := range hashes {
			hashes[j] = col.hashAt(fl.orig(j))
		}
	})
	var sorted []int32
	opt.trace.Timed("preprocess: sort hashes", func() {
		sorted = preprocess.SortIndicesIn(arena.Int32s.Get(fl.k), fl.k, func(a, b int) int {
			ha, hb := hashes[a], hashes[b]
			if ha != hb {
				if ha < hb {
					return -1
				}
				return 1
			}
			return cmpArg(fl.local(a), fl.local(b))
		})
	})
	same := func(a, b int) bool { return eqArg(fl.local(a), fl.local(b)) }
	opt.trace.Timed("preprocess: prevIdcs", func() {
		prev = preprocess.PrevIndices(sorted, same)
		next = make([]int64, fl.k)
		for j := range next {
			next[j] = int64(fl.k)
		}
		for i := 1; i < len(sorted); i++ {
			if same(int(sorted[i-1]), int(sorted[i])) {
				next[sorted[i-1]] = int64(sorted[i])
			}
		}
	})
	arena.Int32s.Put(sorted)
	arena.Uint64s.Put(hashes)
	return prev, next
}

// forEachFullyExcluded visits, for the frame decomposition `ranges` (sorted,
// disjoint, in the filtered domain), every position h that is the first
// occurrence within the full span [a, d) of a value whose occurrences inside
// [a, d) all fall into the exclusion holes. Those are exactly the values a
// whole-span distinct query counts but the real (holey) frame must not.
// The walk follows each value's occurrence chain and visits every hole
// position at most a constant number of times, so the cost is linear in the
// hole sizes (§4.7).
func forEachFullyExcluded(prev, next []int64, ranges [][2]int, visit func(h int)) {
	if len(ranges) < 2 {
		return
	}
	a := ranges[0][0]
	d := ranges[len(ranges)-1][1]
	inKept := func(pos int) bool {
		for _, r := range ranges {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}
	for g := 0; g+1 < len(ranges); g++ {
		holeLo, holeHi := ranges[g][1], ranges[g+1][0]
		for h := holeLo; h < holeHi; h++ {
			if prev[h] >= int64(a)+1 {
				continue // not the first occurrence inside [a, d)
			}
			// Follow the chain: if it reaches a kept range before leaving
			// [a, d), the value survives.
			excluded := true
			for cur := h; ; {
				nx := int(next[cur])
				if nx >= d {
					break
				}
				if inKept(nx) {
					excluded = false
					break
				}
				cur = nx
			}
			if excluded {
				visit(h)
			}
		}
	}
}

// evalDistinct evaluates COUNT/SUM/AVG(DISTINCT x) with the annotated merge
// sort tree of §4.2/§4.3. The preprocessed occurrence arrays and the tree
// are cache-shared across queries: they depend only on the argument column,
// the filter and the tree options, never on the frame.
func evalDistinct(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	fl := newFiltered(p, f, f.Arg)

	switch f.Name {
	case CountDistinct:
		key := p.cacheKey("distinct-count", strconv.Quote(f.Arg), strconv.Quote(f.Filter), treeSig(opt.Tree))
		st, err := cacheGet(opt, key, func() (cachedDistinct, int64, error) {
			prev, next := buildDistinctInputs(fl, f, opt)
			sp := opt.trace.Phase("build merge sort tree")
			tree, buildErr := mst.Build(prev, opt.treeOptions(sp))
			sp.End()
			if buildErr != nil {
				return cachedDistinct{}, 0, buildErr
			}
			return cachedDistinct{prev: prev, next: next, tree: tree},
				int64SliceBytes(prev, next) + int64(tree.Stats().Bytes), nil
		})
		if err != nil {
			return err
		}
		return runBatched(p, opt, famCount, func(lo, hi int, agg *batchAgg) {
			distinctCountChunk(p, fl, fc, st.tree, st.prev, st.next, out, agg, lo, hi)
		})

	case SumDistinct:
		if out.kind == Int64 {
			return runSumDistinct(p, f, fc, out, opt, fl, "int64", 8,
				func(j int) int64 { return p.t.Column(f.Arg).Int64(fl.orig(j)) },
				func(a, b int64) int64 { return a + b },
				func(a, b int64) int64 { return a - b },
				func(row int, v int64) { out.setInt(row, v) })
		}
		return runSumDistinct(p, f, fc, out, opt, fl, "float64", 8,
			func(j int) float64 { return p.t.Column(f.Arg).Float64(fl.orig(j)) },
			func(a, b float64) float64 { return a + b },
			func(a, b float64) float64 { return a - b },
			func(row int, v float64) { out.setFloat(row, v) })

	case AvgDistinct:
		col := p.t.Column(f.Arg)
		return runSumDistinct(p, f, fc, out, opt, fl, "avg", 16,
			func(j int) avgState { return avgState{sum: col.Numeric(fl.orig(j)), n: 1} },
			func(a, b avgState) avgState { return avgState{a.sum + b.sum, a.n + b.n} },
			func(a, b avgState) avgState { return avgState{a.sum - b.sum, a.n - b.n} },
			func(row int, v avgState) { out.setFloat(row, v.sum/float64(v.n)) })
	}
	return fmt.Errorf("unhandled distinct function %v", f.Name)
}

type avgState struct {
	sum float64
	n   int64
}

// runSumDistinct evaluates SUM/AVG(DISTINCT) generically over the aggregate
// state type. Exclusion holes are corrected by subtracting the states of
// fully excluded values — SUM and AVG are invertible, so this stays exact.
// (The pure merge-only path of §4.3 covers continuous frames; frames with
// exclusion holes additionally use the inverse.) kind tags the aggregate
// state type in the cache key; aggBytes is its size for budget accounting.
func runSumDistinct[S any](p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder,
	opt Options, fl *filtered, kind string, aggBytes int,
	valueOf func(j int) S, add func(a, b S) S, sub func(a, b S) S, emit func(row int, v S)) error {
	key := p.cacheKey("distinct-agg", f.Name.String(), kind, strconv.Quote(f.Arg), strconv.Quote(f.Filter), treeSig(opt.Tree))
	st, err := cacheGet(opt, key, func() (cachedAgg[S], int64, error) {
		prev, next := buildDistinctInputs(fl, f, opt)
		values := make([]S, fl.k)
		for j := range values {
			values[j] = valueOf(j)
		}
		sp := opt.trace.Phase("build merge sort tree")
		tree, buildErr := mst.BuildAnnotated(prev, values, add, opt.treeOptions(sp))
		sp.End()
		if buildErr != nil {
			return cachedAgg[S]{}, 0, buildErr
		}
		bytes := int64SliceBytes(prev, next) + int64(aggBytes*len(values)) + tree.MemBytes(aggBytes)
		return cachedAgg[S]{prev: prev, next: next, values: values, tree: tree}, bytes, nil
	})
	if err != nil {
		return err
	}
	prev, next, values, tree := st.prev, st.next, st.values, st.tree
	return runBatched(p, opt, famAgg, func(lo, hi int, agg *batchAgg) {
		distinctAggChunk(p, fl, fc, tree, prev, next, values, sub, emit, out, agg, lo, hi)
	})
}

// evalRankFamily evaluates RANK, PERCENT_RANK, ROW_NUMBER, CUME_DIST and
// NTILE via counting queries on a merge sort tree over preprocessed rank
// keys (§4.4, Figure 8).
func evalRankFamily(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	fl := newFiltered(p, f, "")

	// Thresholds must exist for every row (also filtered-out ones), so rank
	// keys are computed over the whole partition; the tree only holds the
	// kept rows.
	unique := f.Name == RowNumber || f.Name == Ntile
	tag := "rank-dense"
	if unique {
		tag = "rank-unique"
	}
	st, err := cacheGet(opt, p.cacheKey(tag, orderSig(p, f), strconv.Quote(f.Filter), treeSig(opt.Tree)),
		func() (cachedRank, int64, error) {
			m := p.len()
			sortedAll := p.sortedByFuncOrder(f)
			var keysAll []int64
			if unique {
				// keptRowno: the number of kept rows sorted strictly before
				// each row — unique among kept rows, and a valid insertion
				// point for filtered-out rows.
				keysAll = make([]int64, m)
				keptBefore := int64(0)
				for _, pos := range sortedAll {
					keysAll[pos] = keptBefore
					if fl.kept(int(pos)) {
						keptBefore++
					}
				}
			} else {
				keysAll, _ = preprocess.DenseRanks(sortedAll, p.funcEqual(f))
			}
			// keysKept is a pure temporary: Build copies its input.
			keysKept := arena.Int64s.Get(fl.k)
			for j := range keysKept {
				keysKept[j] = keysAll[fl.local(j)]
			}
			sp := opt.trace.Phase("build merge sort tree")
			tree, buildErr := mst.Build(keysKept, opt.treeOptions(sp))
			sp.End()
			arena.Int64s.Put(keysKept)
			if buildErr != nil {
				return cachedRank{}, 0, buildErr
			}
			return cachedRank{keysAll: keysAll, tree: tree},
				int64SliceBytes(keysAll) + int64(tree.Stats().Bytes), nil
		})
	if err != nil {
		return err
	}
	keysAll, tree := st.keysAll, st.tree

	return runBatched(p, opt, famRank, func(lo, hi int, agg *batchAgg) {
		rankChunk(p, f, fl, fc, tree, keysAll, out, agg, lo, hi)
	})
}

// ntileBucket returns the 1-based NTILE bucket for the row at 0-based
// position r of a frame with size rows split into b buckets: the first
// size%b buckets get one extra row, per the SQL standard.
func ntileBucket(r, size, b int64) int64 {
	if b > size {
		return r + 1
	}
	q, rem := size/b, size%b
	bigSpan := rem * (q + 1)
	if r < bigSpan {
		return r/(q+1) + 1
	}
	return rem + (r-bigSpan)/q + 1
}

// evalDenseRank evaluates the framed DENSE_RANK with the range tree of §4.4.
func evalDenseRank(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	fl := newFiltered(p, f, "")
	st, err := cacheGet(opt, p.cacheKey("dense", orderSig(p, f), strconv.Quote(f.Filter), treeSig(opt.Tree)),
		func() (cachedDense, int64, error) {
			sortedAll := p.sortedByFuncOrder(f)
			ranksAll, _ := preprocess.DenseRanks(sortedAll, p.funcEqual(f))
			ranksKept := make([]int64, fl.k)
			for j := range ranksKept {
				ranksKept[j] = ranksAll[fl.local(j)]
			}
			// sortedKept is a pure temporary; ranksKept/prevKept/nextKept are
			// retained by the cache and stay make-allocated.
			sortedKept := preprocess.SortIndicesByKeyIn(arena.Int32s.Get(fl.k), ranksKept)
			sameKept := func(a, b int) bool { return ranksKept[a] == ranksKept[b] }
			prevKept := preprocess.PrevIndices(sortedKept, sameKept)
			nextKept := make([]int64, fl.k)
			for j := range nextKept {
				nextKept[j] = int64(fl.k)
			}
			for i := 1; i < len(sortedKept); i++ {
				if sameKept(int(sortedKept[i-1]), int(sortedKept[i])) {
					nextKept[sortedKept[i-1]] = int64(sortedKept[i])
				}
			}
			arena.Int32s.Put(sortedKept)
			sp := opt.trace.Phase("build merge sort tree")
			rt, buildErr := rangetree.New(ranksKept, prevKept, opt.treeOptions(sp))
			sp.End()
			if buildErr != nil {
				return cachedDense{}, 0, buildErr
			}
			return cachedDense{ranksAll: ranksAll, ranksKept: ranksKept, prevKept: prevKept, nextKept: nextKept, rt: rt},
				int64SliceBytes(ranksAll, ranksKept, prevKept, nextKept) + rt.MemBytes(), nil
		})
	if err != nil {
		return err
	}
	ranksAll, ranksKept, prevKept, nextKept, rt := st.ranksAll, st.ranksKept, st.prevKept, st.nextKept, st.rt

	return runBatched(p, opt, famRank, func(lo, hi int, agg *batchAgg) {
		denseRankChunk(p, fl, fc, rt, ranksAll, ranksKept, prevKept, nextKept, out, agg, lo, hi)
	})
}

// evalSelectFamily evaluates percentiles and value functions via the
// permutation-array merge sort tree of §4.5 (Figures 6 and 7).
func evalSelectFamily(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	var valueCol *Column
	drop := ""
	switch f.Name {
	case PercentileDisc, PercentileCont:
		valueCol = p.t.Column(percentileValueColumn(f))
		drop = percentileValueColumn(f) // percentiles ignore NULLs (§4.5)
	default:
		valueCol = p.t.Column(f.Arg)
		if f.IgnoreNulls {
			drop = f.Arg
		}
	}
	fl := newFiltered(p, f, drop)
	st, err := cacheGet(opt, p.cacheKey("select", orderSig(p, f), strconv.Quote(drop), strconv.Quote(f.Filter), treeSig(opt.Tree)),
		func() (cachedSelect, int64, error) {
			// Both arrays are pure temporaries: Build copies the permutation.
			sortedKept := keptOrder(fl, p.sortedByFuncOrder(f), arena.Int32s.Get(fl.k))
			perm := preprocess.PermutationIn(arena.Int64s.Get(fl.k), sortedKept)
			sp := opt.trace.Phase("build merge sort tree")
			tree, buildErr := mst.Build(perm, opt.treeOptions(sp))
			sp.End()
			arena.Int64s.Put(perm)
			arena.Int32s.Put(sortedKept)
			if buildErr != nil {
				return cachedSelect{}, 0, buildErr
			}
			return cachedSelect{tree: tree}, int64(tree.Stats().Bytes), nil
		})
	if err != nil {
		return err
	}
	tree := st.tree

	return runBatched(p, opt, famSelect, func(lo, hi int, agg *batchAgg) {
		selectChunk(p, f, fl, fc, tree, valueCol, out, agg, lo, hi)
	})
}

// percentileDiscIndex is PERCENTILE_DISC's selection rule: the first value
// whose cumulative distribution is >= p, i.e. 0-based index ceil(p·size)-1.
func percentileDiscIndex(p float64, size int) int {
	k := int(math.Ceil(p*float64(size))) - 1
	if k < 0 {
		k = 0
	}
	if k >= size {
		k = size - 1
	}
	return k
}

// evalLeadLag evaluates framed LEAD/LAG with an independent ORDER BY (§4.6):
// the row's own row number inside the frame (a counting query on the
// permutation tree), offset, then a selection query for the adjusted
// position.
func evalLeadLag(p *partition, f *FuncSpec, fc *frame.Computer, out *outBuilder, opt Options) error {
	valueCol := p.t.Column(f.Arg)
	drop := ""
	if f.IgnoreNulls {
		drop = f.Arg
	}
	fl := newFiltered(p, f, drop)
	st, err := cacheGet(opt, p.cacheKey("leadlag", orderSig(p, f), strconv.Quote(drop), strconv.Quote(f.Filter), treeSig(opt.Tree)),
		func() (cachedLeadLag, int64, error) {
			m := p.len()
			sortedAll := p.sortedByFuncOrder(f)
			// keptRowno: insertion position of every partition row among the
			// kept rows in function order.
			keptRowno := make([]int64, m)
			keptBefore := int64(0)
			for _, pos := range sortedAll {
				keptRowno[pos] = keptBefore
				if fl.kept(int(pos)) {
					keptBefore++
				}
			}
			sortedKept := keptOrder(fl, sortedAll, arena.Int32s.Get(fl.k))
			perm := preprocess.PermutationIn(arena.Int64s.Get(fl.k), sortedKept)
			sp := opt.trace.Phase("build merge sort tree")
			tree, buildErr := mst.Build(perm, opt.treeOptions(sp))
			sp.End()
			arena.Int64s.Put(perm)
			arena.Int32s.Put(sortedKept)
			if buildErr != nil {
				return cachedLeadLag{}, 0, buildErr
			}
			return cachedLeadLag{keptRowno: keptRowno, tree: tree},
				int64SliceBytes(keptRowno) + int64(tree.Stats().Bytes), nil
		})
	if err != nil {
		return err
	}
	keptRowno, tree := st.keptRowno, st.tree

	off := f.N
	if off == 0 {
		off = 1
	}
	if f.Name == Lag {
		off = -off
	}

	return forEachRow(p, opt, func(lo, hi int) {
		var scratch, mapped [3][2]int
		var r64 [3][2]int64
		for i := lo; i < hi; i++ {
			ranges := fl.frameRanges(fc, i, scratch[:], mapped[:])
			row := p.orig(i)
			size := 0
			for ri, r := range ranges {
				size += r[1] - r[0]
				r64[ri] = [2]int64{int64(r[0]), int64(r[1])}
			}
			if size == 0 {
				out.setNull(row)
				continue
			}
			vr := r64[:len(ranges)]
			// Step 1 (§4.6): the row number of the own row within the
			// frame: frame rows sorted strictly before it.
			before := 0
			for _, r := range ranges {
				before += tree.CountRange(0, int(keptRowno[i]), int64(r[0]), int64(r[1]))
			}
			// Steps 2+3: adjust and select.
			target := before + int(off)
			if target < 0 || target >= size {
				out.setNull(row)
				continue
			}
			pos, ok := tree.SelectKthRanges(vr, target)
			if !ok {
				out.setNull(row)
				continue
			}
			out.copyFrom(valueCol, fl.orig(int(tree.Value(pos))), row)
		}
	})
}
