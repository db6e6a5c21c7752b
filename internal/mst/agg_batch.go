package mst

import (
	"math"

	"holistic/internal/arena"
)

// Batched, level-synchronous aggregate kernel over the annotated tree
// (round 2 of the count/select kernels in count_batch.go/select_batch.go).
//
// The hard part relative to counting is that AggBelow's result is built by
// merging run-prefix aggregates in a pinned order: the scalar walk merges
// contributions in depth-first left-to-right recursion order, and for
// floating-point aggregates that order is part of the answer. The batched
// kernel cannot interleave per-query merges with the level-synchronous
// descent without replaying that order, so it runs in two phases:
//
//  1. descend the shared frontier exactly like countKernel, but instead of
//     adding covered-run ranks into a count it records each contribution —
//     a "take" of agg[level][runStart+rank-1] — as a compact int32 triple
//     (run start, level, aggregate index) tagged with its query;
//  2. group the takes by query (counting sort — takes already carry their
//     query tag) and order each query's takes by run start position.
//
// A take covers the position interval [runStart, runEnd) of its run, the
// takes of one query cover disjoint intervals, and the scalar walk visits
// intervals left to right — so ascending run start IS the scalar emission
// order, and folding the sorted takes through merge reproduces AggBelow
// bit for bit. Equivalence is enforced by TestAggBelowBatchMatchesScalar
// and core's batch_equiv_test.
//
// The descent itself shares everything countKernel shares: one galloped
// top-level search seeded from the previous query, per-level geometry and
// sample rows loaded once per level, flat SoA frontier scratch.

// takeStride is the int32 record width of a pending take:
// (query, run start, level, aggregate index).
const takeStride = 4

// AggBelowBatch answers len(result) aggregate queries at once:
// result[q], ok[q] = AggBelow(int(lo[q]), int(hi[q]), threshold[q]), and
// cnt[q] = CountBelow(int(lo[q]), int(hi[q]), threshold[q]) — the distinct
// count falls out of the same descent for free, and the DISTINCT-aggregate
// collectors need it for the NULL rule. All six slices must have the same
// length. Queries should be in probe order for the galloping top search.
func (at *AnnotatedTree[S]) AggBelowBatch(lo, hi []int32, threshold []int64, result []S, ok []bool, cnt []int32) {
	m := len(result)
	if len(lo) != m || len(hi) != m || len(threshold) != m || len(ok) != m || len(cnt) != m {
		//lint:invariant the collector builds all six arrays with one length; a mismatch is a caller bug that would silently mis-answer queries
		panic("mst: AggBelowBatch slice length mismatch")
	}
	if m >= math.MaxInt32 {
		//lint:invariant the kernel addresses queries with int32 slots; callers batch per chunk, far below 2³¹ queries
		panic("mst: AggBelowBatch batch of 2³¹ or more queries")
	}
	if m == 0 {
		return
	}
	for q := 0; q < m; q++ {
		ok[q] = false
		cnt[q] = 0
	}
	if at.n == 0 {
		return
	}
	t := at.t

	// Clamp and clip every query exactly like AggBelow; resolved (invalid)
	// queries are marked with an empty position range so the descent skips
	// them without a separate mask.
	cb := arena.Int32s.Get(2 * m)
	klo, khi := cb[:m], cb[m:]
	cthr := arena.Int64s.Get(m)
	for q := 0; q < m; q++ {
		l, h, ct, valid := at.clip(int(lo[q]), int(hi[q]), threshold[q])
		if !valid {
			klo[q], khi[q] = 0, 0
			continue
		}
		klo[q], khi[q] = i32(l), i32(h)
		cthr[q] = ct
	}

	top := t.top()
	run0 := t.run(top, 0)

	// Frontier scratch, exactly countKernel's shape: at most two partial
	// runs per query per level bound both frontiers.
	fbuf := arena.Int32s.Get(12 * m)
	cq, cr, crank := fbuf[:2*m], fbuf[2*m:4*m], fbuf[4*m:6*m]
	nq, nr, nrank := fbuf[6*m:8*m], fbuf[8*m:10*m], fbuf[10*m:12*m]

	// Pending takes: a growable flat record buffer plus per-query counts for
	// the counting sort of phase 2. Most queries take O(f·levels) runs, so
	// the initial capacity of four takes per query usually survives.
	takeCnt := arena.Int32s.Get(m)
	clear(takeCnt) // pooled scratch is not zeroed
	tb := arena.Int32s.Get(4 * takeStride * m)
	tn := 0

	// Top level: gallop each query's threshold rank from the previous
	// query's answer; full-span queries resolve directly against the top
	// run's prefix aggregates.
	cn := 0
	g := 0
	for q := 0; q < m; q++ {
		if klo[q] >= khi[q] {
			continue
		}
		rank := topSearch(t, run0, cthr[q], g)
		g = rank
		if klo[q] <= 0 && int(khi[q]) >= t.n {
			if rank > 0 {
				result[q] = at.agg[top][rank-1]
				ok[q] = true
				cnt[q] = i32(rank)
			}
			continue
		}
		cq[cn], cr[cn], crank[cn] = i32(q), 0, i32(rank)
		cn++
	}

	// Phase 1: level-synchronous descent. Covered children with a positive
	// rank become takes; partially covered children descend.
	for level := top; level >= 1 && cn > 0; level-- {
		runLen := t.effLen[level]
		childLen := t.effLen[level-1]
		samples := t.samples[level]
		stride := 0
		if samples != nil {
			stride = t.stride[level]
		}
		kids := t.levels[level-1]
		f, k := t.f, t.k
		nn := 0
		for it := 0; it < cn; it++ {
			q := int(cq[it])
			r := int(cr[it])
			rank := int(crank[it])
			runStart := r * runLen
			runEnd := runStart + runLen
			if runEnd > t.n {
				runEnd = t.n
			}
			qlo, qhi := int(klo[q]), int(khi[q])
			cFirst := 0
			if qlo > runStart {
				cFirst = (qlo - runStart) / childLen
			}
			last := qhi
			if last > runEnd {
				last = runEnd
			}
			cLast := (last - 1 - runStart) / childLen
			x := cthr[q]
			for c := cFirst; c <= cLast; c++ {
				cs := runStart + c*childLen
				ce := cs + childLen
				if ce > runEnd {
					ce = runEnd
				}
				cRank := childRankIn(samples, stride, r, rank, c, f, k, kids[cs:ce], x)
				if qlo <= cs && qhi >= ce {
					if cRank > 0 {
						cnt[q] += i32(cRank)
						if tn*takeStride == len(tb) {
							nb := arena.Int32s.Get(2 * len(tb))
							copy(nb, tb)
							arena.Int32s.Put(tb)
							tb = nb
						}
						b := tn * takeStride
						tb[b], tb[b+1], tb[b+2], tb[b+3] = i32(q), i32(cs), i32(level-1), i32(cs+cRank-1)
						tn++
						takeCnt[q]++
					}
					continue
				}
				if nn == len(nq) {
					//lint:invariant a query keeps at most two partial runs per level (the runs holding lo and hi-1), so the next frontier holds at most 2·m items
					panic("mst: aggKernel frontier overflow")
				}
				nq[nn], nr[nn], nrank[nn] = i32(q), i32(r*f+c), i32(cRank)
				nn++
			}
		}
		cq, nq = nq, cq
		cr, nr = nr, cr
		crank, nrank = nrank, crank
		cn = nn
	}

	// Phase 2: counting sort by query, order each query's takes by run
	// start, fold left to right. takeCnt is turned into running cursors by
	// the prefix sum; after the scatter it holds per-query end offsets.
	if tn > 0 {
		ord := arena.Int32s.Get(3 * tn)
		sum := int32(0)
		for q := 0; q < m; q++ {
			c := takeCnt[q]
			takeCnt[q] = sum
			sum += c
		}
		for i := 0; i < tn; i++ {
			b := i * takeStride
			q := tb[b]
			p := takeCnt[q]
			takeCnt[q] = p + 1
			o := int(p) * 3
			ord[o], ord[o+1], ord[o+2] = tb[b+1], tb[b+2], tb[b+3]
		}
		start := int32(0)
		for q := 0; q < m; q++ {
			end := takeCnt[q]
			// Takes arrive nearly ordered (one level's emissions are already
			// ascending), so the stride-3 insertion sort is cheap.
			for i := start + 1; i < end; i++ {
				o := int(i) * 3
				c0, c1, c2 := ord[o], ord[o+1], ord[o+2]
				j := i - 1
				for j >= start && ord[int(j)*3] > c0 {
					jo := int(j) * 3
					ord[jo+3], ord[jo+4], ord[jo+5] = ord[jo], ord[jo+1], ord[jo+2]
					j--
				}
				jo := int(j+1) * 3
				ord[jo], ord[jo+1], ord[jo+2] = c0, c1, c2
			}
			for i := start; i < end; i++ {
				o := int(i) * 3
				part := at.agg[ord[o+1]][ord[o+2]]
				if !ok[q] {
					result[q], ok[q] = part, true
				} else {
					result[q] = at.merge(result[q], part)
				}
			}
			start = end
		}
		arena.Int32s.Put(ord)
	}

	arena.Int32s.Put(tb)
	arena.Int32s.Put(takeCnt)
	arena.Int32s.Put(fbuf)
	arena.Int64s.Put(cthr)
	arena.Int32s.Put(cb)
}
