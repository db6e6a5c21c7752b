package mst

import (
	"math"

	"holistic/internal/arena"
)

// Batched, level-synchronous count kernels. A window probe issues one count
// query per row, and adjacent rows' frames overlap almost completely, so the
// per-query costs that the scalar descent pays again and again — the O(log n)
// top-level binary search, re-deriving per-level run geometry, reloading the
// cascading sample rows — are shared across a whole chunk of queries here:
//
//   - the top-level rank is found by galloping (exponential + binary search)
//     from the previous query's rank, which is O(1) amortised when
//     consecutive thresholds move slowly (sliding frames);
//   - the descent is level-synchronous: a frontier of (query, run, rank)
//     triples kept in flat int32 structure-of-arrays scratch is advanced one
//     level at a time, so each level's run length, sample table and child
//     element slab are loaded once per level, not once per query, and the
//     frontier items touching the same run hit warm cache lines;
//   - there is no per-level function call or closure: the whole descent is
//     two nested loops over int32 arrays.
//
// Results are exactly CountBelow per query — the equivalence is enforced by
// batch_test.go, FuzzCountSelect and core's batch_equiv_test.

// CountBelowBatch answers len(out) count queries at once:
// out[q] = CountBelow(int(lo[q]), int(hi[q]), threshold[q]). The lo, hi and
// threshold slices must have the same length as out. Queries should be in
// probe order (adjacent frames adjacent) for the galloping top-level search
// to pay off; any order is correct.
func (t *Tree) CountBelowBatch(lo, hi []int32, threshold []int64, out []int32) {
	m := len(out)
	if len(lo) != m || len(hi) != m || len(threshold) != m {
		//lint:invariant the collector builds all four arrays with one length; a mismatch is a caller bug that would silently mis-answer queries
		panic("mst: CountBelowBatch slice length mismatch")
	}
	if m >= math.MaxInt32 {
		//lint:invariant the kernel addresses queries with int32 slots; callers batch per chunk, far below 2³¹ queries
		panic("mst: CountBelowBatch batch of 2³¹ or more queries")
	}
	if m == 0 {
		return
	}
	if t.n == 0 {
		for q := range out {
			out[q] = 0
		}
		return
	}
	// Clamp every query exactly like CountBelow and resolve the trivial ones
	// up front; resolved queries are marked with an empty position range so
	// the kernels skip them without a separate mask.
	cb := arena.Int32s.Get(2 * m)
	klo, khi := cb[:m], cb[m:]
	for q := 0; q < m; q++ {
		l, h := int(lo[q]), int(hi[q])
		if l < 0 {
			l = 0
		}
		if h > t.n {
			h = t.n
		}
		if l >= h {
			out[q] = 0
			l, h = 0, 0
		}
		klo[q], khi[q] = i32(l), i32(h)
	}
	if t.t32 != nil {
		thr := arena.Int32s.Get(m)
		for q := 0; q < m; q++ {
			if klo[q] >= khi[q] {
				continue
			}
			switch tv := threshold[q]; {
			case tv <= 0:
				out[q] = 0
				klo[q], khi[q] = 0, 0
			case tv > math.MaxInt32:
				out[q] = khi[q] - klo[q]
				klo[q], khi[q] = 0, 0
			default:
				thr[q] = int32(tv)
			}
		}
		countKernel(t.t32, klo, khi, thr, out)
		arena.Int32s.Put(thr)
	} else {
		countKernel(t.t64, klo, khi, threshold, out)
	}
	arena.Int32s.Put(cb)
}

// countKernel is the generic level-synchronous count descent. lo/hi are
// pre-clamped to [0, n]; queries with lo >= hi are already resolved and
// skipped. out[q] accumulates the covered-run ranks of query q.
func countKernel[P payload](t *tree[P], lo, hi []int32, thr []P, out []int32) {
	m := len(out)
	top := t.top()
	run0 := t.run(top, 0)

	// Frontier scratch: at any level a query keeps at most two partial runs
	// alive (the runs containing lo and hi-1), so 2·m triples bound both the
	// current and the next frontier. One flat pooled buffer holds all six
	// structure-of-arrays columns.
	buf := arena.Int32s.Get(12 * m)
	cq, cr, crank := buf[:2*m], buf[2*m:4*m], buf[4*m:6*m]
	nq, nr, nrank := buf[6*m:8*m], buf[8*m:10*m], buf[10*m:12*m]

	// Top level: one sorted run. Seed each query's binary search with the
	// previous query's rank — adjacent probe rows have nearly equal
	// thresholds, so the gallop usually terminates within a few elements.
	cn := 0
	g := 0
	for q := 0; q < m; q++ {
		if lo[q] >= hi[q] {
			continue
		}
		rank := topSearch(t, run0, thr[q], g)
		g = rank
		if lo[q] <= 0 && int(hi[q]) >= t.n {
			out[q] = i32(rank)
			continue
		}
		out[q] = 0
		cq[cn], cr[cn], crank[cn] = i32(q), 0, i32(rank)
		cn++
	}

	// Descend the whole frontier one level per iteration. Per-level state
	// (run geometry, sample table, child element slab) is hoisted out of the
	// per-item loop. Partially covered runs are never leaves: level-0 runs
	// hold one element each, so the frontier drains at level 1.
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
			qlo, qhi := int(lo[q]), int(hi[q])
			// Jump straight to the children overlapping [qlo, qhi): the
			// frontier item exists because the query range overlaps this run,
			// so cFirst <= cLast.
			cFirst := 0
			if qlo > runStart {
				cFirst = (qlo - runStart) / childLen
			}
			last := qhi
			if last > runEnd {
				last = runEnd
			}
			cLast := (last - 1 - runStart) / childLen
			x := thr[q]
			acc := int32(0)
			for c := cFirst; c <= cLast; c++ {
				cs := runStart + c*childLen
				ce := cs + childLen
				if ce > runEnd {
					ce = runEnd
				}
				cRank := childRankIn(samples, stride, r, rank, c, f, k, kids[cs:ce], x)
				if qlo <= cs && qhi >= ce {
					acc += i32(cRank)
				} else {
					if nn == len(nq) {
						//lint:invariant a query keeps at most two partial runs per level (the runs holding lo and hi-1), so the next frontier holds at most 2·m items
						panic("mst: countKernel frontier overflow")
					}
					nq[nn], nr[nn], nrank[nn] = i32(q), i32(r*f+c), i32(cRank)
					nn++
				}
			}
			out[q] += acc
		}
		cq, nq = nq, cq
		cr, nr = nr, cr
		crank, nrank = nrank, crank
		cn = nn
	}
	arena.Int32s.Put(buf)
}

// childRankIn is childRank with the per-level state (sample table, stride,
// child run slice) hoisted by the caller, so the batched kernels resolve
// cascading pointers without re-deriving run geometry per query.
func childRankIn[P payload](samples []int32, stride, r, rank, c, f, k int, kid []P, x P) int {
	if samples == nil {
		return lowerBoundP(kid, x)
	}
	q := rank / k
	base := int(samples[r*stride+q*f+c])
	wHi := base + rank - q*k
	if wHi > len(kid) {
		wHi = len(kid)
	}
	return base + lowerBoundP(kid[base:wHi], x)
}

// lowerBoundFromP is lowerBoundP seeded with a guess g: it gallops
// exponentially from g toward the answer and binary-searches the final
// window, so the cost is O(log d) in the distance d between the guess and
// the answer instead of O(log n). With g out of [0, len(a)] the guess is
// clamped; any g is correct.
func lowerBoundFromP[P payload](a []P, x P, g int) int {
	n := len(a)
	if g < 0 {
		g = 0
	} else if g > n {
		g = n
	}
	if g < n && a[g] < x {
		// Answer right of g: probe g+1, g+2, g+4, … lb always satisfies
		// a[lb] < x; hi is n or satisfies a[hi] >= x.
		lb, hi := g, n
		for step := 1; ; step <<= 1 {
			j := lb + step
			if j >= n {
				break
			}
			if a[j] < x {
				lb = j
			} else {
				hi = j
				break
			}
		}
		return lb + 1 + lowerBoundP(a[lb+1:hi], x)
	}
	if g > 0 && a[g-1] >= x {
		// Answer at or left of g-1: probe g-2, g-3, g-5, … ub always
		// satisfies a[ub] >= x; lo is 0 or satisfies a[lo-1] < x.
		ub := g - 1
		lo := 0
		for step := 1; ; step <<= 1 {
			j := ub - step
			if j < 0 {
				break
			}
			if a[j] >= x {
				ub = j
			} else {
				lo = j + 1
				break
			}
		}
		return lo + lowerBoundP(a[lo:ub], x)
	}
	return g
}
