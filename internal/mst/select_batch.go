package mst

import (
	"fmt"
	"math"

	"holistic/internal/arena"
)

// Batched, level-synchronous select kernel: the Figure 7 descent run over a
// whole chunk of queries at once. Selection descends a single root-to-leaf
// path per query (unlike counting there is no frontier growth), so the
// batched win is in the shared per-level state and the galloped top-level
// rank searches: adjacent probe rows carry nearly identical value ranges, so
// each range bound's top rank is found by galloping from the previous
// query's rank instead of a full O(log n) binary search. Query state lives
// in flat int32 structure-of-arrays scratch; every live query moves down
// exactly one level per kernel step.

// SelectKthRangesBatch answers len(out) select queries at once. Query q has
// the sorted, disjoint half-open value ranges (vlo[j], vhi[j]) for j in
// [off[q], off[q+1]) — at most maxSelectRanges of them — and selects the
// k[q]-th (0-based, in position order) entry whose value falls into any
// range. out[q] receives the base position, or -1 when fewer than k[q]+1
// entries qualify. Results are exactly SelectKthRanges per query.
func (t *Tree) SelectKthRangesBatch(off []int32, vlo, vhi []int64, k []int32, out []int32) {
	m := len(out)
	if len(off) != m+1 || len(k) != m || len(vlo) != len(vhi) || len(vlo) != int(off[m]) {
		//lint:invariant the collector builds offsets and flattened ranges together; a mismatch is a caller bug that would silently mis-select
		panic("mst: SelectKthRangesBatch slice length mismatch")
	}
	if m >= math.MaxInt32 {
		//lint:invariant the kernel addresses queries with int32 slots; callers batch per chunk, far below 2³¹ queries
		panic("mst: SelectKthRangesBatch batch of 2³¹ or more queries")
	}
	if m == 0 {
		return
	}
	for q := 0; q < m; q++ {
		if nr := off[q+1] - off[q]; nr > maxSelectRanges {
			//lint:invariant frame exclusion yields at most 3 ranges (§4.7); more is a window-operator bug, and truncating would silently mis-select
			panic(fmt.Sprintf("mst: SelectKthRangesBatch got %d ranges, max %d", nr, maxSelectRanges))
		}
	}
	if t.n == 0 {
		for q := range out {
			out[q] = -1
		}
		return
	}
	if t.t32 != nil {
		nr := len(vlo)
		vb := arena.Int32s.Get(2 * nr)
		vlo32, vhi32 := vb[:nr], vb[nr:]
		for j := range vlo32 {
			vlo32[j] = clampI32(vlo[j])
			vhi32[j] = clampI32(vhi[j])
		}
		selectKernel(t.t32, off, vlo32, vhi32, k, out)
		arena.Int32s.Put(vb)
		return
	}
	selectKernel(t.t64, off, vlo, vhi, k, out)
}

// selectKernel is the generic level-synchronous select descent. Empty value
// ranges contribute zero-width rank pairs throughout, so they need no
// special casing (SelectKthRanges drops them up front; the result is the
// same either way).
func selectKernel[P payload](t *tree[P], off []int32, vlo, vhi []P, k []int32, out []int32) {
	m := len(out)
	top := t.top()
	run0 := t.run(top, 0)
	nR := len(vlo)

	// Flat query state: one cascaded rank pair per flattened range (parallel
	// to vlo/vhi), plus per-query current run, remaining rank, and the live
	// list. Every live query descends all the way to level 0, so the live
	// list is fixed after the top-level resolution.
	buf := arena.Int32s.Get(2*nR + 3*m)
	rlo, rhi := buf[:nR], buf[nR:2*nR]
	runQ := buf[2*nR : 2*nR+m]
	remQ := buf[2*nR+m : 2*nR+2*m]
	lq := buf[2*nR+2*m : 2*nR+3*m]

	// Top level: gallop each range bound from the previous query's rank for
	// the same range ordinal — adjacent frames shift slowly, so the seed is
	// almost always within a few elements of the answer.
	var glo, ghi [maxSelectRanges]int
	ln := 0
	for q := 0; q < m; q++ {
		o0, o1 := int(off[q]), int(off[q+1])
		if o0 == o1 || k[q] < 0 {
			out[q] = -1
			continue
		}
		total := 0
		for j := o0; j < o1; j++ {
			ord := j - o0
			a := topSearch(t, run0, vlo[j], glo[ord])
			b := topSearch(t, run0, vhi[j], ghi[ord])
			glo[ord], ghi[ord] = a, b
			rlo[j], rhi[j] = i32(a), i32(b)
			total += b - a
		}
		if int(k[q]) >= total {
			out[q] = -1
			continue
		}
		runQ[q] = 0
		remQ[q] = k[q]
		lq[ln] = i32(q)
		ln++
	}

	// Level-synchronous descent: per level, every live query scans this
	// run's children (two cascaded searches per range per child) until the
	// child straddling its remaining rank is found, then steps into it.
	for level := top; level >= 1 && ln > 0; level-- {
		runLen := t.effLen[level]
		childLen := t.effLen[level-1]
		samples := t.samples[level]
		stride := 0
		if samples != nil {
			stride = t.stride[level]
		}
		kids := t.levels[level-1]
		f, kk := t.f, t.k
		for li := 0; li < ln; li++ {
			q := int(lq[li])
			r := int(runQ[q])
			i := int(remQ[q])
			o0, o1 := int(off[q]), int(off[q+1])
			runStart := r * runLen
			runEnd := runStart + runLen
			if runEnd > t.n {
				runEnd = t.n
			}
			numKids := (runEnd - runStart + childLen - 1) / childLen
			descended := false
			for c := 0; c < numKids; c++ {
				cs := runStart + c*childLen
				ce := cs + childLen
				if ce > runEnd {
					ce = runEnd
				}
				kid := kids[cs:ce]
				var cl, ch [maxSelectRanges]int32
				cnt := 0
				for j := o0; j < o1; j++ {
					a := childRankIn(samples, stride, r, int(rlo[j]), c, f, kk, kid, vlo[j])
					b := childRankIn(samples, stride, r, int(rhi[j]), c, f, kk, kid, vhi[j])
					cl[j-o0], ch[j-o0] = i32(a), i32(b)
					cnt += b - a
				}
				if i < cnt {
					for j := o0; j < o1; j++ {
						rlo[j], rhi[j] = cl[j-o0], ch[j-o0]
					}
					runQ[q] = i32(r*f + c)
					remQ[q] = i32(i)
					descended = true
					break
				}
				i -= cnt
			}
			if !descended {
				//lint:invariant the top-level check verified k < total qualifying entries, so some child run must contain the k-th element; losing it means corrupted cascade samples
				panic("mst: selectKernel descent lost element")
			}
		}
	}

	// Level-0 runs hold one element: the run index is the base position.
	for li := 0; li < ln; li++ {
		q := int(lq[li])
		out[q] = runQ[q]
	}
	arena.Int32s.Put(buf)
}
