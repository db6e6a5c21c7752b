package core

import (
	"math"
	"sync/atomic"

	"holistic/internal/arena"
	"holistic/internal/frame"
	"holistic/internal/mst"
	"holistic/internal/rangetree"
)

// Chunk-level batched probing, the only probe path of the merge-sort-tree
// families in eval_mst.go. The collectors here gather a whole parallel task
// chunk's query descriptors into pooled structure-of-arrays buffers, dedup
// rows whose descriptors exactly repeat the previous row's (peer rows of a
// RANGE frame, constant frames), hand the surviving queries to the batched
// level-synchronous kernels (mst.CountBelowBatch / mst.SelectKthRangesBatch),
// and then emit per-row results from the kernel answers. The brute-force
// reference evaluator checks them (batch_equiv_test.go).

// batchFamily partitions the batched collectors into kernel families for
// the per-family metric split (windowd_mst_batch_queries_family /
// windowd_mst_batch_dedup_hits_family).
type batchFamily int

const (
	famCount  batchFamily = iota // COUNT(DISTINCT): whole-span count queries
	famSelect                    // percentiles / value functions: selection queries
	famAgg                       // SUM/AVG(DISTINCT): annotated aggregate queries
	famRank                      // RANK family and DENSE_RANK: counting rank queries
	numBatchFamilies
)

var batchFamilyNames = [numBatchFamilies]string{"count", "select", "agg", "rank"}

func (f batchFamily) String() string { return batchFamilyNames[f] }

// Batch counters, process-wide: exported to the metrics endpoint as
// windowd_mst_batch_queries / windowd_mst_batch_dedup_hits, plus the
// per-family split series.
var (
	batchQueriesTotal   atomic.Int64
	batchDedupHitsTotal atomic.Int64
	batchQueriesByFam   [numBatchFamilies]atomic.Int64
	batchDedupByFam     [numBatchFamilies]atomic.Int64
)

// BatchStat is a point-in-time snapshot of the batched-kernel counters.
type BatchStat struct {
	// Queries is the number of unique queries handed to the batched MST
	// kernels (after adjacent-row dedup).
	Queries int64
	// DedupHits is the number of row evaluations answered by reusing the
	// previous row's identical query set instead of issuing new queries.
	DedupHits int64
}

// BatchSnapshot returns the current batched-kernel counters.
func BatchSnapshot() BatchStat {
	return BatchStat{
		Queries:   batchQueriesTotal.Load(),
		DedupHits: batchDedupHitsTotal.Load(),
	}
}

// BatchFamilyStat is one kernel family's share of the batch counters.
type BatchFamilyStat struct {
	Family    string
	Queries   int64
	DedupHits int64
}

// BatchFamilySnapshot returns the per-family batched-kernel counters, in a
// fixed family order (count, select, agg, rank).
func BatchFamilySnapshot() []BatchFamilyStat {
	out := make([]BatchFamilyStat, numBatchFamilies)
	for f := batchFamily(0); f < numBatchFamilies; f++ {
		out[f] = BatchFamilyStat{
			Family:    batchFamilyNames[f],
			Queries:   batchQueriesByFam[f].Load(),
			DedupHits: batchDedupByFam[f].Load(),
		}
	}
	return out
}

// batchAgg accumulates one evaluation's batch counters across its parallel
// probe chunks; runBatched folds it into the process-wide totals and the
// phase span attributes.
type batchAgg struct {
	queries atomic.Int64
	dedup   atomic.Int64
}

// runBatched runs body over all partition rows in parallel chunks under a
// structural "mst.query.batch" span (the probe phase nests beneath it, so
// phase totals count the probe time once), recording the batch query and
// dedup counts as span attributes and adding them to the process-wide
// counters.
func runBatched(p *partition, opt Options, fam batchFamily, body func(lo, hi int, agg *batchAgg)) error {
	agg := &batchAgg{}
	sp := opt.trace.Child("mst.query.batch")
	if sp != nil {
		opt.trace = sp
	}
	err := forEachRow(p, opt, func(lo, hi int) { body(lo, hi, agg) })
	q, d := agg.queries.Load(), agg.dedup.Load()
	sp.Set("family", fam.String())
	sp.SetInt("batch_queries", q)
	sp.SetInt("batch_dedup_hits", d)
	sp.End()
	batchQueriesTotal.Add(q)
	batchDedupHitsTotal.Add(d)
	batchQueriesByFam[fam].Add(q)
	batchDedupByFam[fam].Add(d)
	return err
}

// sameRanges reports whether the row's frame ranges exactly repeat the
// previous row's (the adjacent-row dedup rule: equal range count and equal
// bounds; thresholds are compared by the callers where they vary per row).
func sameRanges(ranges [][2]int, prev [3][2]int, prevNR int) bool {
	if len(ranges) != prevNR {
		return false
	}
	for i, r := range ranges {
		if r != prev[i] {
			return false
		}
	}
	return true
}

// distinctCountChunk evaluates one probe chunk of COUNT(DISTINCT x): one
// whole-span count query per row — deduped when the span repeats — plus the
// per-row exclusion-hole correction, which never touches the tree.
func distinctCountChunk(p *partition, fl *filtered, fc *frame.Computer, tree *mst.Tree,
	prev, next []int64, out *outBuilder, agg *batchAgg, lo, hi int) {
	n := hi - lo
	ib := arena.Int32s.Get(5 * n)
	qlo, qhi := ib[:n], ib[n:2*n]
	qout := ib[2*n : 3*n]
	rowSlot, rowAdj := ib[3*n:4*n], ib[4*n:5*n]
	qthr := arena.Int64s.Get(n)

	var scratch, mapped [3][2]int
	s, dedup := 0, 0
	pa, pd := -1, -1
	for i := lo; i < hi; i++ {
		ri := i - lo
		ranges := fl.frameRanges(fc, i, scratch[:], mapped[:])
		if len(ranges) == 0 {
			if pa == -2 {
				dedup++
			}
			rowSlot[ri], rowAdj[ri] = -1, 0
			pa, pd = -2, -2 // empty-frame signature
			continue
		}
		a := ranges[0][0]
		d := ranges[len(ranges)-1][1]
		adj := int32(0)
		if len(ranges) >= 2 {
			forEachFullyExcluded(prev, next, ranges, func(int) { adj++ })
		}
		if a == pa && d == pd {
			rowSlot[ri] = i32(s - 1)
			dedup++
		} else {
			qlo[s], qhi[s] = i32(a), i32(d)
			qthr[s] = int64(a) + 1
			rowSlot[ri] = i32(s)
			s++
			pa, pd = a, d
		}
		rowAdj[ri] = adj
	}

	tree.CountBelowBatch(qlo[:s], qhi[:s], qthr[:s], qout[:s])

	for i := lo; i < hi; i++ {
		ri := i - lo
		row := p.orig(i)
		if rowSlot[ri] < 0 {
			out.setInt(row, 0)
			continue
		}
		out.setInt(row, int64(qout[rowSlot[ri]]-rowAdj[ri]))
	}
	agg.queries.Add(int64(s))
	agg.dedup.Add(int64(dedup))
	arena.Int64s.Put(qthr)
	arena.Int32s.Put(ib)
}

// rankChunk evaluates one probe chunk of the counting rank family (RANK,
// ROW_NUMBER, PERCENT_RANK, CUME_DIST, NTILE): one count query per frame
// range per row, all sharing the row's rank-key threshold, deduped when both
// the ranges and the threshold repeat (peer rows of a RANGE frame).
func rankChunk(p *partition, f *FuncSpec, fl *filtered, fc *frame.Computer, tree *mst.Tree,
	keysAll []int64, out *outBuilder, agg *batchAgg, lo, hi int) {
	n := hi - lo
	ib := arena.Int32s.Get(12 * n)
	qlo, qhi := ib[:3*n], ib[3*n:6*n]
	qout := ib[6*n : 9*n]
	rowSlot, rowN, rowSize := ib[9*n:10*n], ib[10*n:11*n], ib[11*n:12*n]
	qthr := arena.Int64s.Get(3 * n)

	var scratch, mapped [3][2]int
	var prevRanges [3][2]int
	prevNR := -1
	var prevThr int64
	s, dedup := 0, 0
	for i := lo; i < hi; i++ {
		ri := i - lo
		ranges := fl.frameRanges(fc, i, scratch[:], mapped[:])
		size := 0
		for _, r := range ranges {
			size += r[1] - r[0]
		}
		thr := keysAll[i]
		if f.Name == CumeDist {
			thr++
		}
		if thr == prevThr && sameRanges(ranges, prevRanges, prevNR) {
			rowSlot[ri], rowN[ri] = rowSlot[ri-1], rowN[ri-1]
			dedup++
		} else {
			rowSlot[ri], rowN[ri] = i32(s), i32(len(ranges))
			for _, r := range ranges {
				qlo[s], qhi[s] = i32(r[0]), i32(r[1])
				qthr[s] = thr
				s++
			}
			prevNR = copy(prevRanges[:], ranges)
			prevThr = thr
		}
		if f.Name == Ntile {
			// Encode NTILE's own-row-outside-frame null as a negative size.
			inFrame := fl.kept(i)
			if inFrame {
				inFrame = false
				fj := fl.toFiltered(i)
				for _, r := range ranges {
					if fj >= r[0] && fj < r[1] {
						inFrame = true
						break
					}
				}
			}
			if !inFrame {
				size = -1
			}
		}
		rowSize[ri] = i32(size)
	}

	tree.CountBelowBatch(qlo[:s], qhi[:s], qthr[:s], qout[:s])

	for i := lo; i < hi; i++ {
		ri := i - lo
		row := p.orig(i)
		cnt := int64(0)
		for j := rowSlot[ri]; j < rowSlot[ri]+rowN[ri]; j++ {
			cnt += int64(qout[j])
		}
		size := int64(rowSize[ri])
		switch f.Name {
		case Rank, RowNumber:
			out.setInt(row, cnt+1)
		case PercentRank:
			if size <= 1 {
				out.setFloat(row, 0)
			} else {
				out.setFloat(row, float64(cnt)/float64(size-1))
			}
		case CumeDist:
			if size == 0 {
				out.setNull(row)
			} else {
				out.setFloat(row, float64(cnt)/float64(size))
			}
		case Ntile:
			if size <= 0 {
				out.setNull(row)
				continue
			}
			out.setInt(row, ntileBucket(cnt, size, f.N))
		}
	}
	agg.queries.Add(int64(s))
	agg.dedup.Add(int64(dedup))
	arena.Int64s.Put(qthr)
	arena.Int32s.Put(ib)
}

// selectChunk evaluates one probe chunk of the select family
// (PERCENTILE_DISC/CONT, NTH_VALUE, FIRST_VALUE, LAST_VALUE): one or — for
// an interpolating PERCENTILE_CONT — two selection queries per row, each
// carrying the row's frame ranges as value ranges on the permutation tree.
// Rows repeat their predecessor's ranges (and therefore ranks, which derive
// from the frame size) verbatim under constant and peer-shared frames; those
// rows reuse the previous row's query slots.
func selectChunk(p *partition, f *FuncSpec, fl *filtered, fc *frame.Computer, tree *mst.Tree,
	valueCol *Column, out *outBuilder, agg *batchAgg, lo, hi int) {
	n := hi - lo
	ib := arena.Int32s.Get(10*n + 1)
	off := ib[: 2*n+1 : 2*n+1]
	qk := ib[2*n+1 : 4*n+1]
	qout := ib[4*n+1 : 6*n+1]
	rowSlot, rowN, rowSize := ib[6*n+1:7*n+1], ib[7*n+1:8*n+1], ib[8*n+1:9*n+1]
	vb := arena.Int64s.Get(12 * n)
	vlo, vhi := vb[:6*n], vb[6*n:]

	var scratch, mapped [3][2]int
	var prevRanges [3][2]int
	prevNR := -1
	s, w, dedup := 0, 0, 0
	off[0] = 0
	emit := func(ranges [][2]int, k int) {
		qk[s] = i32(k)
		for _, r := range ranges {
			vlo[w], vhi[w] = int64(r[0]), int64(r[1])
			w++
		}
		off[s+1] = i32(w)
		s++
	}
	for i := lo; i < hi; i++ {
		ri := i - lo
		ranges := fl.frameRanges(fc, i, scratch[:], mapped[:])
		if sameRanges(ranges, prevRanges, prevNR) {
			rowSlot[ri], rowN[ri], rowSize[ri] = rowSlot[ri-1], rowN[ri-1], rowSize[ri-1]
			dedup++
			continue
		}
		prevNR = copy(prevRanges[:], ranges)
		size := 0
		for _, r := range ranges {
			size += r[1] - r[0]
		}
		rowSize[ri] = i32(size)
		if size == 0 {
			rowSlot[ri], rowN[ri] = -1, 0
			continue
		}
		rowSlot[ri], rowN[ri] = int32(s), 1
		switch f.Name {
		case PercentileDisc:
			emit(ranges, percentileDiscIndex(f.Fraction, size))
		case PercentileCont:
			rn := f.Fraction * float64(size-1)
			k0 := int(math.Floor(rn))
			emit(ranges, k0)
			if rn-float64(k0) > 0 {
				emit(ranges, k0+1)
				rowN[ri] = 2
			}
		case NthValue:
			k := int(f.N) - 1
			if k < 0 || k > size {
				k = size // >= the qualifying total: the kernel answers -1
			}
			emit(ranges, k)
		case FirstValue:
			emit(ranges, 0)
		case LastValue:
			emit(ranges, size-1)
		}
	}

	tree.SelectKthRangesBatch(off[:s+1], vlo[:w], vhi[:w], qk[:s], qout[:s])

	for i := lo; i < hi; i++ {
		ri := i - lo
		row := p.orig(i)
		if rowSlot[ri] < 0 {
			out.setNull(row)
			continue
		}
		slot := rowSlot[ri]
		pos := qout[slot]
		if pos < 0 {
			out.setNull(row)
			continue
		}
		src := fl.orig(int(tree.Value(int(pos))))
		if f.Name != PercentileCont {
			out.copyFrom(valueCol, src, row)
			continue
		}
		v := valueCol.Numeric(src)
		if rowN[ri] == 2 {
			// Recompute the interpolation weight from the frame size: the
			// same floats the collection pass derived.
			rn := f.Fraction * float64(int(rowSize[ri])-1)
			frac := rn - math.Floor(rn)
			if pos1 := qout[slot+1]; pos1 >= 0 && frac > 0 {
				v1 := valueCol.Numeric(fl.orig(int(tree.Value(int(pos1)))))
				v += frac * (v1 - v)
			}
		}
		out.setFloat(row, v)
	}
	agg.queries.Add(int64(s))
	agg.dedup.Add(int64(dedup))
	arena.Int64s.Put(vb)
	arena.Int32s.Put(ib)
}

// distinctAggChunk evaluates one probe chunk of SUM/AVG(DISTINCT x): one
// whole-span aggregate query per row — deduped when the row's frame ranges
// exactly repeat the previous row's, in which case the rows share aggregate,
// count AND hole correction — answered by the annotated tree's batched
// kernel, whose per-query count output feeds the NULL rule without a second
// tree pass. The exclusion-hole subtraction runs once per slot, in
// ascending hole order, so rows sharing a slot emit bitwise identical floats.
func distinctAggChunk[S any](p *partition, fl *filtered, fc *frame.Computer, tree *mst.AnnotatedTree[S],
	prev, next []int64, values []S, sub func(a, b S) S, emit func(row int, v S),
	out *outBuilder, agg *batchAgg, lo, hi int) {
	n := hi - lo
	ib := arena.Int32s.Get(12 * n)
	rowSlot := ib[:n]
	qlo, qhi := ib[n:2*n], ib[2*n:3*n]
	kcnt := ib[3*n : 4*n]
	slotNR, slotTotal := ib[4*n:5*n], ib[5*n:6*n]
	slotRanges := ib[6*n : 12*n] // 3 ranges × 2 bounds per slot
	qthr := arena.Int64s.Get(n)
	okv := arena.Bools.Get(n)

	var scratch, mapped [3][2]int
	var prevRanges [3][2]int
	prevNR := -1
	s, dedup := 0, 0
	for i := lo; i < hi; i++ {
		ri := i - lo
		ranges := fl.frameRanges(fc, i, scratch[:], mapped[:])
		if len(ranges) == 0 {
			rowSlot[ri] = -1
			prevNR = -1
			continue
		}
		if sameRanges(ranges, prevRanges, prevNR) {
			rowSlot[ri] = i32(s - 1)
			dedup++
			continue
		}
		prevNR = copy(prevRanges[:], ranges)
		a := ranges[0][0]
		d := ranges[len(ranges)-1][1]
		total := 0
		for ro, r := range ranges {
			total += r[1] - r[0]
			slotRanges[6*s+2*ro], slotRanges[6*s+2*ro+1] = i32(r[0]), i32(r[1])
		}
		qlo[s], qhi[s] = i32(a), i32(d)
		qthr[s] = int64(a) + 1
		slotNR[s], slotTotal[s] = i32(len(ranges)), i32(total)
		rowSlot[ri] = i32(s)
		s++
	}

	// The aggregate states cannot live in pooled scratch (generic S); one
	// short-lived slice per chunk is the cost of type genericity.
	results := make([]S, s)
	tree.AggBelowBatch(qlo[:s], qhi[:s], qthr[:s], results, okv[:s], kcnt[:s])

	// Per-slot hole correction and NULL rule.
	for sl := 0; sl < s; sl++ {
		nr := int(slotNR[sl])
		for ro := 0; ro < nr; ro++ {
			scratch[ro] = [2]int{int(slotRanges[6*sl+2*ro]), int(slotRanges[6*sl+2*ro+1])}
		}
		removed := 0
		forEachFullyExcluded(prev, next, scratch[:nr], func(h int) {
			results[sl] = sub(results[sl], values[h])
			removed++
		})
		if !okv[sl] || slotTotal[sl] == 0 || int(kcnt[sl])-removed == 0 {
			okv[sl] = false
		}
	}

	for i := lo; i < hi; i++ {
		ri := i - lo
		row := p.orig(i)
		sl := rowSlot[ri]
		if sl < 0 || !okv[sl] {
			out.setNull(row)
			continue
		}
		emit(row, results[sl])
	}
	agg.queries.Add(int64(s))
	agg.dedup.Add(int64(dedup))
	arena.Bools.Put(okv)
	arena.Int64s.Put(qthr)
	arena.Int32s.Put(ib)
}

// denseRankChunk evaluates one probe chunk of framed DENSE_RANK: one
// three-dimensional counting query per row against the range tree — deduped
// when both the frame ranges and the row's rank repeat (peer rows) —
// answered by the depth-synchronous batched decomposition, plus the per-slot
// exclusion-hole correction, which never touches the tree.
func denseRankChunk(p *partition, fl *filtered, fc *frame.Computer, rt *rangetree.DenseRankTree,
	ranksAll, ranksKept, prevKept, nextKept []int64,
	out *outBuilder, agg *batchAgg, lo, hi int) {
	n := hi - lo
	ib := arena.Int32s.Get(11 * n)
	rowSlot := ib[:n]
	qlo, qhi := ib[n:2*n], ib[2*n:3*n]
	qout := ib[3*n : 4*n]
	slotNR := ib[4*n : 5*n]
	slotRanges := ib[5*n : 11*n]
	lb := arena.Int64s.Get(2 * n)
	qrank, qprev := lb[:n], lb[n:]

	var scratch, mapped [3][2]int
	var prevRanges [3][2]int
	prevNR := -1
	var prevRank int64
	s, dedup := 0, 0
	for i := lo; i < hi; i++ {
		ri := i - lo
		ranges := fl.frameRanges(fc, i, scratch[:], mapped[:])
		if len(ranges) == 0 {
			rowSlot[ri] = -1
			prevNR = -1
			continue
		}
		if ranksAll[i] == prevRank && sameRanges(ranges, prevRanges, prevNR) {
			rowSlot[ri] = i32(s - 1)
			dedup++
			continue
		}
		prevNR = copy(prevRanges[:], ranges)
		prevRank = ranksAll[i]
		a := ranges[0][0]
		d := ranges[len(ranges)-1][1]
		for ro, r := range ranges {
			slotRanges[6*s+2*ro], slotRanges[6*s+2*ro+1] = i32(r[0]), i32(r[1])
		}
		qlo[s], qhi[s] = i32(a), i32(d)
		qrank[s], qprev[s] = ranksAll[i], int64(a)+1
		slotNR[s] = i32(len(ranges))
		rowSlot[ri] = i32(s)
		s++
	}

	rt.CountDistinctBelowBatch(qlo[:s], qhi[:s], qrank[:s], qprev[:s], qout[:s])

	for sl := 0; sl < s; sl++ {
		nr := int(slotNR[sl])
		if nr < 2 {
			continue
		}
		for ro := 0; ro < nr; ro++ {
			scratch[ro] = [2]int{int(slotRanges[6*sl+2*ro]), int(slotRanges[6*sl+2*ro+1])}
		}
		adj := int32(0)
		thr := qrank[sl]
		forEachFullyExcluded(prevKept, nextKept, scratch[:nr], func(h int) {
			if ranksKept[h] < thr {
				adj++
			}
		})
		qout[sl] -= adj
	}

	for i := lo; i < hi; i++ {
		ri := i - lo
		row := p.orig(i)
		sl := rowSlot[ri]
		if sl < 0 {
			out.setInt(row, 1)
			continue
		}
		out.setInt(row, int64(qout[sl])+1)
	}
	agg.queries.Add(int64(s))
	agg.dedup.Add(int64(dedup))
	arena.Int64s.Put(lb)
	arena.Int32s.Put(ib)
}
