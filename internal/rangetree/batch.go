// Batched framed dense-rank counting (PR 10). A window probe issues one
// CountDistinctBelow per row, and adjacent rows' frames decompose into
// almost the same O(log n) canonical segment-tree nodes. The batched form
// walks all queries' decompositions depth-synchronously: at every depth,
// each live query emits at most one left- and one right-boundary node, and
// because queries arrive in probe order, emissions for the same node are
// adjacent in the per-depth streams. Each maximal same-node group is then
// answered with ONE call into the node's nested merge sort tree — the
// batched CountBelowBatch kernel — so the inner O(log n) descent and its
// galloped top search are shared across the group instead of being paid per
// query. Left and right boundary emissions go to separate streams: a node
// appears as an l-node for one contiguous range of queries and as an r-node
// for another, and mixing the two would split the groups.
//
// Results are exactly CountDistinctBelow per query — enforced by
// TestCountDistinctBelowBatchMatchesScalar and core's batch_equiv_test.

package rangetree

import (
	"math"

	"holistic/internal/arena"
	"holistic/internal/sortutil"
)

// CountDistinctBelowBatch answers len(out) dense-rank counting queries at
// once: out[q] = CountDistinctBelow(int(lo[q]), int(hi[q]), rankThr[q],
// prevThr[q]). All five slices must have the same length. Queries should be
// in probe order (adjacent frames adjacent) so same-node groups are maximal;
// any order is correct.
func (t *DenseRankTree) CountDistinctBelowBatch(lo, hi []int32, rankThr, prevThr []int64, out []int32) {
	m := len(out)
	if len(lo) != m || len(hi) != m || len(rankThr) != m || len(prevThr) != m {
		//lint:invariant the collector builds all five arrays with one length; a mismatch is a caller bug that would silently mis-answer queries
		panic("rangetree: CountDistinctBelowBatch slice length mismatch")
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
	if t.n > (math.MaxInt32-1)/2 {
		// Node indices run up to 2n and live in int32 scratch; partitions
		// this large take the scalar path (they cannot be built today — the
		// nested trees hit the element limit first — but stay correct).
		for q := range out {
			out[q] = int32(t.CountDistinctBelow(int(lo[q]), int(hi[q]), rankThr[q], prevThr[q]))
		}
		return
	}

	buf := arena.Int32s.Get(10 * m)
	gthr := arena.Int64s.Get(m)
	defer arena.Int32s.Put(buf)
	defer arena.Int64s.Put(gthr)
	ll, rr := buf[:m], buf[m:2*m]
	nodesL, qsL := buf[2*m:3*m], buf[3*m:4*m]
	nodesR, qsR := buf[4*m:5*m], buf[5*m:6*m]
	glo, ghi := buf[6*m:7*m], buf[7*m:8*m]
	gout, gq := buf[8*m:9*m], buf[9*m:10*m]

	n32 := int32(t.n)
	for q := 0; q < m; q++ {
		out[q] = 0
		l, h := lo[q], hi[q]
		if l < 0 {
			l = 0
		}
		if h > n32 {
			h = n32
		}
		if l >= h {
			ll[q], rr[q] = 0, 0
			continue
		}
		ll[q], rr[q] = l+n32, h+n32
	}

	// flush answers one per-depth emission stream: maximal groups of equal
	// consecutive node indices share one batched inner-tree call.
	flush := func(nodes, qs []int32, cnt int) {
		for i := 0; i < cnt; {
			j := i + 1
			for j < cnt && nodes[j] == nodes[i] {
				j++
			}
			nd := &t.nodes[nodes[i]]
			if nd.inner == nil || j-i == 1 {
				// Small node or singleton group: the scalar path is already
				// minimal (linear scan / one inner descent).
				for x := i; x < j; x++ {
					q := qs[x]
					m0 := sortutil.LowerBound(nd.ranks, rankThr[q])
					if m0 == 0 {
						continue
					}
					if nd.inner != nil {
						out[q] += int32(nd.inner.CountBelow(0, m0, prevThr[q]))
						continue
					}
					for _, p := range nd.prevs[:m0] {
						if p < prevThr[q] {
							out[q]++
						}
					}
				}
				i = j
				continue
			}
			gm := 0
			for x := i; x < j; x++ {
				q := qs[x]
				m0 := sortutil.LowerBound(nd.ranks, rankThr[q])
				if m0 == 0 {
					continue
				}
				glo[gm], ghi[gm] = 0, int32(m0)
				gthr[gm] = prevThr[q]
				gq[gm] = q
				gm++
			}
			if gm > 0 {
				nd.inner.CountBelowBatch(glo[:gm], ghi[:gm], gthr[:gm], gout[:gm])
				for x := 0; x < gm; x++ {
					out[gq[x]] += gout[x]
				}
			}
			i = j
		}
	}

	// Depth-synchronous canonical decomposition: the classic l/r boundary
	// walk of CountDistinctBelow, advanced one depth for all queries per
	// iteration.
	for {
		nl, nr := 0, 0
		any := false
		for q := 0; q < m; q++ {
			l, r := ll[q], rr[q]
			if l >= r {
				continue
			}
			if l&1 == 1 {
				nodesL[nl], qsL[nl] = l, int32(q)
				nl++
				l++
			}
			if r&1 == 1 {
				r--
				nodesR[nr], qsR[nr] = r, int32(q)
				nr++
			}
			l >>= 1
			r >>= 1
			ll[q], rr[q] = l, r
			if l < r {
				any = true
			}
		}
		flush(nodesL, qsL, nl)
		flush(nodesR, qsR, nr)
		if !any {
			break
		}
	}
}
