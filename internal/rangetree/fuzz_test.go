package rangetree

import (
	"testing"

	"holistic/internal/mst"
)

// FuzzDenseRankBatch cross-checks the depth-synchronous batched probe
// against the scalar canonical-decomposition walk over fuzzer-chosen rank
// arrays, previous-occurrence links, tree options and query arguments. The
// batch repeats, perturbs and full-spans the query so grouped inner-tree
// descents, singleton scalar groups and clamping all run in one pass.
func FuzzDenseRankBatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 9, 0, 0, 9}, 0, 7, int64(4), int64(2), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{5, 5, 5, 5}, 1, 3, int64(5), int64(0), uint8(3), uint8(2), uint8(1))
	f.Add([]byte{}, 0, 0, int64(0), int64(1), uint8(2), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int, rankThr, prevThr int64, fanout, sampleEvery, flags uint8) {
		ranks := make([]int64, len(data))
		prevs := make([]int64, len(data))
		for i, b := range data {
			ranks[i] = int64(b % 16) // low cardinality: rank ties are the interesting case
			prevs[i] = int64(int(b)%(len(data)+1)) - 1
		}
		opt := mst.Options{
			Fanout:      2 + int(fanout%7),
			SampleEvery: 1 + int(sampleEvery%15),
			NoCascading: flags&1 != 0,
			// flags&4 is unused; the byte keeps its place so existing
			// corpora stay valid.
		}
		rt, err := New(ranks, prevs, opt)
		if err != nil {
			t.Fatalf("New(%d rows, %+v): %v", len(ranks), opt, err)
		}
		bLo := []int32{int32(lo), int32(lo), 0, int32(lo + 1)}
		bHi := []int32{int32(hi), int32(hi), int32(len(ranks)), int32(hi + 3)}
		bRank := []int64{rankThr, rankThr, rankThr, rankThr - 1}
		bPrev := []int64{prevThr, prevThr, prevThr, prevThr + 1}
		out := make([]int32, len(bLo))
		rt.CountDistinctBelowBatch(bLo, bHi, bRank, bPrev, out)
		for q := range bLo {
			want := rt.CountDistinctBelow(int(bLo[q]), int(bHi[q]), bRank[q], bPrev[q])
			if int(out[q]) != want {
				t.Errorf("CountDistinctBelowBatch query %d (%d, %d, rank<%d, prev<%d) = %d, scalar %d (opt %+v)",
					q, bLo[q], bHi[q], bRank[q], bPrev[q], out[q], want, opt)
			}
		}
	})
}
