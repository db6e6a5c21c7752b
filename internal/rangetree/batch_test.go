package rangetree

import (
	"math"
	"math/rand"
	"testing"

	"holistic/internal/mst"
)

// TestCountDistinctBelowBatchMatchesScalar cross-checks the depth-
// synchronous batched decomposition against per-query CountDistinctBelow
// over randomized data: sliding frames (the grouping fast path), random
// frames, clamped ranges and out-of-domain thresholds.
func TestCountDistinctBelowBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	variants := []mst.Options{
		{},
		{Fanout: 2, SampleEvery: 1},
	}
	for _, opt := range variants {
		for _, n := range []int{0, 1, 2, 7, 33, 257, 1500} {
			ranks := make([]int64, n)
			prevs := make([]int64, n)
			for i := range ranks {
				ranks[i] = int64(rng.Intn(n/3 + 2))
				prevs[i] = int64(rng.Intn(n + 2))
			}
			rt, err := New(ranks, prevs, opt)
			if err != nil {
				t.Fatal(err)
			}
			m := 2*n + 16
			lo := make([]int32, m)
			hi := make([]int32, m)
			rankThr := make([]int64, m)
			prevThr := make([]int64, m)
			for q := 0; q < m; q++ {
				switch q % 4 {
				case 0: // sliding frame
					lo[q] = int32(q / 2)
					hi[q] = int32(q/2 + 40)
					rankThr[q] = int64(q % (n/3 + 2))
					prevThr[q] = int64(q/2) + 1
				case 1: // random in-domain
					lo[q] = int32(rng.Intn(n + 1))
					hi[q] = lo[q] + int32(rng.Intn(n+1))
					rankThr[q] = int64(rng.Intn(n/3 + 3))
					prevThr[q] = int64(rng.Intn(n + 3))
				case 2: // duplicate of the previous query (dedup shape)
					lo[q], hi[q] = lo[q-1], hi[q-1]
					rankThr[q], prevThr[q] = rankThr[q-1], prevThr[q-1]
				default: // clamping and extremes
					lo[q] = int32(rng.Intn(2*n+3) - n - 1)
					hi[q] = int32(rng.Intn(2*n+3) - n - 1)
					rankThr[q] = []int64{-1, 0, math.MaxInt64, 5}[rng.Intn(4)]
					prevThr[q] = []int64{-1, 0, math.MaxInt64, 3}[rng.Intn(4)]
				}
			}
			out := make([]int32, m)
			rt.CountDistinctBelowBatch(lo, hi, rankThr, prevThr, out)
			for q := 0; q < m; q++ {
				want := rt.CountDistinctBelow(int(lo[q]), int(hi[q]), rankThr[q], prevThr[q])
				if int(out[q]) != want {
					t.Fatalf("opt=%+v n=%d query %d: batch(%d,%d,%d,%d)=%d, scalar=%d",
						opt, n, q, lo[q], hi[q], rankThr[q], prevThr[q], out[q], want)
				}
			}
		}
	}
}
