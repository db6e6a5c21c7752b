package mst

import (
	"math"
	"math/rand"
	"testing"
)

// batchVariants are the tree configurations the batch kernels must agree
// with the scalar descents on: the defaults, a deep skinny tree, no
// cascading, and the forced 64-bit representation.
func batchVariants() []Options {
	return []Options{
		{},
		{Fanout: 2, SampleEvery: 1},
		{Fanout: 3, SampleEvery: 2, NoCascading: true},
		{Force64: true},
	}
}

// TestCountBelowBatchMatchesScalar cross-checks CountBelowBatch against
// per-query CountBelow over randomized data, including sliding frames (the
// galloping fast path), random frames (bidirectional galloping), clamped
// and trivial queries, and out-of-domain thresholds.
func TestCountBelowBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, opt := range batchVariants() {
		for _, n := range []int{0, 1, 2, 7, 33, 257, 4000} {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = int64(rng.Intn(n + 1))
			}
			tree, err := Build(keys, opt)
			if err != nil {
				t.Fatal(err)
			}
			m := 2*n + 16
			lo := make([]int32, m)
			hi := make([]int32, m)
			thr := make([]int64, m)
			for q := 0; q < m; q++ {
				switch q % 4 {
				case 0: // sliding frame, monotone threshold
					lo[q] = int32(q / 2)
					hi[q] = int32(q/2 + 50)
					thr[q] = int64(q/2) + 1
				case 1: // random in-domain
					lo[q] = int32(rng.Intn(n + 1))
					hi[q] = lo[q] + int32(rng.Intn(n+1))
					thr[q] = int64(rng.Intn(n + 2))
				case 2: // duplicate of the previous query (dedup shape)
					lo[q], hi[q], thr[q] = lo[q-1], hi[q-1], thr[q-1]
				default: // out-of-range clamping and trivial cases
					lo[q] = int32(rng.Intn(2*n+3) - n - 1)
					hi[q] = int32(rng.Intn(2*n+3) - n - 1)
					thr[q] = []int64{-1, 0, int64(n) + 7, math.MaxInt64, 3}[rng.Intn(5)]
				}
			}
			out := make([]int32, m)
			tree.CountBelowBatch(lo, hi, thr, out)
			for q := 0; q < m; q++ {
				want := tree.CountBelow(int(lo[q]), int(hi[q]), thr[q])
				if int(out[q]) != want {
					t.Fatalf("opt=%+v n=%d query %d: CountBelowBatch(%d,%d,%d)=%d, scalar=%d",
						opt, n, q, lo[q], hi[q], thr[q], out[q], want)
				}
			}
		}
	}
}

// TestSelectKthRangesBatchMatchesScalar cross-checks SelectKthRangesBatch
// against per-query SelectKthRanges over randomized multi-range queries,
// including empty ranges, unsatisfiable ranks and negative ranks.
func TestSelectKthRangesBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, opt := range batchVariants() {
		for _, n := range []int{0, 1, 2, 9, 65, 300, 2500} {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = int64(rng.Intn(n + 1))
			}
			tree, err := Build(keys, opt)
			if err != nil {
				t.Fatal(err)
			}
			m := n + 24
			off := make([]int32, 1, m+1)
			var vlo, vhi []int64
			k := make([]int32, m)
			for q := 0; q < m; q++ {
				nr := rng.Intn(4) // 0..3 ranges
				if q%5 == 4 && q > 0 {
					// Same ranges as the previous query, shifted rank.
					p0, p1 := int(off[q-1]), int(off[q])
					vlo = append(vlo, vlo[p0:p1]...)
					vhi = append(vhi, vhi[p0:p1]...)
				} else {
					start := int64(0)
					for r := 0; r < nr; r++ {
						a := start + int64(rng.Intn(n/2+2))
						b := a + int64(rng.Intn(n/2+2)) // may be empty (a == b)
						vlo = append(vlo, a)
						vhi = append(vhi, b)
						start = b
					}
				}
				off = append(off, int32(len(vlo)))
				k[q] = int32(rng.Intn(n+3) - 1) // includes -1 and > total
			}
			out := make([]int32, m)
			tree.SelectKthRangesBatch(off, vlo, vhi, k, out)
			var scratch [maxSelectRanges][2]int64
			for q := 0; q < m; q++ {
				nr := 0
				for j := off[q]; j < off[q+1]; j++ {
					scratch[nr] = [2]int64{vlo[j], vhi[j]}
					nr++
				}
				pos, ok := tree.SelectKthRanges(scratch[:nr], int(k[q]))
				want := int32(-1)
				if ok {
					want = int32(pos)
				}
				if out[q] != want {
					t.Fatalf("opt=%+v n=%d query %d (ranges=%v k=%d): batch=%d scalar=%d ok=%v",
						opt, n, q, scratch[:nr], k[q], out[q], want, ok)
				}
			}
		}
	}
}

// TestLowerBoundFromP exhausts guess positions against the plain binary
// search on small sorted arrays with duplicates.
func TestLowerBoundFromP(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		a := make([]int32, n)
		v := int32(0)
		for i := range a {
			v += int32(rng.Intn(3))
			a[i] = v
		}
		for x := int32(-1); x <= v+1; x++ {
			want := lowerBoundP(a, x)
			for g := -2; g <= n+2; g++ {
				if got := lowerBoundFromP(a, x, g); got != want {
					t.Fatalf("lowerBoundFromP(%v, %d, guess=%d) = %d, want %d", a, x, g, got, want)
				}
			}
		}
	}
}
