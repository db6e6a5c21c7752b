package mst

import (
	"bytes"
	"testing"
)

// FuzzCountSelect cross-checks the tree's count and select queries —
// scalar descents and the batched level-synchronous kernels — against brute
// force over fuzzer-chosen inputs, tree options and query arguments.
// CI runs it as a smoke pass on main pushes; `go test -fuzz=FuzzCountSelect
// ./internal/mst/` digs deeper locally.
func FuzzCountSelect(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 0, 0, 9}, 0, 7, int64(4), 2, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{5, 5, 5, 5}, 1, 3, int64(5), 0, uint8(3), uint8(2), uint8(1))
	f.Add([]byte{}, 0, 0, int64(0), 0, uint8(2), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int, threshold int64, k int, fanout, sampleEvery, flags uint8) {
		keys := make([]int64, len(data))
		for i, b := range data {
			// Non-negative keys per Build's contract; spread a few values
			// past the 32-bit boundary to exercise the 64-bit payload path.
			keys[i] = int64(b)
			if b >= 250 {
				keys[i] = int64(b) << 24
			}
		}
		opt := Options{
			Fanout:      2 + int(fanout%7),
			SampleEvery: 1 + int(sampleEvery%15),
			NoCascading: flags&1 != 0,
			Force64:     flags&2 != 0,
			Serial:      flags&4 != 0,
		}
		tree, err := Build(keys, opt)
		if err != nil {
			t.Fatalf("Build(%d keys, %+v): %v", len(keys), opt, err)
		}

		got := tree.CountBelow(lo, hi, threshold)
		want := 0
		cLo, cHi := clampRange(lo, hi, len(keys))
		for _, v := range keys[cLo:cHi] {
			if v < threshold {
				want++
			}
		}
		if got != want {
			t.Errorf("CountBelow(%d, %d, %d) = %d, brute force %d (opt %+v)", lo, hi, threshold, got, want, opt)
		}

		// Select the k-th entry by value range [0, threshold); compare
		// against a brute-force scan in position order.
		pos, ok := tree.SelectKth(0, threshold, k)
		wantPos, wantOK := 0, false
		if k >= 0 {
			seen := 0
			for i, v := range keys {
				if v >= 0 && v < threshold {
					if seen == k {
						wantPos, wantOK = i, true
						break
					}
					seen++
				}
			}
		}
		if ok != wantOK || (ok && pos != wantPos) {
			t.Errorf("SelectKth(0, %d, %d) = (%d, %v), brute force (%d, %v) (opt %+v)", threshold, k, pos, ok, wantPos, wantOK, opt)
		}

		// The batched kernels must agree with the brute force too. The batch
		// repeats the query (exercising the dedup/gallop-from-equal shape),
		// perturbs it (bidirectional galloping) and covers the full span.
		bLo := []int32{int32(lo), int32(lo), 0, int32(lo + 1)}
		bHi := []int32{int32(hi), int32(hi), int32(len(keys)), int32(hi + 3)}
		bThr := []int64{threshold, threshold, threshold, threshold - 1}
		bOut := make([]int32, len(bLo))
		tree.CountBelowBatch(bLo, bHi, bThr, bOut)
		for q := range bOut {
			bruteCnt := 0
			qLo, qHi := clampRange(int(bLo[q]), int(bHi[q]), len(keys))
			for _, v := range keys[qLo:qHi] {
				if v < bThr[q] {
					bruteCnt++
				}
			}
			if int(bOut[q]) != bruteCnt {
				t.Errorf("CountBelowBatch query %d (%d, %d, %d) = %d, brute force %d (opt %+v)",
					q, bLo[q], bHi[q], bThr[q], bOut[q], bruteCnt, opt)
			}
		}

		sOff := []int32{0, 1, 2}
		sVlo := []int64{0, 0}
		sVhi := []int64{threshold, threshold}
		sK := []int32{int32(k), int32(k)} // may wrap for huge k; the oracle below uses the wrapped value
		sOut := make([]int32, 2)
		tree.SelectKthRangesBatch(sOff, sVlo, sVhi, sK, sOut)
		for q := range sOut {
			wantB := int32(-1)
			if kq := int(sK[q]); kq >= 0 {
				seen := 0
				for i, v := range keys {
					if v >= 0 && v < threshold {
						if seen == kq {
							wantB = int32(i)
							break
						}
						seen++
					}
				}
			}
			if sOut[q] != wantB {
				t.Errorf("SelectKthRangesBatch query %d ([0,%d), k=%d) = %d, brute force %d (opt %+v)",
					q, threshold, sK[q], sOut[q], wantB, opt)
			}
		}
	})
}

// FuzzAggBatch cross-checks the batched aggregate kernel against the scalar
// annotated descent: results must be byte-identical (the merge is an
// order-sensitive string concatenation, so any reordering of the take fold
// shows up immediately), ok flags must agree, and the count side output must
// match CountBelow.
func FuzzAggBatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 0, 0, 9}, 0, 7, int64(4), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{5, 5, 5, 5}, 1, 3, int64(5), uint8(3), uint8(2), uint8(1))
	f.Add([]byte{}, 0, 0, int64(0), uint8(2), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int, threshold int64, fanout, sampleEvery, flags uint8) {
		keys := make([]int64, len(data))
		vals := make([]string, len(data))
		for i, b := range data {
			// Annotated keys live in the previous-index domain [0, n].
			keys[i] = int64(int(b) % (len(data) + 1))
			vals[i] = string(rune('a' + int(b)%26))
		}
		opt := Options{
			Fanout:      2 + int(fanout%7),
			SampleEvery: 1 + int(sampleEvery%15),
			NoCascading: flags&1 != 0,
			Force64:     flags&2 != 0,
			// flags&4 is unused; the byte keeps its place so existing
			// corpora stay valid.
		}
		at, err := BuildAnnotated(keys, vals, func(a, b string) string { return a + "|" + b }, opt)
		if err != nil {
			t.Fatalf("BuildAnnotated(%d keys, %+v): %v", len(keys), opt, err)
		}
		// Repeat, perturb and full-span the query so the batch sees dedup,
		// bidirectional galloping and the top-level fast path in one pass.
		bLo := []int32{int32(lo), int32(lo), 0, int32(lo + 1)}
		bHi := []int32{int32(hi), int32(hi), int32(len(keys)), int32(hi + 3)}
		bThr := []int64{threshold, threshold, threshold, threshold - 1}
		res := make([]string, len(bLo))
		ok := make([]bool, len(bLo))
		cnt := make([]int32, len(bLo))
		at.AggBelowBatch(bLo, bHi, bThr, res, ok, cnt)
		for q := range bLo {
			wantRes, wantOK := at.AggBelow(int(bLo[q]), int(bHi[q]), bThr[q])
			if ok[q] != wantOK || (ok[q] && res[q] != wantRes) {
				t.Errorf("AggBelowBatch query %d (%d, %d, %d) = (%q, %v), scalar (%q, %v) (opt %+v)",
					q, bLo[q], bHi[q], bThr[q], res[q], ok[q], wantRes, wantOK, opt)
			}
			if wantCnt := at.CountBelow(int(bLo[q]), int(bHi[q]), bThr[q]); int(cnt[q]) != wantCnt {
				t.Errorf("AggBelowBatch query %d count = %d, scalar CountBelow %d (opt %+v)",
					q, cnt[q], wantCnt, opt)
			}
		}
	})
}

// FuzzSerialize round-trips fuzzer-built trees through the MST1 format and
// checks the deserialized tree answers count and select queries identically
// to the original, across payload widths, fanouts and sampling rates.
func FuzzSerialize(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 0, 0, 9}, 0, 7, int64(4), 2, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{5, 5, 5, 5}, 1, 3, int64(5), 0, uint8(3), uint8(2), uint8(3))
	f.Add([]byte{}, 0, 0, int64(0), 0, uint8(2), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int, threshold int64, k int, fanout, sampleEvery, flags uint8) {
		keys := make([]int64, len(data))
		for i, b := range data {
			keys[i] = int64(b)
			if b >= 250 {
				keys[i] = int64(b) << 24 // force the 64-bit payload path
			}
		}
		opt := Options{
			Fanout:      2 + int(fanout%7),
			SampleEvery: 1 + int(sampleEvery%15),
			NoCascading: flags&1 != 0,
			Force64:     flags&2 != 0,
		}
		orig, err := Build(keys, opt)
		if err != nil {
			t.Fatalf("Build(%d keys, %+v): %v", len(keys), opt, err)
		}

		var buf bytes.Buffer
		written, err := orig.WriteTo(&buf)
		if err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if written != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", written, buf.Len())
		}
		got, err := ReadTree(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadTree: %v", err)
		}

		if got.Len() != orig.Len() || got.Is32Bit() != orig.Is32Bit() {
			t.Fatalf("round trip changed shape: len %d->%d, 32bit %v->%v",
				orig.Len(), got.Len(), orig.Is32Bit(), got.Is32Bit())
		}
		if a, b := orig.CountBelow(lo, hi, threshold), got.CountBelow(lo, hi, threshold); a != b {
			t.Errorf("CountBelow(%d, %d, %d): orig %d, round-tripped %d", lo, hi, threshold, a, b)
		}
		aPos, aOK := orig.SelectKth(0, threshold, k)
		bPos, bOK := got.SelectKth(0, threshold, k)
		if aOK != bOK || (aOK && aPos != bPos) {
			t.Errorf("SelectKth(0, %d, %d): orig (%d, %v), round-tripped (%d, %v)",
				threshold, k, aPos, aOK, bPos, bOK)
		}
		for pos := 0; pos < orig.Len(); pos++ {
			if a, b := orig.Value(pos), got.Value(pos); a != b {
				t.Fatalf("Value(%d): orig %d, round-tripped %d", pos, a, b)
			}
		}
	})
}

func clampRange(lo, hi, n int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}
