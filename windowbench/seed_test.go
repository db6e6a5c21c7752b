package main

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"holistic/internal/tpch"
)

// inputs fingerprints everything a run generates from its seed: datasets,
// frames, statements, upsert batches and oracle samples.
func inputs(seed int64) string {
	h := sha256.New()
	h.Write(lineitemCSV(tpch.GenerateLineitem(2000, seed), nil))
	ks := frameKs(seed)
	for _, k := range ks[:50] {
		fmt.Fprintln(h, exploreSQL(k), evalSQL(k))
	}
	d := newMutateData(seed)
	h.Write(lineitemCSV(d.li, d.grp))
	for i := 0; i < 20; i++ {
		fmt.Fprintln(h, d.request(d.batch(seed, i)))
		fmt.Fprintln(h, sample(seed, i, mutateRows))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestInputsDependOnlyOnTheSeed(t *testing.T) {
	if a, b := inputs(5), inputs(5); a != b {
		t.Fatalf("same seed, different inputs: %s vs %s", a, b)
	}
	if inputs(5) == inputs(6) {
		t.Fatal("different seeds generate identical inputs")
	}
}

func TestFramesAreFreshAndInRange(t *testing.T) {
	ks := frameKs(9)
	seen := map[int]bool{}
	for _, k := range ks {
		if k < minK || k > maxK || seen[k] {
			t.Fatalf("frame offset %d repeated or outside [%d, %d]", k, minK, maxK)
		}
		seen[k] = true
	}
	if len(ks) < 4000 {
		t.Fatalf("only %d offsets", len(ks))
	}
	for i := 0; i+frameStrata <= len(ks); i += frameStrata {
		bands := map[int]bool{}
		for _, k := range ks[i : i+frameStrata] {
			bands[(k-minK)/((maxK-minK+frameStrata)/frameStrata)] = true
		}
		if len(bands) != frameStrata {
			t.Fatalf("round at %d covers %d bands, want %d", i, len(bands), frameStrata)
		}
	}
}

func TestBatchesStayInTheHotPartition(t *testing.T) {
	d := newMutateData(4)
	for i := 0; i < 10; i++ {
		rows := map[int]bool{}
		for _, u := range d.batch(4, i) {
			if d.grp[u.row] != d.hot || rows[u.row] {
				t.Fatalf("batch %d touches row %d of partition %d twice or outside hot partition %d", i, u.row, d.grp[u.row], d.hot)
			}
			rows[u.row] = true
		}
		if len(rows) != batchRows {
			t.Fatalf("batch %d has %d rows, want %d", i, len(rows), batchRows)
		}
	}
	if !reflect.DeepEqual(d.batch(4, 3), newMutateData(4).batch(4, 3)) {
		t.Fatal("batch 3 differs between two generations from one seed")
	}
}
