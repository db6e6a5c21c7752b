package core

import (
	"fmt"
	"math/rand"
	"testing"

	"holistic/internal/frame"
	"holistic/internal/mst"
)

// The batched level-synchronous kernels are the only probe path, so they are
// checked against the brute-force reference evaluator: for any dataset,
// frame and window function, every output row must match. A divergence
// means a collector mis-translated a row's query set, the dedup rule reused
// a non-identical query, or a kernel answered wrongly.

func TestBatchEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	treeVariants := []mst.Options{{}, {Fanout: 2, SampleEvery: 1}, {NoCascading: true}, {Force64: true}}
	trials := 16
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		n := []int{0, 1, 3, 13, 40, 150, 700}[trial%7]
		tab := randTable(rng, n)
		fs := randFrame(rng)
		w := &WindowSpec{
			OrderBy:  []SortKey{{Column: "d", Desc: rng.Intn(2) == 0}},
			Frame:    fs,
			FrameSet: true,
			Funcs:    allFuncSpecs(rng),
		}
		if rng.Intn(2) == 0 {
			w.PartitionBy = []string{"g"}
		}
		// Small task sizes so chunk boundaries (where dedup resets) fall
		// inside partitions.
		res, err := Run(tab, w, Options{Tree: treeVariants[trial%len(treeVariants)], TaskSize: 16})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range w.Funcs {
			f := &w.Funcs[i]
			label := fmt.Sprintf("trial %d %v (%s) frame{%v %v/%v ex%d}",
				trial, f.Name, f.Output, fs.Mode, fs.Start.Type, fs.End.Type, fs.Exclude)
			compareToReference(t, tab, w, f, res.Column(f.Output), label)
		}
	}
}

// TestBatchEquivalenceDedupHeavy pins the adjacent-row dedup path: a default
// RANGE frame over a low-cardinality ORDER BY key makes every peer group
// share one frame, so most rows reuse their predecessor's queries. Results
// must still match the reference evaluator, and the dedup counter must see
// the reuse.
func TestBatchEquivalenceDedupHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(778))
	tab := randTable(rng, 400)
	w := &WindowSpec{
		OrderBy: []SortKey{{Column: "g"}}, // few distinct values: large peer groups
		Frame: frame.Spec{
			Mode:  frame.Range,
			Start: frame.Bound{Type: frame.UnboundedPreceding},
			End:   frame.Bound{Type: frame.CurrentRow},
		},
		FrameSet: true,
		Funcs: []FuncSpec{
			{Name: CountDistinct, Output: "cd", Arg: "v"},
			{Name: Rank, Output: "rk", OrderBy: []SortKey{{Column: "g"}}},
			{Name: CumeDist, Output: "cu", OrderBy: []SortKey{{Column: "g"}}},
			{Name: FirstValue, Output: "fv", Arg: "v", OrderBy: []SortKey{{Column: "v"}}},
			{Name: PercentileCont, Output: "pc", Fraction: 0.37, OrderBy: []SortKey{{Column: "fv"}}},
		},
	}
	before := BatchSnapshot()
	batched, err := Run(tab, w, Options{TaskSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	after := BatchSnapshot()
	if after.Queries <= before.Queries {
		t.Errorf("batched run did not raise the query counter: %+v -> %+v", before, after)
	}
	if after.DedupHits <= before.DedupHits {
		t.Errorf("dedup-heavy run did not raise the dedup counter: %+v -> %+v", before, after)
	}
	for i := range w.Funcs {
		f := &w.Funcs[i]
		compareToReference(t, tab, w, f, batched.Column(f.Output), f.Output)
	}
}

// TestBatchEquivalenceAggRankFamilies pins the aggregate and dense-rank
// kernels: the SUM/AVG(DISTINCT) and DENSE_RANK collectors must move
// their per-family counters (including the adjacent-frame dedup hits that a
// low-cardinality RANGE frame provokes), and their results must match the
// reference evaluator.
func TestBatchEquivalenceAggRankFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(779))
	tab := randTable(rng, 500)
	w := &WindowSpec{
		OrderBy: []SortKey{{Column: "g"}}, // few distinct values: large peer groups
		Frame: frame.Spec{
			Mode:  frame.Range,
			Start: frame.Bound{Type: frame.UnboundedPreceding},
			End:   frame.Bound{Type: frame.CurrentRow},
		},
		FrameSet: true,
		Funcs: []FuncSpec{
			{Name: SumDistinct, Output: "sd", Arg: "v"},
			{Name: SumDistinct, Output: "sdf", Arg: "fv"},
			{Name: AvgDistinct, Output: "ad", Arg: "v"},
			{Name: DenseRank, Output: "dr", OrderBy: []SortKey{{Column: "v"}}},
			{Name: DenseRank, Output: "drf", OrderBy: []SortKey{{Column: "v"}}, Filter: "flt"},
		},
	}
	famIndex := func(stats []BatchFamilyStat, name string) BatchFamilyStat {
		for _, s := range stats {
			if s.Family == name {
				return s
			}
		}
		t.Fatalf("family %q missing from snapshot %+v", name, stats)
		return BatchFamilyStat{}
	}
	before := BatchFamilySnapshot()
	batched, err := Run(tab, w, Options{TaskSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	after := BatchFamilySnapshot()
	for _, fam := range []string{"agg", "rank"} {
		b, a := famIndex(before, fam), famIndex(after, fam)
		if a.Queries <= b.Queries {
			t.Errorf("family %q: batched run did not raise the query counter: %+v -> %+v", fam, b, a)
		}
		if a.DedupHits <= b.DedupHits {
			t.Errorf("family %q: dedup-heavy run did not raise the dedup counter: %+v -> %+v", fam, b, a)
		}
	}
	for i := range w.Funcs {
		f := &w.Funcs[i]
		compareToReference(t, tab, w, f, batched.Column(f.Output), f.Output)
	}
}
