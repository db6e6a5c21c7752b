package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"holistic/internal/mst"
)

// Pooled scratch must be invisible in results: for any dataset, frame and
// window function, evaluation over pools that earlier runs left dirty must
// agree with the brute-force reference evaluator, and repeating a run on
// warm pools must reproduce the first run byte for byte. A divergence means
// a pooled buffer leaked into retained state or was handed out dirty where
// zeroed memory was assumed.

// assertColumnsIdentical compares two result columns exactly — float values
// by bit pattern, not tolerance, since both runs execute the same arithmetic.
func assertColumnsIdentical(t *testing.T, label string, got, want *Column) {
	t.Helper()
	if got.Len() != want.Len() || got.Kind() != want.Kind() {
		t.Fatalf("%s: shape mismatch: len %d/%d kind %v/%v",
			label, got.Len(), want.Len(), got.Kind(), want.Kind())
	}
	for i := 0; i < got.Len(); i++ {
		if got.IsNull(i) != want.IsNull(i) {
			t.Fatalf("%s row %d: null mismatch: got=%v want=%v",
				label, i, got.IsNull(i), want.IsNull(i))
		}
		if got.IsNull(i) {
			continue
		}
		switch got.Kind() {
		case Int64:
			if got.Int64(i) != want.Int64(i) {
				t.Fatalf("%s row %d: %d != %d", label, i, got.Int64(i), want.Int64(i))
			}
		case Float64:
			if math.Float64bits(got.Float64(i)) != math.Float64bits(want.Float64(i)) {
				t.Fatalf("%s row %d: %v != %v (bitwise)", label, i, got.Float64(i), want.Float64(i))
			}
		case String:
			if got.StringAt(i) != want.StringAt(i) {
				t.Fatalf("%s row %d: %q != %q", label, i, got.StringAt(i), want.StringAt(i))
			}
		case Bool:
			if got.Bool(i) != want.Bool(i) {
				t.Fatalf("%s row %d: %v != %v", label, i, got.Bool(i), want.Bool(i))
			}
		}
	}
}

// runTwice evaluates w twice with the same options: the second run draws
// from pools the first one (and every earlier test) returned dirty. It
// returns the second result after checking it reproduces the first exactly.
func runTwice(t *testing.T, label string, tab *Table, w *WindowSpec, opt Options) *Result {
	t.Helper()
	first, err := Run(tab, w, opt)
	if err != nil {
		t.Fatalf("%s: first run: %v", label, err)
	}
	second, err := Run(tab, w, opt)
	if err != nil {
		t.Fatalf("%s: second run: %v", label, err)
	}
	for i := range w.Funcs {
		f := &w.Funcs[i]
		assertColumnsIdentical(t, fmt.Sprintf("%s %v (%s) warm rerun", label, f.Name, f.Output),
			second.Column(f.Output), first.Column(f.Output))
	}
	return second
}

func TestPoolEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	treeVariants := []mst.Options{{}, {Fanout: 2, SampleEvery: 1}, {NoCascading: true}, {Force64: true}}
	trials := 10
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		n := []int{0, 1, 3, 13, 40, 150}[trial%6]
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
		res := runTwice(t, fmt.Sprintf("trial %d", trial), tab, w,
			Options{Tree: treeVariants[trial%len(treeVariants)], TaskSize: 16})
		for i := range w.Funcs {
			f := &w.Funcs[i]
			label := fmt.Sprintf("trial %d %v (%s) frame{%v %v/%v ex%d}",
				trial, f.Name, f.Output, fs.Mode, fs.Start.Type, fs.End.Type, fs.Exclude)
			compareToReference(t, tab, w, f, res.Column(f.Output), label)
		}
	}
}

// TestPoolEquivalenceAllEngines repeats the check for the competitor engines
// that share newFiltered's pooled inclusion masks.
func TestPoolEquivalenceAllEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		n := []int{8, 40}[trial%2]
		tab := randTable(rng, n)
		fs := randFrame(rng)
		fs.Exclude = 0 // competitors reject exclusion
		w := &WindowSpec{
			OrderBy:  []SortKey{{Column: "d"}},
			Frame:    fs,
			FrameSet: true,
		}
		ordV := []SortKey{{Column: "v"}}
		w.Funcs = []FuncSpec{
			{Name: CountDistinct, Output: "c1", Arg: "v", Engine: EngineIncremental, Filter: "flt"},
			{Name: CountDistinct, Output: "c2", Arg: "v", Engine: EngineNaive, Filter: "flt"},
			{Name: Rank, Output: "r1", OrderBy: ordV, Engine: EngineOSTree},
			{Name: Rank, Output: "r2", OrderBy: ordV, Engine: EngineSegmentTree},
			{Name: FirstValue, Output: "f1", Arg: "s", OrderBy: ordV, Engine: EngineSegmentTree, Filter: "flt"},
			{Name: FirstValue, Output: "f2", Arg: "s", OrderBy: ordV, Engine: EngineNaive, Filter: "flt"},
		}
		res := runTwice(t, fmt.Sprintf("trial %d", trial), tab, w, Options{TaskSize: 16})
		for i := range w.Funcs {
			f := &w.Funcs[i]
			label := fmt.Sprintf("trial %d engine %v %v", trial, f.Engine, f.Name)
			compareToReference(t, tab, w, f, res.Column(f.Output), label)
		}
	}
}
