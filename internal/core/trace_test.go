package core

import (
	"math/rand"
	"testing"

	"holistic/internal/frame"
	"holistic/internal/mst"
	"holistic/internal/obs"
	"holistic/internal/preprocess"
)

// traceWindow is a two-function window (a merge-sort-tree distinct count
// and a rank) that exercises the preprocess, build and probe phases.
func traceWindow() *WindowSpec {
	return &WindowSpec{
		OrderBy: []SortKey{{Column: "d"}},
		Frame: frame.Spec{
			Mode:  frame.Rows,
			Start: frame.Bound{Type: frame.Preceding, Offset: 50},
			End:   frame.Bound{Type: frame.CurrentRow},
		},
		FrameSet: true,
		Funcs: []FuncSpec{
			{Name: CountDistinct, Output: "cd", Arg: "v"},
			{Name: Rank, Output: "r", OrderBy: []SortKey{{Column: "v"}}},
		},
	}
}

// TestRunTraceInvariants runs a traced query and checks the structural
// contract of the span tree: every span ended, no child outlasting its
// parent, the documented phases present, and eval spans labelled with
// function and engine.
func TestRunTraceInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := randTable(rng, 5_000)
	root := obs.NewSpan("query")
	if _, err := Run(tab, traceWindow(), Options{Trace: root, TaskSize: 512}); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans := 0
	root.Walk(func(sp *obs.Span, depth int) {
		spans++
		if !sp.Ended() {
			t.Errorf("span %q (depth %d) not ended after Run", sp.Name(), depth)
		}
	})
	if spans < 5 {
		t.Fatalf("trace has only %d spans", spans)
	}

	// Child durations never exceed the parent's: children start after and
	// end before their parent on the monotonic clock.
	var check func(parent *obs.Span)
	check = func(parent *obs.Span) {
		for _, child := range parent.Children() {
			if child.Duration() > parent.Duration() {
				t.Errorf("child %q (%v) outlasts parent %q (%v)",
					child.Name(), child.Duration(), parent.Name(), parent.Duration())
			}
			check(child)
		}
	}
	check(root)

	// The phases DESIGN.md §9 documents for this query shape.
	totals := root.PhaseTotals()
	byName := map[string]bool{}
	for _, ph := range totals {
		byName[ph.Name] = true
	}
	for _, want := range []string{
		"partition+order sort",
		"partition boundaries",
		"preprocess: populate hashes",
		"preprocess: sort hashes",
		"preprocess: prevIdcs",
		"build merge sort tree",
		"probe",
	} {
		if !byName[want] {
			t.Errorf("phase %q missing from totals %v", want, totals)
		}
	}

	// Structural spans carry their labels but stay out of the phase totals.
	evals := 0
	root.Walk(func(sp *obs.Span, _ int) {
		if sp.Name() != "eval" {
			return
		}
		evals++
		if sp.IsPhase() {
			t.Error("eval spans must be structural, not phases")
		}
		if sp.Attr("function") == "" || sp.Attr("engine") == "" {
			t.Errorf("eval span lacks function/engine attrs: %v", sp.Attrs())
		}
	})
	if evals != 2 {
		t.Errorf("got %d eval spans, want 2 (one per function)", evals)
	}
	if byName["eval"] || byName["worker"] {
		t.Error("structural spans leaked into the phase totals")
	}
}

// TestPhaseSpansDoNotNest checks that a traced run over every function marks
// no phase span beneath another phase span: PhaseTotals sums phases by name,
// so a nested phase would count its time twice in the Figure 14 breakdown.
func TestPhaseSpansDoNotNest(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tab := randTable(rng, 2_000)
	w := &WindowSpec{
		OrderBy:  []SortKey{{Column: "d"}},
		Frame:    randFrame(rng),
		FrameSet: true,
		Funcs:    allFuncSpecs(rng),
	}
	root := obs.NewSpan("query")
	if _, err := Run(tab, w, Options{Trace: root, TaskSize: 256}); err != nil {
		t.Fatal(err)
	}
	root.End()

	var check func(sp *obs.Span, phaseAncestor string)
	check = func(sp *obs.Span, phaseAncestor string) {
		if sp.IsPhase() {
			if phaseAncestor != "" {
				t.Errorf("phase span %q nests under phase span %q", sp.Name(), phaseAncestor)
			}
			phaseAncestor = sp.Name()
		}
		for _, c := range sp.Children() {
			check(c, phaseAncestor)
		}
	}
	check(root, "")
}

// TestProbeZeroAllocWithoutTrace guards the acceptance bar: with tracing
// disabled (a nil span everywhere), the warm probe path allocates nothing
// per row. A batched chunk draws its scratch from the pools and returns it
// there, so a warm chunk allocates nothing whatever its row count.
func TestProbeZeroAllocWithoutTrace(t *testing.T) {
	const n = 4_096
	f := &FuncSpec{Name: CountDistinct, Output: "x", Arg: "v"}
	rng := rand.New(rand.NewSource(99))
	tab := randTable(rng, n)
	w := &WindowSpec{
		OrderBy: []SortKey{{Column: "d"}},
		Frame: frame.Spec{
			Mode:  frame.Rows,
			Start: frame.Bound{Type: frame.Preceding, Offset: 100},
			End:   frame.Bound{Type: frame.Following, Offset: 100},
		},
		FrameSet: true,
		Funcs:    []FuncSpec{*f},
	}
	if err := w.validate(tab); err != nil {
		t.Fatal(err)
	}
	sortIdx := preprocess.SortIndices(n, windowComparator(tab, w))
	parts := splitPartitions(tab, w, sortIdx)
	p := parts[0]
	fc, err := p.frameComputer(p.w.effectiveFrame(&p.w.Funcs[0]))
	if err != nil {
		t.Fatal(err)
	}
	var opt Options
	fl := newFiltered(p, &p.w.Funcs[0], f.Arg)
	prev, next := buildDistinctInputs(fl, &p.w.Funcs[0], opt)
	tree, err := mst.Build(prev, opt.Tree)
	if err != nil {
		t.Fatal(err)
	}
	out := newOutBuilder(f.Output, Int64, n)
	agg := &batchAgg{}
	allocs := testing.AllocsPerRun(50, func() {
		distinctCountChunk(p, fl, fc, tree, prev, next, out, agg, 0, n)
	})
	bound := maxChunkAllocs
	if raceEnabled {
		bound = maxChunkAllocsRace
	}
	if allocs > float64(bound) {
		t.Fatalf("warm %d-row probe chunk allocates %.1f objects with tracing disabled, want <= %d", n, allocs, bound)
	}
}

// maxChunkAllocs bounds one warm probe chunk's allocations: every scratch
// buffer comes from and returns to the arena pools, whose Put stores the
// buffer's data pointer without boxing, so a warm chunk allocates nothing.
// Under the race detector sync.Pool drops a random share of Puts, so any of
// the chunk's few pooled buffers may be made fresh; maxChunkAllocsRace
// still fails on a per-row allocation, which would cost thousands here.
const (
	maxChunkAllocs     = 0
	maxChunkAllocsRace = 8
)
