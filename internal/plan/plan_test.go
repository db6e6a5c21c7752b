package plan_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"holistic/internal/core"
	"holistic/internal/frame"
	"holistic/internal/plan"
)

// randTable builds a table with every column kind, NULLs included.
func randTable(rng *rand.Rand, n int) *core.Table {
	ints := make([]int64, n)
	intNulls := make([]bool, n)
	dates := make([]int64, n)
	dateNulls := make([]bool, n)
	groups := make([]int64, n)
	floats := make([]float64, n)
	floatNulls := make([]bool, n)
	strs := make([]string, n)
	strNulls := make([]bool, n)
	filt := make([]bool, n)
	for i := 0; i < n; i++ {
		ints[i] = rng.Int63n(12)
		intNulls[i] = rng.Intn(10) == 0
		dates[i] = rng.Int63n(40)
		dateNulls[i] = rng.Intn(15) == 0
		groups[i] = rng.Int63n(3)
		floats[i] = float64(rng.Intn(50)) / 2
		floatNulls[i] = rng.Intn(10) == 0
		strs[i] = string(rune('a' + rng.Intn(6)))
		strNulls[i] = rng.Intn(12) == 0
		filt[i] = rng.Intn(4) != 0
	}
	return core.MustNewTable(
		core.NewInt64Column("g", groups, nil),
		core.NewInt64Column("d", dates, dateNulls),
		core.NewInt64Column("v", ints, intNulls),
		core.NewFloat64Column("fv", floats, floatNulls),
		core.NewStringColumn("s", strs, strNulls),
		core.NewBoolColumn("flt", filt, nil),
	)
}

// trialWindow is one window shape a trial assigns functions to.
type trialWindow struct {
	partitionBy []string
	orderBy     []core.SortKey
	// singleIntKey marks windows whose order is exactly one INT64 key, the
	// only shape RANGE frames with offsets (and SQL's default frame) accept.
	singleIntKey bool
}

// randValidFrame draws a frame the window shape accepts: nil (SQL default)
// only for single-INT64-key orders, RANGE offsets likewise, ROWS and GROUPS
// anywhere an ORDER BY exists.
func randValidFrame(rng *rand.Rand, w trialWindow) *frame.Spec {
	if len(w.orderBy) == 0 {
		return nil // whole partition
	}
	bound := func(start bool) frame.Bound {
		switch rng.Intn(6) {
		case 0:
			if start {
				return frame.Bound{Type: frame.UnboundedPreceding}
			}
			return frame.Bound{Type: frame.UnboundedFollowing}
		case 1, 2:
			return frame.Bound{Type: frame.Preceding, Offset: int64(rng.Intn(6))}
		case 3:
			return frame.Bound{Type: frame.CurrentRow}
		default:
			return frame.Bound{Type: frame.Following, Offset: int64(rng.Intn(6))}
		}
	}
	modes := []frame.Mode{frame.Rows, frame.Groups}
	if w.singleIntKey {
		if rng.Intn(4) == 0 {
			return nil // SQL default: RANGE unbounded preceding .. current row
		}
		modes = append(modes, frame.Range)
	}
	fs := frame.Spec{
		Mode:    modes[rng.Intn(len(modes))],
		Start:   bound(true),
		End:     bound(false),
		Exclude: frame.Exclusion(rng.Intn(4)),
	}
	return &fs
}

// allFuncs is one spec per supported function with randomized knobs, outputs
// left for the caller to assign.
func allFuncs(rng *rand.Rand) []core.FuncSpec {
	ordV := []core.SortKey{{Column: "v"}}
	ordVDesc := []core.SortKey{{Column: "v", Desc: true}}
	ordFV := []core.SortKey{{Column: "fv"}}
	ordDV := []core.SortKey{{Column: "d"}, {Column: "v", Desc: true}}
	pick := func(opts ...[]core.SortKey) []core.SortKey { return opts[rng.Intn(len(opts))] }
	maybeFilter := func() string {
		if rng.Intn(3) == 0 {
			return "flt"
		}
		return ""
	}
	ignoreNulls := rng.Intn(3) == 0
	return []core.FuncSpec{
		{Name: core.CountStar, Filter: maybeFilter()},
		{Name: core.Count, Arg: "v", Filter: maybeFilter()},
		{Name: core.Sum, Arg: "v", Filter: maybeFilter()},
		{Name: core.Sum, Arg: "fv"},
		{Name: core.Avg, Arg: "fv", Filter: maybeFilter()},
		{Name: core.Min, Arg: "s"},
		{Name: core.Min, Arg: "fv"},
		{Name: core.Max, Arg: "v", Filter: maybeFilter()},
		{Name: core.CountDistinct, Arg: "v", Filter: maybeFilter()},
		{Name: core.CountDistinct, Arg: "s"},
		{Name: core.SumDistinct, Arg: "v"},
		{Name: core.SumDistinct, Arg: "fv", Filter: maybeFilter()},
		{Name: core.AvgDistinct, Arg: "v"},
		{Name: core.Rank, OrderBy: pick(ordV, ordVDesc, ordDV)},
		{Name: core.DenseRank, OrderBy: pick(ordV, ordVDesc), Filter: maybeFilter()},
		{Name: core.PercentRank, OrderBy: pick(ordV, ordVDesc)},
		{Name: core.RowNumber, OrderBy: pick(ordV, ordDV), Filter: maybeFilter()},
		{Name: core.CumeDist, OrderBy: pick(ordV, ordVDesc)},
		{Name: core.Ntile, N: int64(1 + rng.Intn(4)), OrderBy: ordV},
		{Name: core.PercentileDisc, Fraction: float64(rng.Intn(101)) / 100, OrderBy: pick(ordV, ordFV), Filter: maybeFilter()},
		{Name: core.PercentileCont, Fraction: float64(rng.Intn(101)) / 100, OrderBy: ordFV},
		{Name: core.NthValue, Arg: "s", N: int64(1 + rng.Intn(3)), OrderBy: pick(ordV, ordVDesc), IgnoreNulls: ignoreNulls},
		{Name: core.FirstValue, Arg: "v", OrderBy: pick(ordV, ordDV), Filter: maybeFilter(), IgnoreNulls: ignoreNulls},
		{Name: core.LastValue, Arg: "fv", OrderBy: ordV},
		{Name: core.Lead, Arg: "v", N: int64(rng.Intn(3)), OrderBy: pick(ordV, ordVDesc), IgnoreNulls: ignoreNulls},
		{Name: core.Lag, Arg: "s", N: int64(rng.Intn(2)), OrderBy: ordV, Filter: maybeFilter()},
	}
}

// assertColumnsIdentical compares two result columns exactly — float values
// by bit pattern, not tolerance, since the shared and unshared plans must
// execute the same arithmetic in the same order.
func assertColumnsIdentical(t *testing.T, label string, shared, unshared *core.Column) {
	t.Helper()
	if shared == nil || unshared == nil {
		t.Fatalf("%s: missing column (shared=%v unshared=%v)", label, shared != nil, unshared != nil)
	}
	if shared.Len() != unshared.Len() || shared.Kind() != unshared.Kind() {
		t.Fatalf("%s: shape mismatch: len %d/%d kind %v/%v",
			label, shared.Len(), unshared.Len(), shared.Kind(), unshared.Kind())
	}
	for i := 0; i < shared.Len(); i++ {
		if shared.IsNull(i) != unshared.IsNull(i) {
			t.Fatalf("%s row %d: null mismatch: shared=%v unshared=%v",
				label, i, shared.IsNull(i), unshared.IsNull(i))
		}
		if shared.IsNull(i) {
			continue
		}
		switch shared.Kind() {
		case core.Int64:
			if shared.Int64(i) != unshared.Int64(i) {
				t.Fatalf("%s row %d: %d != %d", label, i, shared.Int64(i), unshared.Int64(i))
			}
		case core.Float64:
			if math.Float64bits(shared.Float64(i)) != math.Float64bits(unshared.Float64(i)) {
				t.Fatalf("%s row %d: %v != %v (bitwise)", label, i, shared.Float64(i), unshared.Float64(i))
			}
		case core.String:
			if shared.StringAt(i) != unshared.StringAt(i) {
				t.Fatalf("%s row %d: %q != %q", label, i, shared.StringAt(i), unshared.StringAt(i))
			}
		case core.Bool:
			if shared.Bool(i) != unshared.Bool(i) {
				t.Fatalf("%s row %d: %v != %v", label, i, shared.Bool(i), unshared.Bool(i))
			}
		}
	}
}

// TestSharedPlanEquivalenceRandomized is the shared-plan equivalence
// harness: random tables, random window shapes (equal windows under
// different frames, prefix-compatible orders, reordered partition listings,
// unpartitioned windows) with every supported function distributed across
// them. Shared execution must return byte-identical columns to one
// independent core.Run per deduplicated window, with no cache — any
// divergence means the optimizer shared something order-sensitive or
// crossed a cache key.
func TestSharedPlanEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	trials := 14
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		n := []int{0, 1, 3, 17, 60, 220, 700}[trial%7]
		tab := randTable(rng, n)

		part := [][]string{nil, {"g"}}[rng.Intn(2)]
		wins := []trialWindow{
			{partitionBy: part, orderBy: []core.SortKey{{Column: "d"}}, singleIntKey: true},
			{partitionBy: part, orderBy: []core.SortKey{{Column: "d"}, {Column: "v", Desc: true}}},
			{partitionBy: part, orderBy: []core.SortKey{{Column: "d"}}, singleIntKey: true},
			{partitionBy: part, orderBy: nil},
			{partitionBy: part, orderBy: []core.SortKey{{Column: "v"}}, singleIntKey: true},
		}

		items := []plan.Item{
			{Name: "g", SrcColumn: "g"},
			{Name: "d", SrcColumn: "d"},
		}
		for fi, f := range allFuncs(rng) {
			w := wins[rng.Intn(len(wins))]
			f.Output = fmt.Sprintf("o%d", fi)
			f.Frame = randValidFrame(rng, w)
			items = append(items, plan.Item{
				Name:        f.Output,
				PartitionBy: w.partitionBy,
				OrderBy:     w.orderBy,
				Func:        &f,
			})
		}

		stmt := &plan.Statement{Table: "t", Items: items}
		p, err := plan.Build(stmt, plan.TableKinds(tab))
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		shared, _, err := p.Execute(tab, core.Options{TaskSize: 16})
		if err != nil {
			t.Fatalf("trial %d: shared: %v", trial, err)
		}
		unshared, err := runPerWindow(tab, items, core.Options{TaskSize: 16})
		if err != nil {
			t.Fatalf("trial %d: per-window: %v", trial, err)
		}
		for _, item := range items {
			label := fmt.Sprintf("trial %d n=%d %s", trial, n, item.Name)
			if item.Func != nil {
				label += fmt.Sprintf(" (%v over p=%v o=%v)", item.Func.Name, item.PartitionBy, item.OrderBy)
			}
			assertColumnsIdentical(t, label, shared.Column(item.Name), unshared[item.Name])
		}
	}
}

// runPerWindow evaluates a statement's items without the planner: one
// core.Run per distinct (PARTITION BY, ORDER BY) window, carrying every
// function over that window. Source-column items map to the table's column.
func runPerWindow(tab *core.Table, items []plan.Item, opt core.Options) (map[string]*core.Column, error) {
	var order []string
	windows := map[string]*core.WindowSpec{}
	out := map[string]*core.Column{}
	for _, item := range items {
		if item.Func == nil {
			out[item.Name] = tab.Column(item.SrcColumn)
			continue
		}
		key := fmt.Sprintf("%q|%v", item.PartitionBy, item.OrderBy)
		w, ok := windows[key]
		if !ok {
			w = &core.WindowSpec{PartitionBy: item.PartitionBy, OrderBy: item.OrderBy}
			windows[key] = w
			order = append(order, key)
		}
		w.Funcs = append(w.Funcs, *item.Func)
	}
	for _, key := range order {
		w := windows[key]
		res, err := core.Run(tab, w, opt)
		if err != nil {
			return nil, err
		}
		for _, f := range w.Funcs {
			out[f.Output] = res.Column(f.Output)
		}
	}
	return out, nil
}

// pinnedStatement is the fixed statement of the stats/DAG pin tests: one
// partition set, a two-key window, a compatible one-key prefix window used
// by two deduplicated frame variants, and a repeated distinct-count
// structure shared across windows.
func pinnedStatement() *plan.Statement {
	groupsFrame := func(before, after int64) *frame.Spec {
		return &frame.Spec{
			Mode:  frame.Groups,
			Start: frame.Bound{Type: frame.Preceding, Offset: before},
			End:   frame.Bound{Type: frame.Following, Offset: after},
		}
	}
	return &plan.Statement{Table: "t", Items: []plan.Item{
		{Name: "g", SrcColumn: "g"},
		{
			Name:        "total",
			PartitionBy: []string{"g"},
			OrderBy:     []core.SortKey{{Column: "d"}, {Column: "v"}},
			Func:        &core.FuncSpec{Name: core.CountStar, Output: "total", Frame: groupsFrame(2, 0)},
		},
		{
			Name:        "cd1",
			PartitionBy: []string{"g"},
			OrderBy:     []core.SortKey{{Column: "d"}, {Column: "v"}},
			Func:        &core.FuncSpec{Name: core.CountDistinct, Output: "cd1", Arg: "v", Frame: groupsFrame(3, 3)},
		},
		{
			Name:        "cd2",
			PartitionBy: []string{"g"},
			OrderBy:     []core.SortKey{{Column: "d"}},
			Func:        &core.FuncSpec{Name: core.CountDistinct, Output: "cd2", Arg: "v", Frame: groupsFrame(1, 1)},
		},
		{
			Name:        "cnt2",
			PartitionBy: []string{"g"},
			OrderBy:     []core.SortKey{{Column: "d"}},
			Func:        &core.FuncSpec{Name: core.CountStar, Output: "cnt2", Frame: groupsFrame(0, 2)},
		},
	}}
}

// TestPlanStatsPinned pins the dedup counters of the pinned statement: the
// one-key windows join the two-key sort (one sort shared), and the second
// distinct-count reuses the first one's preprocessing and tree.
func TestPlanStatsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := randTable(rng, 50)
	p, err := plan.Build(pinnedStatement(), plan.TableKinds(tab))
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Stats{Operators: 8, SortsShared: 1, TreesShared: 1, PreprocessShared: 2}
	if p.Stats != want {
		t.Fatalf("stats = %+v, want %+v", p.Stats, want)
	}

	// Executing the plan advances the process counters by exactly the plan's
	// stats.
	before := plan.Snapshot()
	if _, _, err := p.Execute(tab, core.Options{}); err != nil {
		t.Fatal(err)
	}
	after := plan.Snapshot()
	if after.Queries != before.Queries+1 ||
		after.SharedSorts != before.SharedSorts+1 ||
		after.SharedTrees != before.SharedTrees+1 ||
		after.SharedPreprocess != before.SharedPreprocess+2 {
		t.Fatalf("counters %+v -> %+v, want +{1 1 1 2}", before, after)
	}
}

// TestPlanDAGGolden pins the DAG rendering of the pinned statement: node
// identities, execution order, inputs and shared-by annotations.
func TestPlanDAGGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tab := randTable(rng, 20)
	p, err := plan.Build(pinnedStatement(), plan.TableKinds(tab))
	if err != nil {
		t.Fatal(err)
	}
	want := `[sort0] sort: parallel sort by partition (g), order (d, v)  [shared by total, cd1, cd2, cnt2]
  [part0] partitions: partition boundaries  <- sort0  [shared by total, cd1, cd2, cnt2]
    [probe_total] probe: count(*) → total: groups 2 preceding .. 0 following  <- part0
  [pre0_0] preprocess: prevIdcs occurrence links (Alg. 1) over v  <- part0  [shared by cd1, cd2]
  [tree0_0] tree: merge sort tree over prevIdcs(v)  <- pre0_0  [shared by cd1, cd2]
    [probe_cd1] probe: count(distinct) → cd1: groups 3 preceding .. 3 following  <- tree0_0
    [probe_cd2] probe: count(distinct) → cd2: groups 1 preceding .. 1 following  <- tree0_0
    [probe_cnt2] probe: count(*) → cnt2: groups 0 preceding .. 2 following  <- part0
`
	if got := plan.RenderText(p.Nodes); got != want {
		t.Fatalf("DAG mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFloatSharingGate pins the soundness gate: a strict-prefix window
// carrying a float SUM must NOT join the longer sort (float accumulation
// order is tree-shaped), while the same window with an INT64 SUM must.
func TestFloatSharingGate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tab := randTable(rng, 30)
	build := func(arg string) plan.Stats {
		stmt := &plan.Statement{Table: "t", Items: []plan.Item{
			{
				Name:        "r",
				PartitionBy: []string{"g"},
				OrderBy:     []core.SortKey{{Column: "d"}, {Column: "v"}},
				Func: &core.FuncSpec{Name: core.Rank, Output: "r",
					OrderBy: []core.SortKey{{Column: "v"}},
					Frame:   &frame.Spec{Mode: frame.Groups, Start: frame.Bound{Type: frame.UnboundedPreceding}, End: frame.Bound{Type: frame.CurrentRow}}},
			},
			{
				Name:        "s",
				PartitionBy: []string{"g"},
				OrderBy:     []core.SortKey{{Column: "d"}},
				Func:        &core.FuncSpec{Name: core.Sum, Output: "s", Arg: arg},
			},
		}}
		p, err := plan.Build(stmt, plan.TableKinds(tab))
		if err != nil {
			t.Fatal(err)
		}
		return p.Stats
	}
	if st := build("v"); st.SortsShared != 1 {
		t.Fatalf("int64 sum: SortsShared = %d, want 1 (%+v)", st.SortsShared, st)
	}
	if st := build("fv"); st.SortsShared != 0 {
		t.Fatalf("float sum: SortsShared = %d, want 0 (%+v)", st.SortsShared, st)
	}
}
