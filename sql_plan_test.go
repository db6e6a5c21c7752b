package holistic

import (
	"strings"
	"testing"
)

func planTestTable() *Table {
	return MustNewTable(
		NewInt64Column("g", []int64{1, 2, 1, 2, 1, 2, 1, 2}, nil),
		NewInt64Column("d", []int64{3, 1, 4, 1, 5, 9, 2, 6}, nil),
		NewInt64Column("v", []int64{2, 7, 1, 8, 2, 8, 1, 8}, nil),
	)
}

const planTestSQL = `
	select count(distinct v) over w as cd,
	       count(distinct v) over (partition by g order by d groups 2 preceding) as cd2,
	       rank(order by v) over w as r,
	       sum(v) over (partition by g) as s
	from t
	window w as (partition by g order by d)`

func TestPlanSQLStructured(t *testing.T) {
	tables := map[string]*Table{"t": planTestTable()}
	sp, err := PlanSQL(planTestSQL, tables)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Stats.Operators != len(sp.Nodes) || len(sp.Nodes) == 0 {
		t.Fatalf("operators = %d, nodes = %d", sp.Stats.Operators, len(sp.Nodes))
	}
	// One sort serves all four functions: w and its frame variant merge into
	// one window (dedup, not counted as sharing), the unordered SUM window
	// (INT64 argument) joins the shared sort, and the two distinct counts
	// share one tree.
	if sp.Stats.SortsShared != 1 || sp.Stats.TreesShared != 1 {
		t.Fatalf("stats = %+v, want 1 sort and 1 tree shared", sp.Stats)
	}
	text := RenderPlan(sp.Nodes)
	if !strings.Contains(text, "[shared by cd, cd2") {
		t.Fatalf("rendering lacks shared-by annotation:\n%s", text)
	}

	// Without the FROM table the planner cannot see that v is INT64, so the
	// float-sensitive SUM must stay on its own sort.
	conservative, err := PlanSQL(planTestSQL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if conservative.Stats.SortsShared != 0 {
		t.Fatalf("kind-blind stats = %+v, want 0 sorts shared", conservative.Stats)
	}
}

// TestWithoutSharedPlanEquivalence checks shared-plan SQL execution against
// the statement evaluated without the planner: one RunWith per deduplicated
// window, each sorting and building its structures on its own.
func TestWithoutSharedPlanEquivalence(t *testing.T) {
	tab := planTestTable()
	shared, err := RunSQL(planTestSQL, map[string]*Table{"t": tab})
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := RunWith(tab, Over().PartitionBy("g").OrderBy(Asc("d")), []*Func{
		CountDistinct("v").As("cd"),
		CountDistinct("v").WithFrame(Groups(Preceding(2), CurrentRow())).As("cd2"),
		Rank(Asc("v")).As("r"),
	})
	if err != nil {
		t.Fatal(err)
	}
	unordered, err := RunWith(tab, Over().PartitionBy("g"), []*Func{Sum("v").As("s")})
	if err != nil {
		t.Fatal(err)
	}
	unshared := map[string]*Column{
		"cd":  ordered.Column("cd"),
		"cd2": ordered.Column("cd2"),
		"r":   ordered.Column("r"),
		"s":   unordered.Column("s"),
	}
	for _, col := range shared.Columns() {
		other := unshared[col.Name()]
		if other == nil {
			t.Fatalf("column %s missing from the per-window runs", col.Name())
		}
		for i := 0; i < col.Len(); i++ {
			if col.IsNull(i) != other.IsNull(i) || (!col.IsNull(i) && col.Int64(i) != other.Int64(i)) {
				t.Fatalf("%s row %d: shared/unshared divergence", col.Name(), i)
			}
		}
	}
}
