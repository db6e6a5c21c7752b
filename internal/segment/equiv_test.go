package segment

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"holistic"
	"holistic/internal/csvio"
	"holistic/internal/treecache"
)

// equivalenceQueries covers all 22 window functions of the engine (plus
// the count(*) / count(distinct) / sum(distinct) / avg(distinct) variants)
// across framed, running and unbounded windows.
var equivalenceQueries = []string{
	`select count(*) over w as c1, count(v) over w as c2,
	        count(distinct s) over w as c3,
	        sum(v) over w as s1, sum(distinct v) over w as s2,
	        avg(v) over w as a1, avg(distinct v) over w as a2,
	        min(v) over w as mn, max(v) over w as mx
	 from t window w as (partition by g order by d, v
	                     rows between 3 preceding and 2 following)`,
	`select rank(order by v) over w as r1,
	        dense_rank(order by v) over w as r2,
	        percent_rank(order by v) over w as r3,
	        row_number(order by v) over w as r4,
	        cume_dist(order by v) over w as r5,
	        ntile(3 order by v) over w as r6
	 from t window w as (partition by g order by d, v
	                     rows between 7 preceding and current row)`,
	`select percentile_disc(0.25 order by v) over w as p1,
	        percentile_cont(0.75 order by v) over w as p2,
	        median(order by v) over w as p3,
	        nth_value(s, 2 order by v) over w as n1,
	        first_value(s order by v) over w as n2,
	        last_value(s order by v) over w as n3
	 from t window w as (partition by g order by d, v
	                     rows between unbounded preceding and current row)`,
	`select lead(v, 2 order by v) over w as l1,
	        lag(s order by v) over w as l2,
	        sum(f) over w as sf, count(f) over w as cf
	 from t window w as (partition by g order by d
	                     range between 5 preceding and 5 following)`,
}

// TestSegmentedEquivalence is the acceptance harness: a randomized dataset
// written as >= 4 on-disk segments and evaluated through the column cache
// must return byte-identical results to the all-in-RAM path for every
// window function.
func TestSegmentedEquivalence(t *testing.T) {
	ram := testFile(22, 403)
	dir := t.TempDir()
	ids := writeSegments(t, dir, ram, []int{80, 160, 275}, 64)
	if len(ids) < 4 {
		t.Fatalf("only %d segments", len(ids))
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cache := treecache.New(32 << 20)
	segFile, err := d.File(cache)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderCSV(t, segFile), renderCSV(t, ram)) {
		t.Fatal("materialized dataset differs from source")
	}
	for qi, q := range equivalenceQueries {
		ramOut, err := holistic.RunSQL(q, map[string]*holistic.Table{"t": ram.Table})
		if err != nil {
			t.Fatalf("query %d in-RAM: %v", qi, err)
		}
		segOut, err := holistic.RunSQLOptions(q, map[string]*holistic.Table{"t": segFile.Table}, holistic.Options{
			Cache:      cache,
			CacheScope: "t@" + d.Version(),
		})
		if err != nil {
			t.Fatalf("query %d segmented: %v", qi, err)
		}
		var ramCSV, segCSV bytes.Buffer
		if err := csvio.Write(&ramCSV, ramOut, nil); err != nil {
			t.Fatal(err)
		}
		if err := csvio.Write(&segCSV, segOut, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ramCSV.Bytes(), segCSV.Bytes()) {
			t.Errorf("query %d: segmented result differs from in-RAM result: %s", qi, firstDiff(ramCSV.String(), segCSV.String()))
		}
	}
}

// firstDiff locates the first differing line of two renderings.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %q != %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("row count %d != %d", len(la), len(lb))
}
