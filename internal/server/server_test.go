package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"holistic/internal/server/api"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

const smallCSV = `d,g,v
2024-01-01,a,10
2024-01-02,a,20
2024-01-03,b,30
2024-01-04,b,40
2024-01-05,a,50
`

// newTestServer starts an httptest server around a fresh Server and returns
// the shared-encoding client pointed at it.
func newTestServer(t *testing.T, cfg Config) (*Server, *api.Client) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = discardLogger()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, &api.Client{BaseURL: ts.URL}
}

func mustUpload(t *testing.T, c *api.Client, name, csvData string) *api.DatasetInfo {
	t.Helper()
	info, err := c.UploadCSV(context.Background(), name, []byte(csvData))
	if err != nil {
		t.Fatalf("upload %s: %v", name, err)
	}
	return info
}

func TestQueryEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	info := mustUpload(t, c, "t", smallCSV)
	if info.Version != 1 || info.Rows != 5 {
		t.Fatalf("bad dataset info: %+v", info)
	}

	resp, err := c.Query(ctx, api.QueryRequest{SQL: `
		select d, percentile_disc(0.5 order by v)
		       over (order by d rows between 2 preceding and current row) as med
		from t`})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Columns) != 2 || resp.Columns[1] != "med" {
		t.Fatalf("bad columns: %v", resp.Columns)
	}
	// PERCENTILE_DISC(0.5) = first value with cumulative distribution >= 0.5
	// over [10] [10,20] [10,20,30] [20,30,40] [30,40,50].
	wantMed := []string{"10", "10", "20", "30", "40"}
	for i, want := range wantMed {
		if got := resp.Rows[i][1]; got != want {
			t.Fatalf("row %d: med=%q, want %q", i, got, want)
		}
		if got := resp.Rows[i][0]; got != fmt.Sprintf("2024-01-0%d", i+1) {
			t.Fatalf("row %d: date column rendered as %q", i, got)
		}
	}

	plan, err := c.Explain(ctx, `select rank(order by v) over (order by d) from t`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ToLower(plan), "rank") {
		t.Fatalf("plan does not mention the function: %q", plan)
	}

	list, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "t" {
		t.Fatalf("bad dataset list: %+v", list)
	}
}

func TestQueryErrors(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	mustUpload(t, c, "t", smallCSV)
	cases := []string{
		`select rank(order by v) over (order by d) from nosuch`,
		`select rank(order by nope) over (order by d) from t`,
		`this is not sql`,
	}
	for _, q := range cases {
		if _, err := c.Query(ctx, api.QueryRequest{SQL: q}); err == nil {
			t.Fatalf("query %q succeeded, want error", q)
		}
	}
}

// bigCSV generates n rows of (g, v) with a deterministic shuffle.
func bigCSV(n int) string {
	rng := rand.New(rand.NewSource(17))
	var b strings.Builder
	b.WriteString("g,v\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i%7, rng.Intn(n))
	}
	return b.String()
}

// TestConcurrentIdenticalQueriesSingleBuild fires N identical queries at
// once and checks the cache built each structure exactly once: the miss
// count equals that of a single cold run of the same query (measured
// against a second dataset with identical content).
func TestConcurrentIdenticalQueriesSingleBuild(t *testing.T) {
	s, c := newTestServer(t, Config{MaxConcurrent: 16, TaskSize: 512})
	ctx := context.Background()
	csvData := bigCSV(20_000)
	mustUpload(t, c, "a", csvData)
	mustUpload(t, c, "b", csvData)

	query := func(ds string) string {
		return fmt.Sprintf(`
			select count(distinct v) over (order by v rows between 1000 preceding and current row) as cd,
			       rank(order by v) over (order by v) as r
			from %s`, ds)
	}

	// Baseline: one cold query against dataset "b" builds every structure.
	before := s.CacheStats()
	if _, err := c.Query(ctx, api.QueryRequest{SQL: query("b")}); err != nil {
		t.Fatal(err)
	}
	coldBuilds := s.CacheStats().Misses - before.Misses
	if coldBuilds == 0 {
		t.Fatal("cold query built nothing")
	}

	// The batch: N identical queries against "a" concurrently.
	const N = 8
	before = s.CacheStats()
	var wg sync.WaitGroup
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Query(ctx, api.QueryRequest{SQL: query("a")})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent query %d: %v", i, err)
		}
	}
	after := s.CacheStats()
	batchBuilds := after.Misses - before.Misses
	if batchBuilds != coldBuilds {
		t.Fatalf("%d concurrent identical queries built %d structures, want %d (one build per structure)",
			N, batchBuilds, coldBuilds)
	}
	if reuse := (after.Hits - before.Hits) + (after.Joins - before.Joins); reuse == 0 {
		t.Fatal("concurrent batch shows no cache reuse at all")
	}
}

// TestReloadInvalidatesCache reloads a dataset and checks the new version
// is queried (fresh results) and the old version's entries are dropped.
func TestReloadInvalidatesCache(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	mustUpload(t, c, "t", "v\n1\n2\n3\n")
	sql := `select max(v) over (order by v rows between unbounded preceding and unbounded following) as m from t`

	r1, err := c.Query(ctx, api.QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0] != "3" {
		t.Fatalf("got %q, want 3", r1.Rows[0][0])
	}

	info := mustUpload(t, c, "t", "v\n5\n6\n7\n8\n")
	if info.Version != 2 {
		t.Fatalf("reload kept version %d", info.Version)
	}
	r2, err := c.Query(ctx, api.QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Rows[0][0] != "8" {
		t.Fatalf("after reload got %q, want 8 (stale data served?)", r2.Rows[0][0])
	}
	if inv := s.CacheStats().Invalidations; inv == 0 {
		t.Fatal("reload invalidated no cache entries")
	}
}

// TestStatuszReflectsCache checks the text metrics page carries the cache
// counters and per-endpoint latency histograms.
func TestStatuszReflectsCache(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	mustUpload(t, c, "t", smallCSV)
	sql := `select rank(order by v) over (order by d) as r from t`
	for i := 0; i < 2; i++ {
		if _, err := c.Query(ctx, api.QueryRequest{SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	page, err := c.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Hits == 0 {
		t.Fatal("second identical query produced no cache hits")
	}
	for _, want := range []string{
		fmt.Sprintf("hits=%d", st.Hits),
		fmt.Sprintf("misses=%d", st.Misses),
		"endpoint POST /v1/query:",
		"dataset t: version=1",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("statusz missing %q:\n%s", want, page)
		}
	}
}

// TestTimeoutFreesAdmissionSlot runs a deliberately slow query with a 1ms
// deadline on a single-slot server: the query must fail promptly with a
// deadline error, and the slot must be free for the next query.
func TestTimeoutFreesAdmissionSlot(t *testing.T) {
	_, c := newTestServer(t, Config{MaxConcurrent: 1, TaskSize: 64})
	ctx := context.Background()
	mustUpload(t, c, "big", bigCSV(150_000))

	slow := `select count(distinct v) over (order by v rows between 100000 preceding and current row) as cd from big`
	start := time.Now()
	_, err := c.Query(ctx, api.QueryRequest{SQL: slow, TimeoutMillis: 1})
	if err == nil {
		t.Fatal("1ms query succeeded; dataset too small to exercise the timeout")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("got %v, want a deadline error", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("cancelled query took %v to return", took)
	}

	// The slot must be free: a small follow-up query succeeds quickly.
	mustUpload(t, c, "small", smallCSV)
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, api.QueryRequest{SQL: `select rank(order by v) over (order by d) as r from small`})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("follow-up query: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("follow-up query hung: admission slot not released")
	}
}

// TestHealthz checks the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, c := newTestServer(t, Config{})
	resp, err := http.Get(c.BaseURL + api.PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}
