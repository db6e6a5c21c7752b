package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"holistic/internal/obs"
	"holistic/internal/server/api"
)

// scrapeMetrics fetches and parses the /v1/metrics exposition.
func scrapeMetrics(t *testing.T, c *api.Client) *obs.ParsedMetrics {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("scrape metrics: %v", err)
	}
	p, err := obs.ParseText(text)
	if err != nil {
		t.Fatalf("metrics do not parse as Prometheus text exposition: %v\n%s", err, text)
	}
	return p
}

// TestErrorEnvelope checks every failure shape carries the JSON envelope
// with the right machine code — handler errors and the mux's own 404/405.
func TestErrorEnvelope(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	mustUpload(t, c, "t", smallCSV)

	wantCode := func(err error, status int, code api.ErrorCode) {
		t.Helper()
		var ae *api.Error
		if !asAPIError(err, &ae) {
			t.Fatalf("got %T (%v), want *api.Error", err, err)
		}
		if ae.Status != status || ae.Code != code {
			t.Fatalf("got status=%d code=%q, want %d %q", ae.Status, ae.Code, status, code)
		}
	}

	_, err := c.Query(ctx, api.QueryRequest{SQL: `select rank(order by v) over (order by d) from nosuch`})
	wantCode(err, http.StatusNotFound, api.CodeNotFound)

	_, err = c.Query(ctx, api.QueryRequest{SQL: `this is not sql`})
	wantCode(err, http.StatusBadRequest, api.CodeInvalidArgument)

	// Unknown route: the mux's 404 must come back as the envelope too.
	for _, path := range []string{"/nosuch", "/v1/nosuch"} {
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		env := decodeEnvelope(t, resp)
		if resp.StatusCode != http.StatusNotFound || env.Error.Code != api.CodeNotFound {
			t.Fatalf("GET %s: status=%d code=%q, want 404 %q", path, resp.StatusCode, env.Error.Code, api.CodeNotFound)
		}
	}

	// Wrong method on a known route: 405 envelope plus an Allow header.
	resp, err := http.Get(c.BaseURL + api.PathQuery)
	if err != nil {
		t.Fatal(err)
	}
	env := decodeEnvelope(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed || env.Error.Code != api.CodeMethodNotAllowed {
		t.Fatalf("GET /v1/query: status=%d code=%q, want 405 %q", resp.StatusCode, env.Error.Code, api.CodeMethodNotAllowed)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, http.MethodPost) {
		t.Fatalf("405 Allow header %q does not offer POST", allow)
	}
}

func asAPIError(err error, out **api.Error) bool {
	ae, ok := err.(*api.Error)
	if ok {
		*out = ae
	}
	return ok
}

func decodeEnvelope(t *testing.T, resp *http.Response) api.ErrorResponse {
	t.Helper()
	defer resp.Body.Close()
	var env api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("non-2xx body is not the error envelope: %v", err)
	}
	return env
}

// TestLegacyAliases checks the pre-versioning unversioned paths are gone:
// POST /query answers the 404 error envelope, like any unknown route.
func TestLegacyAliases(t *testing.T) {
	_, c := newTestServer(t, Config{})
	mustUpload(t, c, "t", smallCSV)

	body := `{"sql":"select rank(order by v) over (order by d) as r from t"}`
	resp, err := http.Post(c.BaseURL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	env := decodeEnvelope(t, resp)
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != api.CodeNotFound {
		t.Fatalf("POST /query: status=%d code=%q, want 404 %q", resp.StatusCode, env.Error.Code, api.CodeNotFound)
	}
}

// TestMetricsExposition runs queries and checks the scrape parses and
// carries the core series with sane values: request and eval histograms,
// cache events, pool counters, rows returned.
func TestMetricsExposition(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	mustUpload(t, c, "t", smallCSV)
	sql := `select rank(order by v) over (order by d) as r from t`
	for i := 0; i < 3; i++ {
		if _, err := c.Query(ctx, api.QueryRequest{SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}

	p := scrapeMetrics(t, c)
	if v, ok := p.Value("windowd_requests_total", "route=POST /v1/query", "code=200"); !ok || v < 3 {
		t.Fatalf("requests_total{POST /v1/query,200} = %v (%v), want >= 3", v, ok)
	}
	if v, ok := p.Value("windowd_request_duration_seconds_count", "route=POST /v1/query"); !ok || v < 3 {
		t.Fatalf("request_duration_seconds_count = %v (%v), want >= 3", v, ok)
	}
	// Only the first run evaluates: repeats of an identical query scatter
	// the partition's cached result vector without probing at all.
	if v, ok := p.Value("windowd_eval_duration_seconds_count", "function=rank", "engine=mst"); !ok || v < 1 {
		t.Fatalf("eval_duration_seconds_count{rank,mst} = %v (%v), want >= 1", v, ok)
	}
	if v, ok := p.Value("windowd_cache_events_total", "event=hit"); !ok || v == 0 {
		t.Fatalf("cache_events_total{hit} = %v (%v), want > 0 after repeated query", v, ok)
	}
	if v, ok := p.Value("windowd_cache_events_total", "event=miss"); !ok || v == 0 {
		t.Fatalf("cache_events_total{miss} = %v (%v), want > 0 after cold query", v, ok)
	}
	if v, ok := p.Value("windowd_rows_returned_total"); !ok || v < 15 {
		t.Fatalf("rows_returned_total = %v (%v), want >= 15", v, ok)
	}
	if v, ok := p.Value("windowd_uptime_seconds"); !ok || v <= 0 {
		t.Fatalf("uptime_seconds = %v (%v), want > 0", v, ok)
	}
	if v, ok := p.Value("windowd_datasets"); !ok || v != 1 {
		t.Fatalf("datasets = %v (%v), want 1", v, ok)
	}
	// The query path draws scratch from the shared pools; at least one pool
	// must report gets.
	gets := 0.0
	for _, pool := range []string{"int32", "int64", "uint64", "float64"} {
		if v, ok := p.Value("windowd_pool_gets_total", "pool="+pool); ok {
			gets += v
		}
	}
	if gets == 0 {
		t.Fatal("no pool reported any gets after queries")
	}
}

// TestMetricsMonotonicUnderLoad interleaves concurrent queries with
// concurrent scrapes and checks the request counter never goes backwards
// and every scrape stays parseable.
func TestMetricsMonotonicUnderLoad(t *testing.T) {
	_, c := newTestServer(t, Config{MaxConcurrent: 8})
	ctx := context.Background()
	mustUpload(t, c, "t", smallCSV)
	sql := `select rank(order by v) over (order by d) as r from t`

	const rounds = 5
	last := -1.0
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Query(ctx, api.QueryRequest{SQL: sql}); err != nil {
					t.Errorf("query: %v", err)
				}
			}()
		}
		// Scrape concurrently with the queries: parseability under load.
		wg.Add(1)
		go func() {
			defer wg.Done()
			scrapeMetrics(t, c)
		}()
		wg.Wait()

		p := scrapeMetrics(t, c)
		v, ok := p.Value("windowd_requests_total", "route=POST /v1/query", "code=200")
		if !ok {
			t.Fatalf("round %d: requests_total series missing", round)
		}
		if v <= last {
			t.Fatalf("round %d: requests_total went %v -> %v, counter not monotonic", round, last, v)
		}
		last = v
	}
	if want := float64(rounds * 4); last != want {
		t.Fatalf("requests_total{POST /v1/query,200} = %v, want %v", last, want)
	}
}

// TestQueryTrace asks for the span tree over the wire and checks the phases
// documented in DESIGN.md §9 show up.
func TestQueryTrace(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	mustUpload(t, c, "t", smallCSV)

	resp, err := c.Query(ctx, api.QueryRequest{
		SQL:          `select count(distinct v) over (order by d rows between 2 preceding and current row) as cd from t`,
		IncludeTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"partition+order sort", "partition boundaries", "build merge sort tree", "probe"} {
		if !strings.Contains(resp.Trace, phase) {
			t.Fatalf("trace missing phase %q:\n%s", phase, resp.Trace)
		}
	}
	if strings.Contains(resp.Trace, "(unfinished)") {
		t.Fatalf("trace has unfinished spans:\n%s", resp.Trace)
	}

	// Without IncludeTrace the field stays empty (and costs no bytes).
	resp, err = c.Query(ctx, api.QueryRequest{SQL: `select rank(order by v) over (order by d) as r from t`})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != "" {
		t.Fatalf("unrequested trace present: %q", resp.Trace)
	}
}

// TestSlowQueryLog drives a query over a zero-ish threshold and checks the
// WARN line carries the span tree, and the slow-query counter moves.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	_, c := newTestServer(t, Config{SlowQuery: time.Nanosecond, Logger: logger})
	ctx := context.Background()
	mustUpload(t, c, "t", smallCSV)
	if _, err := c.Query(ctx, api.QueryRequest{SQL: `select rank(order by v) over (order by d) as r from t`}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "slow query") {
		t.Fatalf("no slow-query WARN with a %v threshold:\n%s", time.Nanosecond, logged)
	}
	if !strings.Contains(logged, "partition+order sort") {
		t.Fatalf("slow-query log misses the span tree:\n%s", logged)
	}

	p := scrapeMetrics(t, c)
	if v, ok := p.Value("windowd_slow_queries_total"); !ok || v == 0 {
		t.Fatalf("slow_queries_total = %v (%v), want > 0", v, ok)
	}
}

// lockedWriter serializes concurrent handler writes into one buffer.
type lockedWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(b)
}

// TestDeprecatedAliasMetricsRoute checks traffic to a removed unversioned
// path is counted as an unmatched 404, so stale clients stay observable
// without adding a route label per path.
func TestDeprecatedAliasMetricsRoute(t *testing.T) {
	_, c := newTestServer(t, Config{})
	mustUpload(t, c, "t", smallCSV)
	resp, err := http.Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	p := scrapeMetrics(t, c)
	if v, ok := p.Value("windowd_requests_total", "route=GET (unmatched)", "code=404"); !ok || v != 1 {
		t.Fatalf("requests_total{GET (unmatched),404} = %v (%v), want 1", v, ok)
	}
}
