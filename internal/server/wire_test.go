package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"holistic/internal/core"
	"holistic/internal/csvio"
	"holistic/internal/server/api"
)

// postQuery sends a query request with the given Accept header (none when
// empty) and returns the response's media type and body.
func postQuery(t *testing.T, base, accept string, req api.QueryRequest) (string, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, base+api.PathQuery, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if accept != "" {
		hr.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %q: HTTP %d: %s", req.SQL, resp.StatusCode, data)
	}
	return resp.Header.Get("Content-Type"), data
}

// wireTable holds a NULL in every column kind, the empty string as a value
// distinct from NULL, and multi-byte UTF-8.
func wireTable() *csvio.File {
	null := []bool{false, true, false, false, true, false}
	return &csvio.File{
		Table: core.MustNewTable(
			core.NewInt64Column("k", []int64{1, 2, 3, 4, 5, 6}, nil),
			core.NewInt64Column("i", []int64{-7, 0, 42, 1 << 40, 0, 9}, null),
			core.NewFloat64Column("f", []float64{1.5, 0, -2.25e-9, 3, 0, 1e21}, null),
			core.NewStringColumn("s", []string{"", "", "grüße", "日本語", "", "a,\"b\"\n"}, null),
			core.NewBoolColumn("b", []bool{true, false, false, true, false, true}, null),
			core.NewInt64Column("d", []int64{0, 0, 19723, -1, 0, 20000}, null),
		),
		DateColumns: map[string]bool{"d": true},
	}
}

// TestFrameMatchesRowJSON queries one server with and without the frame
// Accept type: both encodings must decode to the same response.
func TestFrameMatchesRowJSON(t *testing.T) {
	s, c := newTestServer(t, Config{})
	if _, err := s.install("w", wireTable(), 0, ""); err != nil {
		t.Fatal(err)
	}
	empty := core.MustNewTable(core.NewInt64Column("k", []int64{}, nil), core.NewStringColumn("s", []string{}, nil))
	if _, err := s.install("empty", &csvio.File{Table: empty}, 0, ""); err != nil {
		t.Fatal(err)
	}
	for _, req := range []api.QueryRequest{
		{SQL: `select k, i, f, s, b, d,
			sum(i) over (order by k rows between 1 following and 1 following) as nxt,
			percentile_disc(0.5 order by f) over (order by k rows between 2 preceding and current row) as med
			from w`},
		{SQL: `select k, s, count(distinct s) over (order by k) as cd from w`, IncludeTrace: true},
		{SQL: `select k, rank(order by k) over (order by k) as r from empty`, IncludeTrace: true},
		{SQL: `select k, rank(order by k) over (order by k) as r from w`},
	} {
		typ, body := postQuery(t, c.BaseURL, "", req)
		if typ != "application/json" {
			t.Fatalf("%q without Accept: Content-Type %q, want application/json", req.SQL, typ)
		}
		var want api.QueryResponse
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		typ, body = postQuery(t, c.BaseURL, "application/json;q=0.5, "+api.FrameContentType, req)
		if typ != api.FrameContentType || !bytes.HasPrefix(body, []byte("WDC1")) {
			t.Fatalf("%q with frame Accept: Content-Type %q, body %.8q", req.SQL, typ, body)
		}
		got, err := c.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if req.IncludeTrace != (got.Trace != "") {
			t.Fatalf("%q: trace %q, include_trace %v", req.SQL, got.Trace, req.IncludeTrace)
		}
		// Traces and timings differ between two evaluations.
		got.Trace, want.Trace = "", ""
		got.Stats.ElapsedMillis, want.Stats.ElapsedMillis = 0, 0
		got.Stats.CacheHits, want.Stats.CacheHits = 0, 0
		got.Stats.CacheMisses, want.Stats.CacheMisses = 0, 0
		normalizeNulls(got)
		normalizeNulls(&want)
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("%q: frame decodes to\n%+v\nrow JSON to\n%+v", req.SQL, *got, want)
		}
	}

	// Cells arrive as their rendered text, NULLs distinct from empty strings.
	resp, err := c.Query(context.Background(), api.QueryRequest{SQL: `select k, s, d, b from w`})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := [][]string{
		{"1", "", "1970-01-01", "true"},
		{"2", "", "", ""},
		{"3", "grüße", "2024-01-01", "false"},
		{"4", "日本語", "1969-12-31", "true"},
		{"5", "", "", ""},
		{"6", "a,\"b\"\n", "2024-10-04", "true"},
	}
	if !reflect.DeepEqual(resp.Rows, wantRows) {
		t.Fatalf("rows %q, want %q", resp.Rows, wantRows)
	}
	if resp.Nulls[0][1] || !resp.Nulls[1][1] || resp.Nulls[1][0] {
		t.Fatalf("nulls %v: the empty string and NULL must stay distinct", resp.Nulls)
	}
}

// normalizeNulls expands an absent Nulls into its all-false form.
func normalizeNulls(r *api.QueryResponse) {
	if r.Nulls != nil {
		return
	}
	r.Nulls = make([][]bool, len(r.Rows))
	for i := range r.Nulls {
		r.Nulls[i] = make([]bool, len(r.Columns))
	}
}

// TestRowJSONOmitsNulls: a result without NULLs carries no nulls field.
func TestRowJSONOmitsNulls(t *testing.T) {
	_, c := newTestServer(t, Config{})
	mustUpload(t, c, "t", smallCSV)
	_, body := postQuery(t, c.BaseURL, "", api.QueryRequest{SQL: `select d, v from t`})
	if bytes.Contains(body, []byte(`"nulls"`)) {
		t.Fatalf("NULL-free result carries nulls: %s", body)
	}
	_, body = postQuery(t, c.BaseURL, "", api.QueryRequest{
		SQL: `select d, sum(v) over (order by d rows between 1 following and 1 following) as nxt from t`})
	if !bytes.Contains(body, []byte(`"nulls"`)) {
		t.Fatalf("result with a NULL lacks nulls: %s", body)
	}
}

// TestRequestBodyLimit: query and explain bodies are capped by
// MaxUploadBytes like uploads are.
func TestRequestBodyLimit(t *testing.T) {
	_, c := newTestServer(t, Config{MaxUploadBytes: 256})
	ctx := context.Background()
	mustUpload(t, c, "t", smallCSV)
	if _, err := c.Query(ctx, api.QueryRequest{SQL: `select d, v from t`}); err != nil {
		t.Fatalf("under-limit query rejected: %v", err)
	}
	long := `select d, v from t` + strings.Repeat(" ", 512)
	_, qerr := c.Query(ctx, api.QueryRequest{SQL: long})
	_, eerr := c.Explain(ctx, long)
	for _, err := range []error{qerr, eerr} {
		var ae *api.Error
		if !errors.As(err, &ae) || ae.Status != http.StatusRequestEntityTooLarge || ae.Code != api.CodePayloadTooLarge {
			t.Fatalf("oversized body: got %v, want 413 %q", err, api.CodePayloadTooLarge)
		}
	}
}
