package api

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// encodeFrame encodes resp as a column frame: a column gets a null bitmap
// when one of its cells is NULL.
func encodeFrame(t testing.TB, resp *QueryResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := NewFrameWriter(&buf, resp.Columns, len(resp.Rows), resp.Stats, resp.Trace)
	if err != nil {
		t.Fatal(err)
	}
	for c := range resp.Columns {
		var null func(int) bool
		for i := range resp.Nulls {
			if resp.Nulls[i][c] {
				null = func(i int) bool { return resp.Nulls[i][c] }
				break
			}
		}
		if err := fw.Column(null, func(dst []byte, i int) []byte { return append(dst, resp.Rows[i][c]...) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomResponse draws a response of up to 40 rows and 4 columns with
// NULLs, empty strings, multi-byte text and cells longer than 127 bytes.
func randomResponse(rng *rand.Rand) *QueryResponse {
	cols, rows := 1+rng.Intn(4), rng.Intn(40)
	resp := &QueryResponse{Columns: make([]string, cols), Rows: make([][]string, rows),
		Stats: QueryStats{ElapsedMillis: rng.Float64(), CacheHits: rng.Int63n(9), Operators: rng.Intn(5)}}
	for c := range resp.Columns {
		resp.Columns[c] = strings.Repeat("c", c+1)
	}
	if rng.Intn(2) == 0 {
		resp.Trace = "query 1ms\n  probe ✓\n"
	}
	withNulls := rng.Intn(2) == 0
	if withNulls {
		resp.Nulls = make([][]bool, rows)
	}
	texts := []string{"", "0", "-12.5", "true", "日本語", strings.Repeat("x", 300)}
	for i := range resp.Rows {
		resp.Rows[i] = make([]string, cols)
		if withNulls {
			resp.Nulls[i] = make([]bool, cols)
		}
		for c := range resp.Rows[i] {
			if withNulls && rng.Intn(3) == 0 {
				resp.Nulls[i][c] = true
				continue
			}
			resp.Rows[i][c] = texts[rng.Intn(len(texts))]
		}
	}
	return resp
}

// normalized expands an absent Nulls into its all-false form.
func normalized(r *QueryResponse) *QueryResponse {
	out := *r
	if out.Nulls == nil {
		out.Nulls = make([][]bool, len(out.Rows))
		for i := range out.Nulls {
			out.Nulls[i] = make([]bool, len(out.Columns))
		}
	}
	return &out
}

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 300; n++ {
		want := randomResponse(rng)
		got, err := DecodeFrame(encodeFrame(t, want))
		if err != nil {
			t.Fatalf("case %d: %v", n, err)
		}
		if !reflect.DeepEqual(normalized(got), normalized(want)) {
			t.Fatalf("case %d: decoded\n%+v\nwant\n%+v", n, got, want)
		}
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	valid := encodeFrame(t, &QueryResponse{Columns: []string{"a", "b"},
		Rows:  [][]string{{"1", ""}, {"22", "x"}, {"", "y"}},
		Nulls: [][]bool{{false, true}, {false, false}, {true, false}}})
	if _, err := DecodeFrame(valid); err != nil {
		t.Fatalf("valid frame: %v", err)
	}
	header := func(h string) []byte {
		b := binary.AppendUvarint([]byte("WDC1"), uint64(len(h)))
		return append(b, h...)
	}
	cases := map[string][]byte{
		"empty":           nil,
		"bad magic":       append([]byte("WDC2"), valid[4:]...),
		"trailing bytes":  append(append([]byte{}, valid...), 0),
		"truncated":       valid[:len(valid)-1],
		"header overruns": append([]byte("WDC1"), 0x7f, '{'),
		"bad header":      header(`{"columns":`),
		"negative rows":   header(`{"columns":["a"],"rows":-1}`),
		"rows, no column": header(`{"columns":[],"rows":3}`),
		"huge rows":       append(header(`{"columns":["a","b"],"rows":1000000000000}`), make([]byte, 64)...),
		"bad flag":        append(header(`{"columns":["a"],"rows":1}`), 2, 0),
		"padding set":     append(header(`{"columns":["a"],"rows":1}`), 1, 0x02, 0),
		"null with text":  append(header(`{"columns":["a"],"rows":1}`), 1, 0x01, 1, 'x'),
		"cell overruns":   append(header(`{"columns":["a"],"rows":1}`), 0, 5, 'x'),
		"missing column":  append(header(`{"columns":["a","b"],"rows":0}`), 0),
	}
	for name, body := range cases {
		if resp, err := DecodeFrame(body); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, resp)
		}
	}
}

func TestAcceptsFrame(t *testing.T) {
	for accept, want := range map[string]bool{
		"":                                      false,
		"*/*":                                   false,
		"application/json":                      false,
		FrameContentType:                        true,
		"application/json, " + FrameContentType: true,
		FrameContentType + ";q=0":               false,
		FrameContentType + ";q=0.0":             false,
		FrameContentType + ";q=0.000":           false,
		FrameContentType + ";q=0.001":           true,
		"text/html;q=0.9, " + FrameContentType + ";q=0.8": true,
	} {
		if got := AcceptsFrame(accept); got != want {
			t.Errorf("AcceptsFrame(%q) = %v, want %v", accept, got, want)
		}
	}
}

// FuzzDecodeFrame: arbitrary bytes decode or fail, never panic, and
// allocate O(len(body)); whatever decodes re-encodes to the same response.
func FuzzDecodeFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 8; n++ {
		f.Add(encodeFrame(f, randomResponse(rng)))
	}
	f.Add([]byte("WDC1"))
	f.Add(append(binary.AppendUvarint([]byte("WDC1"), 33), `{"columns":["a"],"rows":100000000}`...))
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := DecodeFrame(body)
		runtime.ReadMemStats(&after)
		// The bound covers the body's string copy, the cell and row-view
		// slices and the header's JSON decode, with slack for the runtime.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 128*uint64(len(body))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(body), alloc)
		}
		if err != nil {
			return
		}
		again, err := DecodeFrame(encodeFrame(t, resp))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(normalized(again), normalized(resp)) {
			t.Fatalf("round trip changed the response:\n%+v\n%+v", again, resp)
		}
	})
}
