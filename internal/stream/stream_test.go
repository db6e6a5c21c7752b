package stream

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"holistic/internal/mst"
)

// model is a brute-force reference for the sliding window.
type model struct {
	window  int64
	entries []entry
	latest  int64
}

func (m *model) observe(ts, val int64) {
	m.entries = append(m.entries, entry{ts, val})
	if ts > m.latest {
		m.latest = ts
	}
}

func (m *model) inWindow() []int64 {
	cut := m.latest - m.window
	var vals []int64
	for _, e := range m.entries {
		if e.ts > cut {
			vals = append(vals, e.val)
		}
	}
	return vals
}

func (m *model) distinct() int {
	seen := map[int64]struct{}{}
	for _, v := range m.inWindow() {
		seen[v] = struct{}{}
	}
	return len(seen)
}

func (m *model) countBelow(v int64) int {
	cnt := 0
	for _, x := range m.inWindow() {
		if x < v {
			cnt++
		}
	}
	return cnt
}

func (m *model) percentile(p float64) (int64, bool) {
	vals := m.inWindow()
	if len(vals) == 0 {
		return 0, false
	}
	slices.Sort(vals)
	k := int(p*float64(len(vals))+0.9999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(vals) {
		k = len(vals) - 1
	}
	return vals[k], true
}

func TestAggregatorAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, threshold := range []int{1, 7, 64, 0} {
		agg, err := NewAggregator(100, Options{RebuildThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		m := &model{window: 100}
		ts := int64(0)
		for step := 0; step < 4000; step++ {
			// Mostly ordered arrivals with occasional small out-of-order
			// jitter kept above the watermark.
			ts += rng.Int63n(3)
			arrival := ts
			if j := rng.Int63n(5); j > 0 && arrival-j >= agg.Watermark() {
				arrival -= j
			}
			val := rng.Int63n(40) - 10
			if err := agg.Observe(arrival, val); err != nil {
				var late *ErrLate
				if !errors.As(err, &late) {
					t.Fatal(err)
				}
				continue // legitimately rejected
			}
			m.observe(arrival, val)

			if step%37 != 0 {
				continue
			}
			if got, want := agg.Len(), len(m.inWindow()); got != want {
				t.Fatalf("threshold %d step %d: Len %d, want %d", threshold, step, got, want)
			}
			if got, want := agg.DistinctCount(), m.distinct(); got != want {
				t.Fatalf("threshold %d step %d: distinct %d, want %d", threshold, step, got, want)
			}
			v := rng.Int63n(50) - 15
			if got, want := agg.CountBelow(v), m.countBelow(v); got != want {
				t.Fatalf("threshold %d step %d: countBelow(%d) %d, want %d", threshold, step, v, got, want)
			}
			p := rng.Float64()
			gotP, gotOK := agg.Percentile(p)
			wantP, wantOK := m.percentile(p)
			if gotOK != wantOK || (gotOK && gotP != wantP) {
				t.Fatalf("threshold %d step %d: percentile(%v) (%d,%v), want (%d,%v)",
					threshold, step, p, gotP, gotOK, wantP, wantOK)
			}
		}
	}
}

func TestLateArrivalRejected(t *testing.T) {
	agg, err := NewAggregator(10, Options{RebuildThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(1); ts <= 10; ts++ {
		if err := agg.Observe(ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	// Watermark advanced past 1 after rebuilds; very old tuples fail.
	if agg.Watermark() == 0 {
		t.Fatal("watermark did not advance")
	}
	err = agg.Observe(agg.Watermark()-1, 99)
	var late *ErrLate
	if !errors.As(err, &late) {
		t.Fatalf("expected ErrLate, got %v", err)
	}
	if late.Timestamp != agg.Watermark()-1 {
		t.Fatalf("ErrLate fields wrong: %+v", late)
	}
}

func TestEmptyAndValidation(t *testing.T) {
	if _, err := NewAggregator(0, Options{}); err == nil {
		t.Fatal("window 0 must be rejected")
	}
	agg, err := NewAggregator(5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Len() != 0 || agg.DistinctCount() != 0 {
		t.Fatal("empty aggregator not empty")
	}
	if _, ok := agg.Median(); ok {
		t.Fatal("median of empty window must not be ok")
	}
	if agg.Rank(5) != 1 {
		t.Fatal("rank in empty window must be 1")
	}
}

func TestEvictionAcrossRebuilds(t *testing.T) {
	agg, err := NewAggregator(50, Options{RebuildThreshold: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Two bursts separated by more than the window: after the second
	// burst only its values must be visible.
	for ts := int64(0); ts < 40; ts++ {
		if err := agg.Observe(ts, 1000+ts); err != nil {
			t.Fatal(err)
		}
	}
	for ts := int64(200); ts < 220; ts++ {
		if err := agg.Observe(ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	if got := agg.Len(); got != 20 {
		t.Fatalf("Len = %d, want 20", got)
	}
	if got := agg.CountBelow(1000); got != 20 {
		t.Fatalf("all remaining values are < 1000: got %d", got)
	}
	if med, ok := agg.Median(); !ok || med != 209 {
		t.Fatalf("median = (%d,%v), want 209", med, ok)
	}
}

func TestNegativeValues(t *testing.T) {
	agg, err := NewAggregator(1000, Options{RebuildThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	vals := []int64{-5, 3, -100, 7, 0, -5, 2}
	for i, v := range vals {
		if err := agg.Observe(int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	if got := agg.DistinctCount(); got != 6 {
		t.Fatalf("distinct = %d, want 6", got)
	}
	if got := agg.CountBelow(0); got != 3 {
		t.Fatalf("countBelow(0) = %d, want 3", got)
	}
	if med, ok := agg.Median(); !ok || med != 0 {
		t.Fatalf("median = (%d,%v), want 0", med, ok)
	}
}

func BenchmarkObserve(b *testing.B) {
	agg, err := NewAggregator(100_000, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	ts := int64(0)
	for i := 0; i < b.N; i++ {
		ts += rng.Int63n(3)
		if err := agg.Observe(ts, rng.Int63n(1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPercentileQuery(b *testing.B) {
	agg, err := NewAggregator(1_000_000, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	ts := int64(0)
	for i := 0; i < 500_000; i++ {
		ts += rng.Int63n(3)
		if err := agg.Observe(ts, rng.Int63n(100_000)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := agg.Percentile(0.99); !ok {
			b.Fatal("empty window")
		}
	}
}

// TestAggregatorSmallFanout pins the incremental path's tree options: an
// aggregator whose rebuilds use a small fanout and sample distance must
// answer identically to the f = k = 32 default across rebuild cycles.
func TestAggregatorSmallFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small, err := NewAggregator(80, Options{
		RebuildThreshold: 16,
		Tree:             mst.Options{Fanout: 16, SampleEvery: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewAggregator(80, Options{RebuildThreshold: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := int64(0)
	for step := 0; step < 1500; step++ {
		ts += rng.Int63n(3)
		val := rng.Int63n(60) - 20
		if err := small.Observe(ts, val); err != nil {
			t.Fatal(err)
		}
		if err := plain.Observe(ts, val); err != nil {
			t.Fatal(err)
		}
		if step%23 != 0 {
			continue
		}
		if a, b := small.DistinctCount(), plain.DistinctCount(); a != b {
			t.Fatalf("step %d: distinct %d != %d", step, a, b)
		}
		v := rng.Int63n(70) - 25
		if a, b := small.CountBelow(v), plain.CountBelow(v); a != b {
			t.Fatalf("step %d: countBelow(%d) %d != %d", step, v, a, b)
		}
		p := rng.Float64()
		aP, aOK := small.Percentile(p)
		bP, bOK := plain.Percentile(p)
		if aOK != bOK || (aOK && aP != bP) {
			t.Fatalf("step %d: percentile(%v) (%d,%v) != (%d,%v)", step, p, aP, aOK, bP, bOK)
		}
	}
}
