package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"holistic/internal/server"
	"holistic/internal/server/api"
)

func TestCountersParseWindowdAndFailOnMissingFamily(t *testing.T) {
	srv := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	text, err := (&api.Client{BaseURL: ts.URL}).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseCounters(text); err != nil {
		t.Fatalf("windowd's exposition: %v", err)
	}
	for _, fam := range requiredFamilies {
		var kept []string
		for _, line := range strings.Split(text, "\n") {
			if !strings.Contains(line, fam+" ") && !strings.Contains(line, fam+"{") {
				kept = append(kept, line)
			}
		}
		_, err := parseCounters(strings.Join(kept, "\n"))
		if err == nil || !strings.Contains(err.Error(), fam) {
			t.Errorf("exposition without %s: err = %v, want it named", fam, err)
		}
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.TailPct != 90 || s.Tail != 90 || s.Beyond != 10 || s.Median != 50.5 {
		t.Errorf("100 samples: %+v, want p90 = 90 with 10 beyond, median 50.5", s)
	}
	if s := summarize(xs[:15]); s.TailPct != 100 || s.Tail != 15 {
		t.Errorf("15 samples: %+v, want the maximum", s)
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json, at the root of
// the tree, in step with what the command prints.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the command", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed []metricSpec) {
		if len(listed) != len(printed) {
			t.Errorf("%s: %d listed, %d printed", kind, len(listed), len(printed))
			return
		}
		for i, m := range listed {
			if m.Name != printed[i].name || m.Unit != printed[i].unit {
				t.Errorf("%s %d: listed %s [%s], printed %s [%s]", kind, i, m.Name, m.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
