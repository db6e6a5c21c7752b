// Command windowbench is the repository's end-to-end benchmark. One process
// generates the inputs from a seed, drives one workload for a fixed time,
// checks the answers against a brute-force oracle and prints its metrics as
// one JSON line:
//
//	windowbench -windowd <path> --workload serve-explore --seed 1 --seconds 20 --trace 0
//
// Workloads (why each exists is in BENCHMARK.json):
//
//   - serve-explore: windowd over loopback, a 200k-row lineitem dataset and
//     two closed-loop clients asking a percentile and a distinct count over a
//     fresh ROWS frame each time: tree cache hit, result cache miss.
//   - serve-mutate: windowd with a keyed 200k-row dataset in 100 partitions;
//     an open-loop writer upserts 100-row batches into one hot partition while
//     one closed-loop reader asks a per-partition distinct count and median.
//   - eval-cold: the holistic library in process, no tree cache, one caller
//     running a five-function statement over 100k rows.
//
// A serve run starts windowd three times from scratch and drives each
// process for a third of the run; latencies pool over the three, and set-up
// time and peak RSS are their medians.
//
// With --trace 0 it prints the end-to-end metrics of an untraced run; with
// --trace 1 the per-layer metrics of a run in which every other call is
// traced. A run record (machine, seed, per-metric sample counts, medians and
// quartiles) goes to standard error and to a file under -out.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of windowd or the library sees; they come
// from untraced runs. Each is defined for every workload.
var endToEnd = []metricSpec{
	{"query_p50_ms", "ms"},
	{"query_tail_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics. A layer a workload does not reach
// reads 0.
var perLayer = []metricSpec{
	{"mutation_p50_ms", "ms"},
	{"mutation_tail_ms", "ms"},
	{"api.decode_ms", "ms"},
	{"server.ttfb_ms", "ms"},
	{"server.eval_ms", "ms"},
	{"server.non_eval_ms", "ms"},
	{"server.transfer_ms", "ms"},
	{"server.response_bytes_per_row", "B/row"},
	{"server.register_s", "s"},
	{"server.first_query_ms", "ms"},
	{"sqlparse.parse_us", "us"},
	{"plan.build_us", "us"},
	{"plan.sorts_shared", "count"},
	{"plan.trees_shared", "count"},
	{"core.sort_ms", "ms"},
	{"core.other_ms", "ms"},
	{"preprocess.ms", "ms"},
	{"mst.build_ms", "ms"},
	{"mst.probe_ms.select", "ms"},
	{"mst.probe_ms.count", "ms"},
	{"mst.probe_ms.agg", "ms"},
	{"mst.probe_ms.rank", "ms"},
	{"mst.batch_queries_per_row", "ratio"},
	{"mst.dedup_ratio", "ratio"},
	{"rangetree.build_ms", "ms"},
	{"rangetree.probe_ms", "ms"},
	{"treecache.hit_ratio", "ratio"},
	{"treecache.evictions", "count"},
	{"treecache.mb", "MiB"},
	{"delta.batches", "count"},
	{"delta.compactions", "count"},
	{"delta.materializations", "count"},
	{"arena.pool_miss_ratio", "ratio"},
	{"arena.mb_per_query", "MiB"},
	{"runtime.alloc_mb_per_query", "MiB"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"bench.generator_late_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *run) error{
	"serve-explore": serveExplore,
	"serve-mutate":  serveMutate,
	"eval-cold":     evalCold,
}

// setupReps is how many times a run sets up from scratch; setup_s is the
// median. The serve workloads drive each set-up windowd for a third of the
// run.
const setupReps = 3

// run is one benchmark invocation: its parameters, what it measured and
// how its operations fared.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	windowd  string
	rows     int

	// seq numbers the calls of the whole run; each number picks a call's
	// inputs.
	seq atomic.Int64

	// mu guards the fields below while the timed part runs.
	mu                sync.Mutex
	attempted, failed int
	errs              []string
	// samples holds every sampled quantity by name; metrics holds the
	// reported value of each metric the run measured.
	samples map[string][]float64
	metrics map[string]float64
	checks  map[string]any
}

func (r *run) sample(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[name] = append(r.samples[name], v)
}

func (r *run) attempt() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
}

// fail records a failed operation; the first few reasons go in the record.
func (r *run) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
}

// latencyMetrics fills query_p50_ms and query_tail_ms from the untraced
// query latencies, and queries_per_s from all completed queries over
// elapsed.
func (r *run) latencyMetrics(elapsed time.Duration) {
	s := summarize(r.samples["query_ms"])
	r.metrics["query_p50_ms"] = s.Median
	r.metrics["query_tail_ms"] = s.Tail
	r.metrics["queries_per_s"] = float64(s.N+len(r.samples["query_traced_ms"])) / elapsed.Seconds()
}

// latencyName is the sample a query latency is filed under.
func latencyName(traced bool) string {
	if traced {
		return "query_traced_ms"
	}
	return "query_ms"
}

// drive runs timed load for dur: clients closed-loop callers of op and,
// when background is set, that open-loop load beside them. Every call gets
// a fresh sequence number of the run, which picks its inputs. In a traced
// run every other call is traced, so the untraced calls between them are
// the trace overhead's baseline under the same load. drive returns the wall
// time until the last call completed.
func (r *run) drive(ctx context.Context, clients int, dur time.Duration, op func(i int, traced bool), background func(context.Context, time.Duration)) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	if background != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			background(ctx, dur)
		}()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(r.seq.Add(1) - 1)
				op(i, r.trace && i%2 == 1)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// finishLayers sets every sampled per-layer metric not set yet to its
// median, setup_s to the median set-up, and the trace overhead.
func (r *run) finishLayers() {
	r.metrics["setup_s"] = median(r.samples["setup_s"])
	for _, m := range perLayer {
		if _, set := r.metrics[m.name]; set {
			continue
		}
		if xs, ok := r.samples[m.name]; ok {
			r.metrics[m.name] = median(xs)
		}
	}
	if r.trace {
		r.metrics["bench.trace_overhead_ratio"] = ratio(median(r.samples["query_traced_ms"]), median(r.samples["query_ms"]))
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: serve-explore, serve-mutate or eval-cold")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 20, "length of the timed run")
		trace    = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
		windowd  = flag.String("windowd", "", "windowd binary built from the tree under test (serve workloads)")
		out      = flag.String("out", ".bench_build", "directory the run record is written under")
	)
	flag.Parse()
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "windowbench: bad arguments: workload %q, seconds %v, trace %d\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, windowd: *windowd,
		samples: map[string][]float64{}, metrics: map[string]float64{}, checks: map[string]any{},
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := runWorkload(ctx, r)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "windowbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	if err := writeRecord(r, *out); err != nil {
		fmt.Fprintf(os.Stderr, "windowbench: run record: %v\n", err)
	}
	line, err := json.Marshal(result(r))
	if err != nil {
		fmt.Fprintf(os.Stderr, "windowbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		fmt.Fprintf(os.Stderr, "windowbench: %d of %d operations failed: %s\n", r.failed, r.attempted, strings.Join(r.errs, "; "))
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is the last line of standard output: every end-to-end metric, or
// with --trace 1 every per-layer metric.
func result(r *run) resultLine {
	specs := endToEnd
	if r.trace {
		specs = perLayer
	}
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		out.Metrics[m.name] = metricValue{Value: r.metrics[m.name], Unit: m.unit}
	}
	return out
}

// record is the run record: enough about the machine and the inputs to
// compare runs across commits, and the spread of every sampled metric.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	Seconds     float64            `json:"seconds"`
	Rows        int                `json:"rows"`
	Commit      string             `json:"commit"`
	SourceHash  string             `json:"source_sha256"`
	CPUModel    string             `json:"cpu_model"`
	NProc       int                `json:"nproc"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedRatio float64            `json:"failed_ratio"`
	Errors      []string           `json:"errors,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	Samples     map[string]summary `json:"samples"`
	Checks      map[string]any     `json:"checks,omitempty"`
}

func writeRecord(r *run, dir string) error {
	rec := record{
		Workload: r.workload, Seed: r.seed, Trace: r.trace, Seconds: r.seconds, Rows: r.rows,
		Commit: gitCommit(), SourceHash: sourceHash("."), CPUModel: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Attempted: r.attempted, Failed: r.failed, FailedRatio: ratio(float64(r.failed), float64(r.attempted)),
		Errors: r.errs, Metrics: r.metrics, Samples: map[string]summary{}, Checks: r.checks,
	}
	for name, xs := range r.samples {
		rec.Samples[name] = summarize(xs)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s\n", data)
	dir = filepath.Join(dir, "windowbench-records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, map[bool]int{false: 0, true: 1}[r.trace])
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// gitCommit reads HEAD from the .git directory at the root of the tree,
// without looking above it; "unknown" outside a git checkout, where the
// source hash still identifies the tree.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash fingerprints the Go sources and module files under root, which
// identifies the tree under test when it is not a git checkout.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if e.IsDir() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
