package main

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"holistic"
	"holistic/internal/core"
	"holistic/internal/server/api"
	"holistic/internal/tpch"
	"holistic/internal/treecache"
)

// serve-mutate load: an open-loop writer at mutateRate batches per second,
// with compaction settings that put several compactions into every run. The
// compactor abandons a swap when a batch lands while it materializes the
// 200k-row table; at 10 batches per second that starved it on a 2-CPU
// machine, so the rate leaves room between batches.
const (
	mutateRate         = 5
	maxInFlightBatches = 4
	compactRows        = 1000
	compactInterval    = 500 * time.Millisecond
)

// replayStatements is how many statements a traced serve run replays in
// process after the timed part, to time parsing, planning and the engine.
const replayStatements = 5

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serveRun drives a serve workload on setupReps windowd processes in turn,
// each started from scratch. Each one registers the dataset and runs two
// warm-up queries, which build the trees (a setup_s sample runs from process
// start to the end of the warm-up); then segment drives it for an equal share
// of the run's seconds, and its peak RSS is read before it is stopped.
// Latencies pool over the segments and setup_s and peak_rss_mb are medians,
// so one process's GC timing or scheduling does not set a run's figures. In
// a traced run windowd's counters are scraped before and after each segment
// and their growth becomes layer metrics; rows is the result size of one
// query.
func (r *run) serveRun(ctx context.Context, args []string, rows int,
	register func(context.Context, *api.Client) error,
	warm func(context.Context, *api.Client, int) error,
	segment func(context.Context, *api.Client, time.Duration) time.Duration,
) error {
	dur := time.Duration(r.seconds * float64(time.Second) / setupReps)
	var elapsed time.Duration
	var growth counters
	var rt runtimeStats
	for rep := 0; rep < setupReps; rep++ {
		err := func() error {
			start := time.Now()
			d, err := startDaemon(ctx, r.windowd, args...)
			if err != nil {
				return err
			}
			c, closeIdle := newClient(d)
			defer func() {
				closeIdle()
				r.sample("peak_rss_mb", d.stop())
			}()
			t := time.Now()
			if err := register(ctx, c); err != nil {
				return fmt.Errorf("register dataset: %w", err)
			}
			r.sample("server.register_s", time.Since(t).Seconds())
			for i := 0; i < 2; i++ {
				t = time.Now()
				if err := warm(ctx, c, i); err != nil {
					return fmt.Errorf("warm-up query: %w", err)
				}
				if i == 0 {
					r.sample("server.first_query_ms", ms(time.Since(t)))
				}
			}
			r.sample("setup_s", time.Since(start).Seconds())

			var before counters
			if r.trace {
				if before, err = scrape(ctx, c); err != nil {
					return err
				}
			}
			rt0 := readRuntime()
			elapsed += segment(ctx, c, dur)
			rt = rt.plus(readRuntime().since(rt0))
			if err := ctx.Err(); err != nil {
				return err
			}
			if r.trace {
				after, err := scrape(ctx, c)
				if err != nil {
					return err
				}
				growth = growth.plus(after.since(before))
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	r.metrics["peak_rss_mb"] = median(r.samples["peak_rss_mb"])
	r.latencyMetrics(elapsed)
	if r.trace {
		queries := float64(len(r.samples["query_ms"]) + len(r.samples["query_traced_ms"]))
		for name, v := range counterMetrics(growth, queries, queries*float64(rows)) {
			r.metrics[name] = v
		}
		rt.report(r, queries)
	}
	return nil
}

// query sends one statement. A traced request also splits its wire time
// into the server.* and api.* layer samples.
func (r *run) query(ctx context.Context, c *api.Client, sql string, traced bool) (*api.QueryResponse, time.Duration, error) {
	var rt *reqTiming
	if traced {
		rt = &reqTiming{}
		ctx = withTiming(ctx, rt)
	}
	start := time.Now()
	resp, err := c.Query(ctx, api.QueryRequest{SQL: sql})
	lat := time.Since(start)
	if err != nil || !traced {
		return resp, lat, err
	}
	done := start.Add(lat)
	ttfb := ms(rt.firstByte.Sub(rt.wrote))
	r.sample("server.ttfb_ms", ttfb)
	r.sample("server.eval_ms", resp.Stats.ElapsedMillis)
	r.sample("server.non_eval_ms", ttfb-resp.Stats.ElapsedMillis)
	r.sample("server.transfer_ms", ms(rt.bodyDone.Sub(rt.firstByte)))
	r.sample("api.decode_ms", ms(done.Sub(rt.bodyDone)))
	if len(resp.Rows) > 0 {
		r.sample("server.response_bytes_per_row", float64(rt.bytes)/float64(len(resp.Rows)))
	}
	return resp, lat, nil
}

// checkShape verifies the columns and row count of a response and that no
// cell is NULL (no statement of the benchmark yields NULLs).
func checkShape(resp *api.QueryResponse, cols []string, rows int) error {
	if !slices.Equal(resp.Columns, cols) {
		return fmt.Errorf("columns %q, want %q", resp.Columns, cols)
	}
	if len(resp.Rows) != rows {
		return fmt.Errorf("%d rows, want %d", len(resp.Rows), rows)
	}
	for i, nulls := range resp.Nulls {
		if slices.Contains(nulls, true) {
			return fmt.Errorf("row %d has a NULL cell", i)
		}
	}
	return nil
}

// picked copies the sampled rows' cells out of a response.
func picked(resp *api.QueryResponse, rows []int) [][]string {
	got := make([][]string, len(rows))
	for j, row := range rows {
		got[j] = resp.Rows[row]
	}
	return got
}

// scrape reads windowd's layer counters.
func scrape(ctx context.Context, c *api.Client) (counters, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return counters{}, fmt.Errorf("scrape /v1/metrics: %w", err)
	}
	return parseCounters(text)
}

func serveExplore(ctx context.Context, r *run) error {
	li := tpch.GenerateLineitem(exploreRows, r.seed)
	csv := lineitemCSV(li, nil)
	order, pos := shipOrder(li)
	ks := frameKs(r.seed)
	r.rows = exploreRows

	var mu sync.Mutex
	var answers []answer
	err := r.serveRun(ctx, nil, exploreRows,
		func(ctx context.Context, c *api.Client) error {
			_, err := c.UploadCSV(ctx, "lineitem", csv)
			return err
		},
		// Warm-up frames lie below minK, so no timed query repeats one.
		func(ctx context.Context, c *api.Client, i int) error {
			_, err := c.Query(ctx, api.QueryRequest{SQL: exploreSQL(minK/2 + i)})
			return err
		},
		func(ctx context.Context, c *api.Client, dur time.Duration) time.Duration {
			return r.drive(ctx, 2, dur, func(i int, traced bool) {
				k := ks[i%len(ks)]
				resp, lat, err := r.query(ctx, c, exploreSQL(k), traced)
				r.attempt()
				if err == nil {
					err = checkShape(resp, []string{"med", "cd"}, exploreRows)
				}
				if err != nil {
					r.fail(fmt.Errorf("query k=%d: %w", k, err))
					return
				}
				r.sample(latencyName(traced), ms(lat))
				a := answer{k: k, rows: sample(r.seed, i, exploreRows)}
				a.got = picked(resp, a.rows)
				mu.Lock()
				answers = append(answers, a)
				mu.Unlock()
			}, nil)
		})
	if err != nil {
		return err
	}
	if r.trace {
		if err := r.replayExplore(ctx, li, ks); err != nil {
			return err
		}
	}

	for _, a := range answers {
		if err := checkFramed(li, order, pos, a); err != nil {
			r.fail(fmt.Errorf("wrong answer: %w", err))
		}
	}
	r.finishLayers()
	r.checks["mst_build_share_of_p50"] = ratio(r.metrics["mst.build_ms"], r.metrics["query_p50_ms"])
	return nil
}

// replayExplore replays serve-explore statements in process with a tree
// cache warmed the way windowd's is, so the span tree shows where the
// engine spends a cached query's time.
func (r *run) replayExplore(ctx context.Context, li *tpch.Lineitem, ks []int) error {
	tables := map[string]*holistic.Table{"lineitem": li.Table()}
	cache := treecache.New(1 << 30)
	opts := []holistic.Option{holistic.WithCache(cache, "lineitem"), holistic.WithContext(ctx)}
	if _, err := holistic.RunSQLWith(exploreSQL(minK/2), tables, opts...); err != nil {
		return fmt.Errorf("replay warm-up: %w", err)
	}
	rng := stream(r.seed, tagReplay, 0)
	for i := 0; i < replayStatements; i++ {
		if _, _, err := r.replay(exploreSQL(ks[rng.Intn(len(ks))]), tables, opts...); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	return nil
}

// mutator is serve-mutate's open-loop writer against one windowd process.
// It keeps the mirror of every acknowledged batch by the epoch it produced,
// and the reads made against the same process, for the oracle.
type mutator struct {
	r     *run
	d     *mutateData
	c     *api.Client
	first int // index of its first batch; later processes get fresh batches

	sent  atomic.Int64 // batches sent so far
	acked atomic.Int64 // highest epoch acknowledged so far

	mu      sync.Mutex
	applied map[int64][]upsert

	reads []read // written by the one reader only
}

// run sends mutateRate batches per second for dur. Each batch is due at a
// fixed time and sent then, even if earlier ones are still in flight (up to
// maxInFlightBatches); its latency runs from when it was due.
func (m *mutator) run(ctx context.Context, dur time.Duration) {
	interval := time.Second / mutateRate
	start := time.Now()
	sem := make(chan struct{}, maxInFlightBatches)
	var wg sync.WaitGroup
	defer wg.Wait()
	for j := 0; time.Duration(j)*interval < dur; j++ {
		b := m.d.batch(m.r.seed, m.first+j)
		req := m.d.request(b)
		due := start.Add(time.Duration(j) * interval)
		timer := time.NewTimer(time.Until(due))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return
		}
		m.r.sample("bench.generator_late_ms", ms(time.Since(due)))
		m.sent.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			resp, err := m.c.Mutate(ctx, "live", req)
			m.r.attempt()
			if err != nil {
				m.r.fail(fmt.Errorf("mutation batch: %w", err))
				return
			}
			m.r.sample("mutation_ms", ms(time.Since(due)))
			m.mu.Lock()
			m.applied[resp.Epoch] = b
			m.mu.Unlock()
			for cur := m.acked.Load(); resp.Epoch > cur && !m.acked.CompareAndSwap(cur, resp.Epoch); cur = m.acked.Load() {
			}
		}()
	}
}

func serveMutate(ctx context.Context, r *run) error {
	d := newMutateData(r.seed)
	csv := lineitemCSV(d.li, d.grp)
	r.rows = mutateRows
	cols := []string{"cd", "med"}

	var mutators []*mutator
	args := []string{"-compact-rows", strconv.Itoa(compactRows), "-compact-interval", compactInterval.String()}
	err := r.serveRun(ctx, args, mutateRows,
		func(ctx context.Context, c *api.Client) error {
			_, err := c.UploadCSVKeyed(ctx, "live", "id", csv)
			return err
		},
		func(ctx context.Context, c *api.Client, i int) error {
			resp, err := c.Query(ctx, api.QueryRequest{SQL: mutateSQL})
			if err == nil {
				err = checkShape(resp, cols, mutateRows)
			}
			return err
		},
		func(ctx context.Context, c *api.Client, dur time.Duration) time.Duration {
			m := &mutator{r: r, d: d, c: c, applied: map[int64][]upsert{}}
			for _, prev := range mutators {
				m.first += int(prev.sent.Load())
			}
			mutators = append(mutators, m)
			return r.drive(ctx, 1, dur, func(i int, traced bool) {
				lo := m.acked.Load()
				resp, lat, err := r.query(ctx, c, mutateSQL, traced)
				hi := m.sent.Load()
				r.attempt()
				if err == nil {
					err = checkShape(resp, cols, mutateRows)
				}
				if err != nil {
					r.fail(fmt.Errorf("query: %w", err))
					return
				}
				r.sample(latencyName(traced), ms(lat))
				// The first sampled row is always in the hot partition, so
				// every check covers the mutations.
				rows := sample(r.seed, i, mutateRows)
				rows[0] = d.members[rows[0]%len(d.members)]
				m.reads = append(m.reads, read{answer: answer{rows: rows, got: picked(resp, rows)}, lo: lo, hi: hi})
			}, m.run)
		})
	if err != nil {
		return err
	}
	if r.trace {
		tables := map[string]*core.Table{"live": d.table()}
		for i := 0; i < replayStatements; i++ {
			if err := r.timeFrontEnd(mutateSQL, tables); err != nil {
				return err
			}
		}
	}

	for _, m := range mutators {
		for _, err := range checkMutate(d, m.applied, m.reads) {
			r.fail(fmt.Errorf("wrong answer: %w", err))
		}
	}
	mut := summarize(r.samples["mutation_ms"])
	r.metrics["mutation_p50_ms"], r.metrics["mutation_tail_ms"] = mut.Median, mut.Tail
	r.finishLayers()
	wire := r.metrics["server.non_eval_ms"] + r.metrics["server.transfer_ms"] + r.metrics["api.decode_ms"]
	r.checks["wire_share_of_p50"] = ratio(wire, r.metrics["query_p50_ms"])
	return nil
}

// table is the serve-mutate dataset as windowd registers it, for planning.
func (d *mutateData) table() *core.Table {
	id := make([]int64, d.li.Len())
	for i := range id {
		id[i] = int64(i + 1)
	}
	cols := append([]*core.Column{core.NewInt64Column("id", id, nil), core.NewInt64Column("grp", d.grp, nil)},
		d.li.Table().Columns()...)
	return core.MustNewTable(cols...)
}
