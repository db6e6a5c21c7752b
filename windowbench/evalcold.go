package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"time"

	"holistic"
	"holistic/internal/core"
	"holistic/internal/csvio"
	"holistic/internal/sqlparse"
	"holistic/internal/tpch"
)

// evalCols are the result columns of evalSQL.
var evalCols = []string{"med", "cd", "sd", "rk", "drk"}

func evalCold(ctx context.Context, r *run) error {
	li := tpch.GenerateLineitem(evalRows, r.seed)
	order, pos := shipOrder(li)
	ks := frameKs(r.seed)
	r.rows = evalRows

	// Library callers build their table and run; there is no cache to warm,
	// so set-up is the table plus one statement.
	var tables map[string]*holistic.Table
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		tables = map[string]*holistic.Table{"lineitem": li.Table()}
		if _, err := holistic.RunSQLWith(evalSQL(minK/2), tables, holistic.WithContext(ctx)); err != nil {
			return fmt.Errorf("warm-up statement: %w", err)
		}
		r.sample("setup_s", time.Since(start).Seconds())
	}

	var answers []answer
	op := func(i int, traced bool) {
		k := ks[i%len(ks)]
		sql := evalSQL(k)
		var res *holistic.Table
		var lat time.Duration
		var err error
		if traced {
			res, lat, err = r.replay(sql, tables, holistic.WithContext(ctx))
		} else {
			start := time.Now()
			res, err = holistic.RunSQLWith(sql, tables, holistic.WithContext(ctx))
			lat = time.Since(start)
		}
		r.attempt()
		if err == nil {
			err = checkTable(res, evalCols, evalRows)
		}
		if err != nil {
			r.fail(fmt.Errorf("statement k=%d: %w", k, err))
			return
		}
		r.sample(latencyName(traced), ms(lat))
		a := answer{k: k, rows: sample(r.seed, i, evalRows)}
		a.got = tableCells(res, a.rows)
		answers = append(answers, a)
	}

	before, rt0 := processCounters(), readRuntime()
	elapsed := r.drive(ctx, 1, time.Duration(r.seconds*float64(time.Second)), op, nil)
	if err := ctx.Err(); err != nil {
		return err
	}
	if r.trace {
		queries := float64(len(r.samples["query_ms"]) + len(r.samples["query_traced_ms"]))
		for name, v := range counterMetrics(processCounters().since(before), queries, queries*evalRows) {
			r.metrics[name] = v
		}
		readRuntime().since(rt0).report(r, queries)
	}
	hwm, err := peakRSSMB(os.Getpid())
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	r.metrics["peak_rss_mb"] = hwm

	for _, a := range answers {
		if err := checkFramed(li, order, pos, a); err != nil {
			r.fail(fmt.Errorf("wrong answer: %w", err))
		}
	}
	r.latencyMetrics(elapsed)
	r.finishLayers()
	var engine float64
	for _, l := range spanLayers {
		engine += r.metrics[l]
	}
	r.checks["engine_share_of_p50"] = ratio(engine, r.metrics["query_p50_ms"])
	return nil
}

// checkTable verifies a library result's columns and row count and that
// no cell is NULL.
func checkTable(t *holistic.Table, cols []string, rows int) error {
	var names []string
	for _, c := range t.Columns() {
		names = append(names, c.Name())
		for i := 0; i < t.Rows(); i++ {
			if c.IsNull(i) {
				return fmt.Errorf("column %s row %d is NULL", c.Name(), i)
			}
		}
	}
	if !slices.Equal(names, cols) {
		return fmt.Errorf("columns %q, want %q", names, cols)
	}
	if t.Rows() != rows {
		return fmt.Errorf("%d rows, want %d", t.Rows(), rows)
	}
	return nil
}

// tableCells renders rows of a library result as windowd renders cells.
func tableCells(t *holistic.Table, rows []int) [][]string {
	got := make([][]string, len(rows))
	for j, row := range rows {
		for _, col := range t.Columns() {
			got[j] = append(got[j], csvio.FormatCell(col, row))
		}
	}
	return got
}

// replay runs sql in process through the layers a statement passes:
// sqlparse.Parse and sqlparse.BuildPlan, timed on their own, then a traced
// holistic.RunSQLWith whose span tree is attributed to layers. It returns
// the result and the RunSQLWith latency.
func (r *run) replay(sql string, tables map[string]*holistic.Table, opts ...holistic.Option) (*holistic.Table, time.Duration, error) {
	if err := r.timeFrontEnd(sql, tables); err != nil {
		return nil, 0, err
	}
	root := holistic.NewTrace("query")
	start := time.Now()
	res, err := holistic.RunSQLWith(sql, tables, append(opts, holistic.WithTrace(root))...)
	root.End()
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	layers := selfTimes(fromSpan(root))
	var sum float64
	for _, l := range spanLayers {
		r.sample(l, layers[l])
		sum += layers[l]
	}
	// Rounded, so float summation noise cannot read as a share above 1.
	share := math.Round(ratio(sum, ms(root.Duration()))*1e6) / 1e6
	if prev, _ := r.checks["layer_share_sum_max"].(float64); share > prev {
		r.checks["layer_share_sum_max"] = share
	}
	return res, lat, nil
}

// timeFrontEnd times parsing and planning sql against tables and records
// the plan's sharing counts.
func (r *run) timeFrontEnd(sql string, tables map[string]*core.Table) error {
	start := time.Now()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	r.sample("sqlparse.parse_us", float64(time.Since(start))/float64(time.Microsecond))
	start = time.Now()
	p, err := sqlparse.BuildPlan(q, tables[q.From])
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	r.sample("plan.build_us", float64(time.Since(start))/float64(time.Microsecond))
	r.sample("plan.sorts_shared", float64(p.Stats.SortsShared))
	r.sample("plan.trees_shared", float64(p.Stats.TreesShared))
	return nil
}

// runtimeStats are benchmark-process runtime counters.
type runtimeStats struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	value := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeStats{allocBytes: value(s[0].Value), gcCPU: value(s[1].Value), totalCPU: value(s[2].Value)}
}

func (s runtimeStats) since(start runtimeStats) runtimeStats {
	return runtimeStats{s.allocBytes - start.allocBytes, s.gcCPU - start.gcCPU, s.totalCPU - start.totalCPU}
}

func (s runtimeStats) plus(o runtimeStats) runtimeStats {
	return runtimeStats{s.allocBytes + o.allocBytes, s.gcCPU + o.gcCPU, s.totalCPU + o.totalCPU}
}

// report sets the runtime.* layer metrics from growth over queries.
func (s runtimeStats) report(r *run, queries float64) {
	r.metrics["runtime.alloc_mb_per_query"] = ratio(s.allocBytes/(1<<20), queries)
	r.metrics["runtime.gc_cpu_fraction"] = ratio(s.gcCPU, s.totalCPU)
}
