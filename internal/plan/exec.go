package plan

import (
	"fmt"
	"sync"

	"holistic/internal/core"
)

// Execute runs the plan against the source table and returns the output
// table (one column per statement item, in select order) plus the plan's
// sharing stats.
//
// When the options carry no structure cache, a request-local cache is
// installed for the duration of the statement, so trees and preprocessing
// arrays are shared across the statement's functions even for cacheless
// callers — the within-request counterpart of windowd's cross-request
// treecache.
func (p *Plan) Execute(t *core.Table, opt core.Options) (*core.Table, Stats, error) {
	if opt.Cache == nil {
		opt.Cache = newLocalCache()
		opt.CacheScope = "stmt"
	}

	results := map[string]*core.Result{} // window key -> result
	counters.Queries.Add(1)
	counters.SharedSorts.Add(int64(p.Stats.SortsShared))
	counters.SharedTrees.Add(int64(p.Stats.TreesShared))
	counters.SharedPreprocess.Add(int64(p.Stats.PreprocessShared))
	for _, g := range p.groups {
		gopt := opt
		if sp := opt.Trace.Child("plan.group"); sp != nil {
			sp.Set("partition_by", colsText(g.partitionBy))
			sp.Set("order_by", orderText(g.orderBy))
			sp.SetInt("windows", int64(len(g.windows)))
			gopt.Trace = sp
		}
		specs := make([]*core.WindowSpec, len(g.windows))
		for i, w := range g.windows {
			specs[i] = &core.WindowSpec{PartitionBy: w.partitionBy, OrderBy: w.orderBy, Funcs: w.funcs}
		}
		res, err := core.RunShared(t, g.partitionBy, g.orderBy, specs, gopt)
		if gopt.Trace != opt.Trace {
			gopt.Trace.End()
		}
		if err != nil {
			return nil, Stats{}, err
		}
		for i, w := range g.windows {
			results[windowKey(w.partitionBy, w.orderBy)] = res[i]
		}
	}

	// Assemble the output table in select order.
	cols := make([]*core.Column, len(p.stmt.Items))
	for i := range p.stmt.Items {
		item := &p.stmt.Items[i]
		if item.Func == nil {
			src := t.Column(item.SrcColumn)
			if src == nil {
				return nil, Stats{}, fmt.Errorf("plan: unknown column %q", item.SrcColumn)
			}
			if src.Name() != item.Name {
				src = src.Renamed(item.Name)
			}
			cols[i] = src
			continue
		}
		res := results[windowKey(item.PartitionBy, item.OrderBy)]
		cols[i] = res.Column(item.Name)
		if cols[i] == nil {
			return nil, Stats{}, fmt.Errorf("plan: window result missing column %q", item.Name)
		}
	}
	out, err := core.NewTable(cols...)
	if err != nil {
		return nil, Stats{}, err
	}
	return out, p.Stats, nil
}

// localCache is a request-scoped core.TreeCache: a single-flight map with
// no eviction, alive for one statement. It makes within-statement structure
// sharing work for callers that configured no cross-request cache.
type localCache struct {
	mu sync.Mutex
	m  map[string]*localEntry
}

type localEntry struct {
	once sync.Once
	val  any
	err  error
}

func newLocalCache() *localCache {
	return &localCache{m: make(map[string]*localEntry)}
}

// GetOrBuild implements core.TreeCache with per-key single-flight: the
// first caller builds, concurrent callers for the same key wait, distinct
// keys build in parallel.
func (c *localCache) GetOrBuild(key string, build func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &localEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.val, _, e.err = build()
	})
	return e.val, e.err
}
