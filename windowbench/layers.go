package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"holistic/internal/arena"
	"holistic/internal/core"
	"holistic/internal/obs"
)

// Self-time layers of one statement's span tree. Every instant of the
// root's duration lands in exactly one of them, so the shares sum to 100%.
const (
	layerSort       = "core.sort_ms"
	layerOther      = "core.other_ms"
	layerPreprocess = "preprocess.ms"
	layerMSTBuild   = "mst.build_ms"
	layerRTBuild    = "rangetree.build_ms"
	layerRTProbe    = "rangetree.probe_ms"
	layerProbe      = "mst.probe_ms." // + family
)

// spanLayers lists every layer selfTimes can report, in output order.
var spanLayers = []string{
	layerSort, layerOther, layerPreprocess, layerMSTBuild,
	layerProbe + "select", layerProbe + "count", layerProbe + "agg", layerProbe + "rank",
	layerRTBuild, layerRTProbe,
}

// node is a finished span reduced to what attribution reads, so tests can
// build trees with chosen durations.
type node struct {
	name     string
	dur      time.Duration
	function string
	children []*node
}

// fromSpan copies an obs span tree through its public accessors.
func fromSpan(s *obs.Span) *node {
	n := &node{name: s.Name(), dur: s.Duration(), function: s.Attr("function")}
	for _, c := range s.Children() {
		n.children = append(n.children, fromSpan(c))
	}
	return n
}

// probeFamily maps an eval span's function attribute to the MST kernel
// family that answers its probes. DENSE_RANK probes the range tree and is
// handled by the caller.
func probeFamily(function string) string {
	switch function {
	case "percentile_disc", "percentile_cont", "nth_value", "first_value", "last_value":
		return "select"
	case "count(distinct)":
		return "count"
	case "sum(distinct)", "avg(distinct)":
		return "agg"
	case "rank", "row_number", "percent_rank", "cume_dist", "ntile":
		return "rank"
	}
	return ""
}

// layerOf names the layer a span's own time belongs to. Spans the engine
// does not mark as a layer (eval groupings, workers, merge levels) inherit
// the layer of their parent; function is the enclosing eval span's.
func layerOf(name, function, inherited string) string {
	switch {
	case name == "partition+order sort":
		return layerSort
	case strings.HasPrefix(name, "preprocess: "):
		return layerPreprocess
	case name == "build merge sort tree":
		if function == "dense_rank" {
			return layerRTBuild
		}
		return layerMSTBuild
	case name == "mst.query.batch" || name == "probe":
		if function == "dense_rank" {
			return layerRTProbe
		}
		if fam := probeFamily(function); fam != "" {
			return layerProbe + fam
		}
	}
	return inherited
}

// selfTimes attributes root's wall time to layers, in milliseconds. A
// span's self time is its duration minus its children's; nested phases
// (probe inside mst.query.batch) therefore count once. When children
// overlap — parallel workers, whose durations sum past their parent's — the
// parent's duration is split among them in proportion to their durations,
// so no instant is counted twice and the layers always sum to the root.
func selfTimes(root *node) map[string]float64 {
	out := make(map[string]float64)
	var visit func(n *node, layer, function string, scale float64)
	visit = func(n *node, layer, function string, scale float64) {
		if n.function != "" {
			function = n.function
		}
		layer = layerOf(n.name, function, layer)
		dur := float64(n.dur) / float64(time.Millisecond)
		var sum float64
		for _, c := range n.children {
			sum += float64(c.dur) / float64(time.Millisecond)
		}
		childScale := scale
		if sum > dur {
			childScale = scale * dur / sum
		} else {
			out[layer] += (dur - sum) * scale
		}
		for _, c := range n.children {
			visit(c, layer, function, childScale)
		}
	}
	visit(root, layerOther, "", 1)
	return out
}

// counters are the layer counters windowd exports, read either from a
// /v1/metrics scrape or, for in-process runs, from the packages directly.
type counters struct {
	CacheHits, CacheMisses, CacheEvictions, CacheBytes    float64
	DeltaBatches, DeltaCompactions, DeltaMaterializations float64
	PoolGets, PoolMisses, ArenaBytes                      float64
	BatchQueries, BatchDedupHits                          float64
}

// requiredFamilies are the metric families the layer metrics are computed
// from. A scrape lacking any of them is an error, so renaming a counter
// cannot silently zero a layer.
var requiredFamilies = []string{
	"windowd_cache_events_total",
	"windowd_cache_bytes",
	"windowd_delta_batches_total",
	"windowd_delta_compactions_total",
	"windowd_delta_materializations_total",
	"windowd_pool_gets_total",
	"windowd_pool_misses_total",
	"windowd_arena_allocated_bytes_total",
	"windowd_mst_batch_queries",
	"windowd_mst_batch_dedup_hits",
}

// familySum sums every series of the family name.
func familySum(p *obs.ParsedMetrics, name string) float64 {
	var total float64
	for id, v := range p.Samples {
		if id == name || strings.HasPrefix(id, name+"{") {
			total += v
		}
	}
	return total
}

// parseCounters reads the layer counters out of a /v1/metrics exposition.
func parseCounters(text string) (counters, error) {
	p, err := obs.ParseText(text)
	if err != nil {
		return counters{}, fmt.Errorf("parse /v1/metrics: %w", err)
	}
	var missing []string
	for _, fam := range requiredFamilies {
		if _, ok := p.Types[fam]; !ok {
			missing = append(missing, fam)
		}
	}
	event := func(name string) float64 {
		v, ok := p.Value("windowd_cache_events_total", "event="+name)
		if !ok {
			missing = append(missing, `windowd_cache_events_total{event="`+name+`"}`)
		}
		return v
	}
	c := counters{
		CacheHits:             event("hit"),
		CacheMisses:           event("miss"),
		CacheEvictions:        event("eviction"),
		CacheBytes:            familySum(p, "windowd_cache_bytes"),
		DeltaBatches:          familySum(p, "windowd_delta_batches_total"),
		DeltaCompactions:      familySum(p, "windowd_delta_compactions_total"),
		DeltaMaterializations: familySum(p, "windowd_delta_materializations_total"),
		PoolGets:              familySum(p, "windowd_pool_gets_total"),
		PoolMisses:            familySum(p, "windowd_pool_misses_total"),
		ArenaBytes:            familySum(p, "windowd_arena_allocated_bytes_total"),
		BatchQueries:          familySum(p, "windowd_mst_batch_queries"),
		BatchDedupHits:        familySum(p, "windowd_mst_batch_dedup_hits"),
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return counters{}, fmt.Errorf("/v1/metrics lacks %s", strings.Join(missing, ", "))
	}
	return c, nil
}

// processCounters reads the arena and batch counters inside the benchmark
// process, which runs without a tree cache or live datasets.
func processCounters() counters {
	var c counters
	for _, ps := range arena.Snapshot() {
		c.PoolGets += float64(ps.Gets)
		c.PoolMisses += float64(ps.Misses)
	}
	c.ArenaBytes = float64(arena.ArenaSnapshot().Bytes)
	b := core.BatchSnapshot()
	c.BatchQueries, c.BatchDedupHits = float64(b.Queries), float64(b.DedupHits)
	return c
}

// since returns the counter growth from start to c. CacheBytes is a gauge
// and keeps c's value.
func (c counters) since(start counters) counters {
	return counters{
		CacheHits:             c.CacheHits - start.CacheHits,
		CacheMisses:           c.CacheMisses - start.CacheMisses,
		CacheEvictions:        c.CacheEvictions - start.CacheEvictions,
		CacheBytes:            c.CacheBytes,
		DeltaBatches:          c.DeltaBatches - start.DeltaBatches,
		DeltaCompactions:      c.DeltaCompactions - start.DeltaCompactions,
		DeltaMaterializations: c.DeltaMaterializations - start.DeltaMaterializations,
		PoolGets:              c.PoolGets - start.PoolGets,
		PoolMisses:            c.PoolMisses - start.PoolMisses,
		ArenaBytes:            c.ArenaBytes - start.ArenaBytes,
		BatchQueries:          c.BatchQueries - start.BatchQueries,
		BatchDedupHits:        c.BatchDedupHits - start.BatchDedupHits,
	}
}

// plus adds the growth o to c. CacheBytes is a gauge and takes o's value.
func (c counters) plus(o counters) counters {
	return counters{
		CacheHits:             c.CacheHits + o.CacheHits,
		CacheMisses:           c.CacheMisses + o.CacheMisses,
		CacheEvictions:        c.CacheEvictions + o.CacheEvictions,
		CacheBytes:            o.CacheBytes,
		DeltaBatches:          c.DeltaBatches + o.DeltaBatches,
		DeltaCompactions:      c.DeltaCompactions + o.DeltaCompactions,
		DeltaMaterializations: c.DeltaMaterializations + o.DeltaMaterializations,
		PoolGets:              c.PoolGets + o.PoolGets,
		PoolMisses:            c.PoolMisses + o.PoolMisses,
		ArenaBytes:            c.ArenaBytes + o.ArenaBytes,
		BatchQueries:          c.BatchQueries + o.BatchQueries,
		BatchDedupHits:        c.BatchDedupHits + o.BatchDedupHits,
	}
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics turns counter growth over a run into per-layer metrics;
// queries and rows are the statements and result rows the run evaluated.
func counterMetrics(d counters, queries, rows float64) map[string]float64 {
	const mib = 1 << 20
	return map[string]float64{
		"mst.batch_queries_per_row": ratio(d.BatchQueries, rows),
		"mst.dedup_ratio":           ratio(d.BatchDedupHits, d.BatchQueries+d.BatchDedupHits),
		"treecache.hit_ratio":       ratio(d.CacheHits, d.CacheHits+d.CacheMisses),
		"treecache.evictions":       d.CacheEvictions,
		"treecache.mb":              d.CacheBytes / mib,
		"delta.batches":             d.DeltaBatches,
		"delta.compactions":         d.DeltaCompactions,
		"delta.materializations":    d.DeltaMaterializations,
		"arena.pool_miss_ratio":     ratio(d.PoolMisses, d.PoolGets),
		"arena.mb_per_query":        ratio(d.ArenaBytes/mib, queries),
	}
}
