package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"holistic"
	"holistic/internal/tpch"
)

func sp(name string, d time.Duration, children ...*node) *node {
	return &node{name: name, dur: d, children: children}
}

func eval(function string, d time.Duration, children ...*node) *node {
	n := sp("eval", d, children...)
	n.function = function
	return n
}

const msec = time.Millisecond

func sumLayers(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimesCountsNestedPhasesOnce(t *testing.T) {
	root := sp("query", 100*msec,
		sp("plan.group", 95*msec,
			sp("partition+order sort", 20*msec),
			eval("count(distinct)", 70*msec,
				sp("preprocess: sort hashes", 10*msec),
				sp("build merge sort tree", 20*msec, sp("mst: merge level", 15*msec)),
				sp("mst.query.batch", 35*msec,
					sp("probe", 35*msec, sp("worker", 30*msec), sp("worker", 34*msec)))),
		))
	got := selfTimes(root)
	want := map[string]float64{
		layerSort:             20,
		layerPreprocess:       10,
		layerMSTBuild:         20,
		layerProbe + "count":  35,
		layerOther:            15, // self time of query, plan.group and eval
		layerRTBuild:          0,
		layerProbe + "select": 0,
	}
	for l, w := range want {
		if !near(got[l], w) {
			t.Errorf("%s = %v, want %v", l, got[l], w)
		}
	}
	if !near(sumLayers(got), 100) {
		t.Errorf("layers sum to %v ms, want the root's 100", sumLayers(got))
	}
}

func TestSelfTimesSplitsOverlappingChildren(t *testing.T) {
	// Two evaluations ran in parallel inside a 100ms group: their 160ms of
	// durations cover 100ms of wall time, split 5:3.
	root := sp("plan.group", 100*msec,
		eval("percentile_disc", 100*msec, sp("mst.query.batch", 100*msec)),
		eval("dense_rank", 60*msec, sp("build merge sort tree", 30*msec), sp("probe", 30*msec)))
	got := selfTimes(root)
	if !near(got[layerProbe+"select"], 62.5) || !near(got[layerRTBuild], 18.75) || !near(got[layerRTProbe], 18.75) {
		t.Errorf("overlap split wrong: %v", got)
	}
	if !near(sumLayers(got), 100) {
		t.Errorf("layers sum to %v ms, want 100", sumLayers(got))
	}
}

func TestSelfTimeSharesNeverExceedTheRoot(t *testing.T) {
	names := []string{"eval", "probe", "mst.query.batch", "build merge sort tree", "worker", "preprocess: x", "partition+order sort"}
	functions := []string{"", "rank", "dense_rank", "sum(distinct)", "count(distinct)", "percentile_disc"}
	rng := rand.New(rand.NewSource(1))
	var grow func(depth int) *node
	grow = func(depth int) *node {
		n := sp(names[rng.Intn(len(names))], time.Duration(rng.Intn(100)+1)*msec)
		n.function = functions[rng.Intn(len(functions))]
		if depth < 4 {
			for i := rng.Intn(4); i > 0; i-- {
				n.children = append(n.children, grow(depth+1))
			}
		}
		return n
	}
	for i := 0; i < 500; i++ {
		root := grow(0)
		got := selfTimes(root)
		for l, v := range got {
			if v < 0 {
				t.Fatalf("tree %d: layer %s is negative: %v", i, l, v)
			}
		}
		if s, total := sumLayers(got), float64(root.dur)/float64(msec); s > total*(1+1e-9) {
			t.Fatalf("tree %d: layers sum to %v ms, root is %v ms", i, s, total)
		}
	}
}

func TestSelfTimesOfARealTrace(t *testing.T) {
	li := tpch.GenerateLineitem(5000, 1)
	root := holistic.NewTrace("query")
	if _, err := holistic.RunSQLWith(evalSQL(300), map[string]*holistic.Table{"lineitem": li.Table()}, holistic.WithTrace(root)); err != nil {
		t.Fatal(err)
	}
	root.End()
	got := selfTimes(fromSpan(root))
	total := float64(root.Duration()) / float64(msec)
	if s := sumLayers(got); s > total*(1+1e-9) {
		t.Errorf("layers sum to %v ms, root is %v ms", s, total)
	}
	for _, l := range []string{layerSort, layerMSTBuild, layerProbe + "select", layerProbe + "count", layerProbe + "agg", layerProbe + "rank", layerRTBuild, layerRTProbe} {
		if got[l] <= 0 {
			t.Errorf("layer %s has no time in the eval-cold statement's trace", l)
		}
	}
	for l := range got {
		if !strings.Contains(strings.Join(spanLayers, " "), l) {
			t.Errorf("selfTimes reports unlisted layer %s", l)
		}
	}
}
