package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples within a run: the count, the
// median and quartiles (so run-to-run spread is readable across records),
// and for latencies the highest percentile that still has at least
// tailBeyond samples above it.
type summary struct {
	N       int     `json:"n"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	Beyond  int     `json:"beyond,omitempty"`
}

// tailBeyond is how many samples must lie above a reported tail percentile.
const tailBeyond = 10

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// summarize computes the summary of xs. The tail is the nearest-rank value
// of the highest percentile among 99.9 and the whole percents 99 down to 50
// that leaves at least tailBeyond samples above it; with too few samples
// for any of them the tail is the maximum, recorded as percentile 100.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	pcts := []float64{99.9}
	for p := 99; p >= 50; p-- {
		pcts = append(pcts, float64(p))
	}
	for _, p := range pcts {
		rank := int(math.Ceil(p / 100 * float64(len(s))))
		if rank < 1 || len(s)-rank < tailBeyond {
			continue
		}
		out.TailPct, out.Tail, out.Beyond = p, s[rank-1], len(s)-rank
		return out
	}
	if len(s) > 0 {
		out.TailPct, out.Tail = 100, s[len(s)-1]
	}
	return out
}
