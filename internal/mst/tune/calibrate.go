package tune

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"holistic/internal/mst"
)

// Config shapes a calibration run. Zero fields take the defaults below.
type Config struct {
	// Sizes is the ascending ladder of partition sizes to measure. Each
	// measured size becomes one table row; the row's MaxN boundary is the
	// geometric midpoint to the next size (the crossover is closer to
	// multiplicative than additive in n).
	Sizes []int
	// Fanouts and Samples are the candidate f and k values; every (f, k)
	// pair is measured per size.
	Fanouts []int
	Samples []int
	// ProbeWeight scales probe time against build time in the score:
	// score = build + ProbeWeight·probe. A cached tree amortizes its build
	// over many probe passes, so weights > 1 model steady-state serving.
	ProbeWeight float64
	// Rounds repeats each measurement, keeping the fastest round (minimum
	// filters scheduler noise better than the mean).
	Rounds int
	// Seed fixes the synthetic workload, so two calibration runs on one
	// machine measure identical work.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{128, 1024, 16384, 262144}
	}
	if len(c.Fanouts) == 0 {
		c.Fanouts = []int{8, 16, 32}
	}
	if len(c.Samples) == 0 {
		c.Samples = []int{8, 16, 32}
	}
	if c.ProbeWeight == 0 {
		c.ProbeWeight = 4
	}
	if c.Rounds == 0 {
		c.Rounds = 3
	}
	return c
}

// Calibrate measures build and probe times over Config's size ladder and
// returns the winning (f, k) per size band. The workload mirrors the window
// operator's: trees over previous-occurrence-style keys, probed with a full
// sliding-frame pass of batched count queries (the shape every probe family
// reduces to). Wall-clock noise makes the result machine- and
// run-specific; use Default() when reproducibility across machines matters
// more than the last few percent.
func Calibrate(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	rows := make([]Row, 0, len(cfg.Sizes))
	for si, n := range cfg.Sizes {
		if n < 1 {
			return nil, fmt.Errorf("tune: calibration size %d out of range", n)
		}
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(n + 1))
		}
		probes := n
		if probes > 8192 {
			probes = 8192
		}
		lo := make([]int32, probes)
		hi := make([]int32, probes)
		thr := make([]int64, probes)
		out := make([]int32, probes)
		window := n / 4
		if window < 1 {
			window = 1
		}
		for q := 0; q < probes; q++ {
			start := q * (n - window + 1) / probes
			lo[q], hi[q] = int32(start), int32(start+window)
			thr[q] = int64(start) + 1
		}

		best := Row{MaxN: n}
		bestScore := math.Inf(1)
		for _, f := range cfg.Fanouts {
			for _, k := range cfg.Samples {
				opt := mst.Options{Fanout: f, SampleEvery: k}
				var tree *mst.Tree
				build := measure(cfg.Rounds, func() {
					t, err := mst.Build(keys, opt)
					if err != nil {
						//lint:invariant candidate (f, k) grids are bounded positive ints and sizes are validated above, so Build cannot reject them
						panic(err)
					}
					tree = t
				})
				probe := measure(cfg.Rounds, func() {
					tree.CountBelowBatch(lo, hi, thr, out)
				})
				score := build + cfg.ProbeWeight*probe
				if score < bestScore {
					bestScore = score
					best = Row{MaxN: n, Fanout: f, SampleEvery: k}
				}
			}
		}
		if si+1 < len(cfg.Sizes) {
			// Band boundary at the geometric midpoint to the next size.
			best.MaxN = int(math.Sqrt(float64(n) * float64(cfg.Sizes[si+1])))
		} else {
			best.MaxN = 1 << 62
		}
		rows = append(rows, best)
	}
	return NewTable(rows)
}

// measure runs fn `rounds` times and returns the fastest round in seconds.
func measure(rounds int, fn func()) float64 {
	bestNs := int64(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		fn()
		if d := time.Since(start).Nanoseconds(); d < bestNs {
			bestNs = d
		}
	}
	return float64(bestNs) / 1e9
}
