// Package mst implements the merge sort tree from "Efficient Evaluation of
// Arbitrarily-Framed Holistic SQL Aggregates and Window Functions"
// (SIGMOD 2022), §4 and §5.1.
//
// A merge sort tree over an array keeps the intermediate sorted runs of a
// (multiway) merge sort: level 0 is the original array, level l consists of
// sorted runs of length fanoutˡ, and the top level is one fully sorted run.
// The tree supports two-dimensional range queries over (position, value):
//
//   - CountBelow: how many entries in positions [lo, hi) have a value
//     smaller than a threshold — the primitive behind framed COUNT DISTINCT
//     (§4.2) and framed rank functions (§4.4);
//   - SelectKth: the i-th entry (in position order) whose value falls in a
//     given range — the primitive behind framed percentiles and value
//     functions (§4.5);
//   - AnnotatedTree additionally stores per-element prefix aggregates so
//     arbitrary distinct distributive aggregates can be framed (§4.3).
//
// Queries run in O(log n) thanks to fractional cascading: every k-th element
// of each run is annotated with, per child run, the number of elements the
// merge had consumed from that child, which bounds the re-search window at
// the child level by k (§4.2, Figures 3 and 4). Both the fanout f and the
// sampling parameter k are configurable; the paper settles on f = k = 32
// (§6.6) and so do we.
//
// Payload values are plain integers: the window operator's preprocessing
// (package preprocess) maps previous-occurrence indices, dense ranks and
// permutation entries to the integer domain [0, n], so trees are built with
// 32-bit elements whenever they fit and 64-bit elements otherwise (§5.1).
package mst

import (
	"fmt"
	"math"

	"holistic/internal/obs"
)

// DefaultFanout is the tree fanout f chosen by the paper's parameter study
// (§6.6, Figure 13).
const DefaultFanout = 32

// DefaultSampleEvery is the cascading-pointer sampling parameter k chosen by
// the paper's parameter study (§6.6, Figure 13).
const DefaultSampleEvery = 32

// Options configures tree construction.
type Options struct {
	// Fanout is the number of child runs merged into one parent run (f).
	// 0 selects DefaultFanout. Must be >= 2 otherwise.
	Fanout int
	// SampleEvery is the cascading-pointer sampling distance (k): every
	// k-th element of a run carries pointers into the child runs.
	// 0 selects DefaultSampleEvery. Must be >= 1 otherwise.
	SampleEvery int
	// NoCascading disables fractional cascading entirely; every level is
	// then located with a full binary search, degrading queries to
	// O((log n)²) as in Figure 2. Kept for the ablation benchmarks.
	NoCascading bool
	// Force64 forces 64-bit tree elements even when the payload domain fits
	// into 32 bits. Kept for the ablation benchmarks (§5.1 argues the
	// 32-bit representation wins through lower memory bandwidth).
	Force64 bool
	// Serial disables parallel construction.
	Serial bool
	// Trace, when non-nil, receives one child span per merge level during
	// construction. It never influences the built structure, so it is
	// excluded from structural signatures and not persisted by Serialize.
	Trace *obs.Span
}

func (o Options) withDefaults() Options {
	if o.Fanout == 0 {
		o.Fanout = DefaultFanout
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = DefaultSampleEvery
	}
	return o
}

func (o Options) validate() error {
	if o.Fanout < 2 {
		return fmt.Errorf("mst: fanout must be >= 2, got %d", o.Fanout)
	}
	if o.SampleEvery < 1 {
		return fmt.Errorf("mst: sample distance must be >= 1, got %d", o.SampleEvery)
	}
	return nil
}

// payload is the element type of a tree level: the preprocessed integer
// domain of §5.1.
type payload interface {
	~int32 | ~int64
}

// tree is the generic merge sort tree. levels[0] is a copy of the input;
// levels[top] is a single sorted run.
type tree[P payload] struct {
	n int
	f int // fanout
	k int // sample distance
	// levels[l] holds the concatenated sorted runs of length runLen(l).
	levels [][]P
	// samples[l] (l >= 1) holds the cascading pointers of level l: for run
	// r and sample s (covering the run prefix of length s·k), f int32
	// consumed-element counts, one per child run. Flattened as
	// samples[l][r*stride(l) + s*f + child]. nil when cascading is off.
	samples [][]int32
	// stride[l] is the per-run sample stride at level l, padded to whole
	// cache lines (sampleStride, soa.go).
	stride []int
	// effLen[l] is the run length at level l (f^l), clamped to n at the top.
	effLen []int
	// topCodes is the offset-value code stripe of the top run: the high
	// 32-bit word of every element, used by the batched kernels' top-level
	// searches. Only materialized for 64-bit payload trees of at least
	// ovcMinN elements (soa.go); nil otherwise.
	topCodes []uint32
}

// Tree is a merge sort tree over an int64 payload array. It transparently
// stores 32-bit elements when the payload domain allows (§5.1).
type Tree struct {
	t32 *tree[int32]
	t64 *tree[int64]
	n   int
	opt Options
}

// Build constructs a merge sort tree over keys. The input slice is not
// modified. Keys must be >= 0 (the preprocessing stages only produce
// non-negative integers; the special value "–" is mapped to 0 with all
// indices shifted by one, §5.1).
func Build(keys []int64, opt Options) (*Tree, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if len(keys) >= math.MaxInt32 {
		return nil, fmt.Errorf("mst: input of %d elements exceeds the 2³¹ element limit", len(keys))
	}
	t := &Tree{n: len(keys), opt: opt}
	use32 := !opt.Force64
	if use32 {
		for _, v := range keys {
			if v < 0 || v > math.MaxInt32 {
				use32 = false
				break
			}
		}
	}
	if use32 {
		base := make([]int32, len(keys))
		for i, v := range keys {
			//lint:narrowconv-ok the use32 scan above proved every key is in [0, math.MaxInt32]
			base[i] = int32(v)
		}
		t.t32 = buildTree(base, opt)
	} else {
		base := make([]int64, len(keys))
		copy(base, keys)
		t.t64 = buildTree(base, opt)
	}
	return t, nil
}

// Len returns the number of elements the tree was built over.
func (t *Tree) Len() int { return t.n }

// Is32Bit reports whether the tree stores 32-bit elements.
func (t *Tree) Is32Bit() bool {
	return t.t32 != nil
}

// CountBelow returns the number of entries at positions [lo, hi) whose value
// is strictly smaller than threshold. lo and hi are clamped to [0, Len()].
func (t *Tree) CountBelow(lo, hi int, threshold int64) int {
	if lo < 0 {
		lo = 0
	}
	if hi > t.n {
		hi = t.n
	}
	if lo >= hi {
		return 0
	}
	if t.t32 != nil {
		if threshold <= 0 {
			return 0
		}
		if threshold > math.MaxInt32 {
			return hi - lo
		}
		return t.t32.countBelow(lo, hi, int32(threshold))
	}
	return t.t64.countBelow(lo, hi, threshold)
}

// CountRange returns the number of entries at positions [lo, hi) whose value
// v satisfies vLo <= v < vHi.
func (t *Tree) CountRange(lo, hi int, vLo, vHi int64) int {
	if vHi <= vLo {
		return 0
	}
	return t.CountBelow(lo, hi, vHi) - t.CountBelow(lo, hi, vLo)
}

// SelectKth returns the position (index into the base array) of the i-th
// entry, in position order, whose value v satisfies vLo <= v < vHi.
// i is 0-based. ok is false when fewer than i+1 entries qualify.
func (t *Tree) SelectKth(vLo, vHi int64, i int) (pos int, ok bool) {
	if i < 0 || vHi <= vLo || t.n == 0 {
		return 0, false
	}
	if t.t32 != nil {
		l32 := clampI32(vLo)
		h32 := clampI32(vHi)
		if h32 <= l32 {
			return 0, false
		}
		return t.t32.selectKth(l32, h32, i)
	}
	return t.t64.selectKth(vLo, vHi, i)
}

func clampI32(v int64) int32 {
	if v < 0 {
		return 0
	}
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(v)
}

// Value returns the payload value at base position pos.
func (t *Tree) Value(pos int) int64 {
	if t.t32 != nil {
		return int64(t.t32.levels[0][pos])
	}
	return t.t64.levels[0][pos]
}

// runLen returns f^l clamped to n.
func (t *tree[P]) runLen(level int) int { return t.effLen[level] }

// top returns the index of the topmost level (a single sorted run).
func (t *tree[P]) top() int { return len(t.levels) - 1 }

// run returns the elements of the given run at the given level.
func (t *tree[P]) run(level, run int) []P {
	rl := t.effLen[level]
	start := run * rl
	end := start + rl
	if end > t.n {
		end = t.n
	}
	return t.levels[level][start:end]
}
