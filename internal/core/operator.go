package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"holistic/internal/mst"
	"holistic/internal/obs"
	"holistic/internal/parallel"
	"holistic/internal/preprocess"
)

// Options tunes the window operator.
type Options struct {
	// Tree configures the merge sort trees (fanout, sampling, cascading).
	Tree mst.Options
	// TaskSize is the parallel task granularity in rows (default 20 000,
	// the Hyper task size the paper uses, §5.5).
	TaskSize int
	// Trace, when non-nil, is the span the run records itself under: one
	// child span per phase, per (partition, function) evaluation and per
	// parallel worker, with cache keys and row counts as attributes. The
	// caller owns the span and ends it; Run only attaches children; its
	// PhaseTotals give the per-phase timings of Figure 14. A nil Trace
	// disables tracing at zero allocation cost on the probe path.
	Trace *obs.Span
	// DefaultEngine substitutes the evaluation engine for every function
	// whose Engine field was left at the zero value. The zero value *is*
	// the merge sort tree, so setting DefaultEngine to
	// EngineMergeSortTree (or leaving it zero) changes nothing, and
	// per-function competitor engine choices always win over the default.
	DefaultEngine Engine
	// Workers, when > 0, caps the number of parallel workers used by this
	// run's context-aware loops, below the process-wide limit
	// (parallel.SetMaxWorkers). The cap travels in the run's context, so
	// it applies to the sort, build and probe loops but never leaks into
	// concurrent runs.
	Workers int
	// Context, when non-nil, cancels the evaluation cooperatively: the
	// operator checks it between phases and between parallel task chunks,
	// so a cancelled caller stops burning cores after at most one chunk
	// per worker. Run returns the context's error when cut short.
	Context context.Context
	// Cache, when non-nil together with a non-empty CacheScope, is
	// consulted before building sort orders, merge sort trees and
	// preprocessed key arrays, enabling cross-query structure reuse (see
	// TreeCache).
	Cache TreeCache
	// CacheScope prefixes every cache key and must uniquely identify the
	// table's content version (e.g. "orders@v3"): callers bump it whenever
	// the table changes, which implicitly invalidates all structures built
	// against the previous version. With an empty scope the cache is
	// bypassed.
	CacheScope string
	// trace is the span the current piece of work records under: Run
	// points it at the root, evalFunc at the per-evaluation span. It is
	// threaded through the value-copied Options so concurrent evaluations
	// never share a current-span variable.
	trace *obs.Span
	// Delta, when non-nil, describes the table as a frozen base plus a
	// mutation overlay (see DeltaView): phase 1 then merges the cached
	// frozen sort order with a sorted run over the overlay instead of
	// re-sorting, and per-partition cache keys switch to content+epoch form
	// so untouched partitions reuse their structures across epochs. Results
	// are byte-identical to evaluating the same table without a view.
	Delta *DeltaView
}

func (o Options) taskSize() int {
	if o.TaskSize > 0 {
		return o.TaskSize
	}
	return parallel.DefaultTaskSize
}

// Run evaluates a window specification over a table, returning one output
// column per window function, aligned with the input's original row order.
//
// The pipeline follows §5/§6.7: one parallel sort establishes partitioning
// and window order for all functions; each (partition, function) pair then
// runs its preprocessing, builds its index structure, and probes it for
// every row in parallel tasks.
func Run(t *Table, w *WindowSpec, opt Options) (*Result, error) {
	res, err := RunShared(t, w.PartitionBy, w.OrderBy, []*WindowSpec{w}, opt)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunShared evaluates several window specifications over one shared sort:
// the table is sorted once by (partitionBy, orderBy), partition boundaries
// are found once, and every window then evaluates its functions over views
// of the shared partitions. Each window's PARTITION BY must equal
// partitionBy as a set, and its ORDER BY must be a prefix of orderBy.
//
// Soundness is the caller's contract (internal/plan enforces it): a window
// whose ORDER BY is a strict prefix of orderBy sees its peer groups
// permuted by the refined sort, so it may only carry functions whose
// results are determined by frame row sets, not row positions — RANGE and
// GROUPS frames with order-insensitive functions. Windows whose ORDER BY
// equals orderBy are unrestricted. One result is returned per window, in
// input order.
func RunShared(t *Table, partitionBy []string, orderBy []SortKey, windows []*WindowSpec, opt Options) ([]*Result, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("core: shared run has no windows")
	}
	sortSpec := &WindowSpec{PartitionBy: partitionBy, OrderBy: orderBy}
	for _, w := range windows {
		if err := w.validate(t); err != nil {
			return nil, err
		}
		if err := checkSharable(w, sortSpec); err != nil {
			return nil, err
		}
	}
	root := opt.Trace
	opt.trace = root
	n := t.Rows()
	if n >= math.MaxInt32 {
		return nil, fmt.Errorf("core: table has %d rows; row indices are represented as int32, capping a run at %d rows", n, math.MaxInt32-1)
	}
	nFuncs := 0
	for _, w := range windows {
		nFuncs += len(w.Funcs)
	}
	root.SetInt("rows", int64(n))
	root.SetInt("functions", int64(nFuncs))
	if len(windows) > 1 {
		root.SetInt("windows", int64(len(windows)))
	}
	if opt.Workers > 0 {
		opt.Context = parallel.ContextWithLimit(opt.Context, opt.Workers)
	}
	if err := opt.ctxErr(); err != nil {
		return nil, err
	}

	// Phase 1: sort by (PARTITION BY, ORDER BY) — shared by every function,
	// and with a cache also across queries: any query whose window agrees
	// on partitioning and ordering reuses the order (the shared-sort
	// observation of Cao et al., lifted to the request level).
	sortSpan := root.Phase("partition+order sort")
	sortOpt := opt
	sortOpt.trace = sortSpan
	var cs cachedSort
	var sortErr error
	if opt.Delta != nil {
		// Delta path: merge the generation-stable frozen sort with a sorted
		// run over the overlay, cached per epoch.
		if err := opt.Delta.validate(t); err != nil {
			sortSpan.End()
			return nil, err
		}
		cs, sortErr = cacheGet(sortOpt, epochTag(opt.Delta.Epoch)+"|sortidx|"+windowSig(sortSpec), func() (cachedSort, int64, error) {
			idx, err := deltaSortIndices(t, sortSpec, sortOpt)
			if err != nil {
				return cachedSort{}, 0, err
			}
			return cachedSort{idx: idx}, int64(4 * len(idx)), nil
		})
	} else {
		cs, sortErr = cacheGet(sortOpt, "sortidx|"+windowSig(sortSpec), func() (cachedSort, int64, error) {
			idx := preprocess.SortIndices(n, windowComparator(t, sortSpec))
			return cachedSort{idx: idx}, int64(4 * len(idx)), nil
		})
	}
	sortSpan.End()
	sortIdx := cs.idx
	if sortErr != nil {
		return nil, sortErr
	}
	if err := opt.ctxErr(); err != nil {
		return nil, err
	}

	// Phase 2: find partition boundaries.
	var parts []*partition
	root.Timed("partition boundaries", func() {
		parts = splitPartitions(t, sortSpec, sortIdx)
	})
	if opt.Delta != nil && opt.cacheActive() {
		// Re-key partitions by content + last-change epoch: ordinal keys
		// would alias different contents across epochs under one scope.
		if err := stampPartitions(t, sortSpec, parts, opt); err != nil {
			return nil, err
		}
	}
	if err := opt.ctxErr(); err != nil {
		return nil, err
	}

	// Each window sees the shared partitions through its own views: same
	// sorted rows, stamps and function-order sort cache, but the window's
	// own peer groups and RANGE keys. Structure-cache keys carry the
	// executed sort's signature, so views of different windows share
	// entries (and stay key-compatible with unshared runs of the same
	// sort, where the signature coincides with the window's own).
	sig := windowSig(sortSpec)
	views := make([][]*partition, len(windows))
	for wi, w := range windows {
		views[wi] = make([]*partition, len(parts))
		for pi, p := range parts {
			views[wi][pi] = p.viewFor(w, sig)
		}
	}

	// Phase 3: evaluate every (partition, window, function) triple. Output
	// columns are written at original row positions directly.
	outs := make([][]*outBuilder, len(windows))
	for wi, w := range windows {
		outs[wi] = make([]*outBuilder, len(w.Funcs))
		for i := range w.Funcs {
			f := &w.Funcs[i]
			outs[wi][i] = newOutBuilder(f.Output, outputKind(t, f), n)
		}
	}
	var errMu sync.Mutex
	var firstErr error
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	// Partitions run sequentially, functions within a partition too; the
	// heavy parallelism lives inside each evaluation (sorting, tree build,
	// probe tasks). For many small partitions the inner parallel calls
	// degenerate to serial loops, so we additionally parallelise across
	// partitions when there are many of them.
	evalPart := func(pi int) {
		for wi, w := range windows {
			p := views[wi][pi]
			for fi := range w.Funcs {
				f := &w.Funcs[fi]
				if err := evalFuncCached(p, f, outs[wi][fi], opt); err != nil {
					setErr(fmt.Errorf("%v (%s): %w", f.Name, f.Output, err))
					return
				}
			}
		}
	}
	if len(parts) >= 2*parallel.Workers() && parallel.Workers() > 1 {
		if err := parallel.ForEachContext(opt.Context, len(parts), evalPart); err != nil {
			setErr(err)
		}
	} else {
		for pi := range parts {
			if err := opt.ctxErr(); err != nil {
				setErr(err)
				break
			}
			evalPart(pi)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	results := make([]*Result, len(windows))
	for wi := range windows {
		cols := make([]*Column, len(outs[wi]))
		for i, b := range outs[wi] {
			cols[i] = b.column()
		}
		res, err := NewTable(cols...)
		if err != nil {
			return nil, err
		}
		results[wi] = &Result{table: res}
	}
	return results, nil
}

// checkSharable verifies a window fits under a shared sort: same PARTITION
// BY column set, window ORDER BY a prefix of the executed order. The
// semantic gate (which functions tolerate a refined sort) lives in the
// planner; this check only rejects structurally incompatible windows that
// would silently evaluate against the wrong order.
func checkSharable(w, sortSpec *WindowSpec) error {
	if !samePartitionSet(w.PartitionBy, sortSpec.PartitionBy) {
		return fmt.Errorf("core: window partitioning %v does not match shared sort partitioning %v", w.PartitionBy, sortSpec.PartitionBy)
	}
	if len(w.OrderBy) > len(sortSpec.OrderBy) {
		return fmt.Errorf("core: window ORDER BY longer than the shared sort order")
	}
	for i, k := range w.OrderBy {
		if sortSpec.OrderBy[i] != k {
			return fmt.Errorf("core: window ORDER BY is not a prefix of the shared sort order")
		}
	}
	return nil
}

// samePartitionSet reports whether two PARTITION BY lists name the same
// column set (listing order does not affect partitioning).
func samePartitionSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	seen := make(map[string]int, len(a))
	for _, c := range a {
		seen[c]++
	}
	for _, c := range b {
		seen[c]--
		if seen[c] < 0 {
			return false
		}
	}
	return true
}

// windowComparator orders rows by (PARTITION BY, ORDER BY).
func windowComparator(t *Table, w *WindowSpec) func(a, b int) int {
	partCols := make([]*Column, len(w.PartitionBy))
	for i, name := range w.PartitionBy {
		partCols[i] = t.Column(name)
	}
	orderCols := make([]*Column, len(w.OrderBy))
	for i, k := range w.OrderBy {
		orderCols[i] = t.Column(k.Column)
	}
	return func(a, b int) int {
		for _, c := range partCols {
			if r := c.Compare(a, b, false, true); r != 0 {
				return r
			}
		}
		for i, k := range w.OrderBy {
			if r := k.compare(orderCols[i], a, b); r != 0 {
				return r
			}
		}
		return 0
	}
}

// splitPartitions cuts the sorted index array at partition-key changes.
func splitPartitions(t *Table, w *WindowSpec, sortIdx []int32) []*partition {
	n := len(sortIdx)
	if n == 0 {
		return nil
	}
	partCols := make([]*Column, len(w.PartitionBy))
	for i, name := range w.PartitionBy {
		partCols[i] = t.Column(name)
	}
	samePart := func(a, b int32) bool {
		for _, c := range partCols {
			if !c.equalAt(int(a), int(b)) {
				return false
			}
		}
		return true
	}
	var parts []*partition
	start := 0
	for i := 1; i <= n; i++ {
		if i == n || !samePart(sortIdx[i-1], sortIdx[i]) {
			parts = append(parts, &partition{t: t, w: w, ord: len(parts), rows: sortIdx[start:i], fsort: &funcSortCache{}})
			start = i
		}
	}
	return parts
}

// outputKind determines a function's result column type.
func outputKind(t *Table, f *FuncSpec) Kind {
	switch f.Name {
	case CountStar, Count, CountDistinct, Rank, DenseRank, RowNumber, Ntile:
		return Int64
	case PercentRank, CumeDist, Avg, AvgDistinct, PercentileCont:
		return Float64
	case Sum, SumDistinct:
		return t.Column(f.Arg).Kind()
	case Min, Max:
		return t.Column(f.Arg).Kind()
	case PercentileDisc:
		return t.Column(percentileValueColumn(f)).Kind()
	case NthValue, FirstValue, LastValue, Lead, Lag:
		return t.Column(f.Arg).Kind()
	}
	return Int64
}

// percentileValueColumn is the column a percentile returns values from: its
// first function-level ORDER BY key.
func percentileValueColumn(f *FuncSpec) string {
	return f.OrderBy[0].Column
}

// evalFunc evaluates one function over one partition with the selected
// engine, under a structural "eval" span carrying the function, engine,
// partition ordinal and row count.
func evalFunc(p *partition, f *FuncSpec, out *outBuilder, opt Options) error {
	eng := f.Engine
	if eng == EngineMergeSortTree {
		eng = opt.DefaultEngine // zero value: still the merge sort tree
	}
	if sp := opt.trace.Child("eval"); sp != nil {
		defer sp.End()
		sp.Set("function", f.Name.String())
		sp.Set("engine", eng.String())
		sp.SetInt("partition", int64(p.ord))
		sp.SetInt("rows", int64(p.len()))
		opt.trace = sp
	}
	spec := p.w.effectiveFrame(f)
	fc, err := p.frameComputer(spec)
	if err != nil {
		return err
	}
	switch eng {
	case EngineMergeSortTree:
		return evalMST(p, f, fc, out, opt)
	case EngineNaive, EngineIncremental, EngineOSTree:
		return evalCompetitor(p, f, fc, out, opt)
	case EngineSegmentTree:
		return evalSegTree(p, f, fc, out, opt)
	}
	return fmt.Errorf("unknown engine %v", eng)
}

// forEachRow runs body over all partition rows in parallel tasks; body is
// subject to the same disjointness contract as parallel.For bodies. The
// options context cancels the loop between chunks; the context's error is
// returned when the loop was cut short. The loop runs under a "probe"
// phase span carried in the context, so parallel workers attach their
// per-worker spans beneath it.
//
//lint:parallel-entry
func forEachRow(p *partition, opt Options, body func(lo, hi int)) error {
	ctx := opt.Context
	if sp := opt.trace.Phase("probe"); sp != nil {
		defer sp.End()
		ctx = obs.ContextWith(ctx, sp)
	}
	return parallel.ForContext(ctx, p.len(), opt.taskSize(), body)
}
