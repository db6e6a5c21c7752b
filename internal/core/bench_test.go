package core

import (
	"math/rand"
	"testing"

	"holistic/internal/frame"
	"holistic/internal/mst"
	"holistic/internal/preprocess"
	"holistic/internal/rangetree"
	"holistic/internal/treecache"
)

// The EvalMST benchmarks measure the steady-state per-row probe cost of the
// merge-sort-tree engines with every cached structure already built — the
// regime a warm server operates in. The acceptance bar for the allocation
// work is that the count and select probes run at 0 allocs/op.

// benchPartition assembles one partition plus frame computer exactly the way
// Run does, for a table with no PARTITION BY.
func benchPartition(b *testing.B, n int, f *FuncSpec) (*partition, *frame.Computer) {
	b.Helper()
	rng := rand.New(rand.NewSource(1234))
	tab := randTable(rng, n)
	w := &WindowSpec{
		OrderBy: []SortKey{{Column: "d"}},
		Frame: frame.Spec{
			Mode:  frame.Rows,
			Start: frame.Bound{Type: frame.Preceding, Offset: 100},
			End:   frame.Bound{Type: frame.Following, Offset: 100},
		},
		FrameSet: true,
		Funcs:    []FuncSpec{*f},
	}
	if err := w.validate(tab); err != nil {
		b.Fatal(err)
	}
	sortIdx := preprocess.SortIndices(n, windowComparator(tab, w))
	parts := splitPartitions(tab, w, sortIdx)
	if len(parts) != 1 {
		b.Fatalf("expected 1 partition, got %d", len(parts))
	}
	p := parts[0]
	fc, err := p.frameComputer(p.w.effectiveFrame(&p.w.Funcs[0]))
	if err != nil {
		b.Fatal(err)
	}
	return p, fc
}

// distinctCount is the scalar per-row COUNT(DISTINCT) probe the batched
// collector replaces — one whole-span mst descent plus the hole-chain
// correction — kept as the benchmarks' scalar arm.
func distinctCount(tree *mst.Tree, prev, next []int64, ranges [][2]int) int {
	if len(ranges) == 0 {
		return 0
	}
	a := ranges[0][0]
	d := ranges[len(ranges)-1][1]
	cnt := tree.CountBelow(a, d, int64(a)+1)
	forEachFullyExcluded(prev, next, ranges, func(int) { cnt-- })
	return cnt
}

// BenchmarkEvalMSTCount probes COUNT(DISTINCT) per row against a pre-built
// tree: one frame computation plus one cascaded count query.
func BenchmarkEvalMSTCount(b *testing.B) {
	const n = 20_000
	f := &FuncSpec{Name: CountDistinct, Output: "x", Arg: "v"}
	p, fc := benchPartition(b, n, f)
	var opt Options
	fl := newFiltered(p, &p.w.Funcs[0], f.Arg)
	prev, next := buildDistinctInputs(fl, &p.w.Funcs[0], opt)
	tree, err := mst.Build(prev, opt.Tree)
	if err != nil {
		b.Fatal(err)
	}
	var scratch, mapped [3][2]int
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := i % n
		ranges := fl.frameRanges(fc, row, scratch[:], mapped[:])
		sink += distinctCount(tree, prev, next, ranges)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkEvalMSTSelect probes FIRST_VALUE per row against a pre-built
// permutation tree: one frame computation plus one cascaded selection.
func BenchmarkEvalMSTSelect(b *testing.B) {
	const n = 20_000
	f := &FuncSpec{Name: FirstValue, Output: "x", Arg: "v", OrderBy: []SortKey{{Column: "v"}}}
	p, fc := benchPartition(b, n, f)
	var opt Options
	fl := newFiltered(p, &p.w.Funcs[0], "")
	sortedKept := keptOrder(fl, p.sortedByFuncOrder(&p.w.Funcs[0]), make([]int32, fl.k))
	perm := preprocess.Permutation(sortedKept)
	tree, err := mst.Build(perm, opt.Tree)
	if err != nil {
		b.Fatal(err)
	}
	var scratch, mapped [3][2]int
	var r64 [3][2]int64
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := i % n
		ranges := fl.frameRanges(fc, row, scratch[:], mapped[:])
		size := 0
		for ri, r := range ranges {
			size += r[1] - r[0]
			r64[ri] = [2]int64{int64(r[0]), int64(r[1])}
		}
		if size == 0 {
			continue
		}
		if pos, ok := tree.SelectKthRanges(r64[:len(ranges)], 0); ok {
			sink += fl.orig(int(tree.Value(pos)))
		}
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkEvalMSTCountBatch compares the batched level-synchronous count
// kernel against the scalar per-row descent on the same warm COUNT(DISTINCT)
// probe (sliding ±100 ROWS frame): ns/op is per row, both arms write through
// the same output builder. The bench-regress CI gate tracks both arms; the
// batched/scalar ratio is the tentpole's acceptance number (EXPERIMENTS.md).
func BenchmarkEvalMSTCountBatch(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"20k", 20_000}, {"1M", 1_000_000}} {
		f := &FuncSpec{Name: CountDistinct, Output: "x", Arg: "v"}
		p, fc := benchPartition(b, size.n, f)
		var opt Options
		fl := newFiltered(p, &p.w.Funcs[0], f.Arg)
		prev, next := buildDistinctInputs(fl, &p.w.Funcs[0], opt)
		tree, err := mst.Build(prev, opt.Tree)
		if err != nil {
			b.Fatal(err)
		}
		out := newOutBuilder(f.Output, Int64, size.n)
		for _, arm := range []string{"batched", "scalar"} {
			arm := arm
			b.Run(arm+"-"+size.name, func(b *testing.B) {
				agg := &batchAgg{}
				var scratch, mapped [3][2]int
				const chunkRows = 4096
				// Warm the kernel scratch pools so steady state is measured.
				distinctCountChunk(p, fl, fc, tree, prev, next, out, agg, 0, min(chunkRows, size.n))
				b.ReportAllocs()
				b.ResetTimer()
				row := 0
				for done := 0; done < b.N; {
					c := chunkRows
					if row+c > size.n {
						c = size.n - row
					}
					if done+c > b.N {
						c = b.N - done
					}
					if arm == "batched" {
						distinctCountChunk(p, fl, fc, tree, prev, next, out, agg, row, row+c)
					} else {
						for i := row; i < row+c; i++ {
							ranges := fl.frameRanges(fc, i, scratch[:], mapped[:])
							out.setInt(p.orig(i), int64(distinctCount(tree, prev, next, ranges)))
						}
					}
					done += c
					row += c
					if row == size.n {
						row = 0
					}
				}
			})
		}
	}
}

// BenchmarkEvalMSTSelectBatch compares the batched select kernel against the
// scalar per-row SelectKthRanges descent on a warm FIRST_VALUE probe.
func BenchmarkEvalMSTSelectBatch(b *testing.B) {
	const n = 20_000
	f := &FuncSpec{Name: FirstValue, Output: "x", Arg: "v", OrderBy: []SortKey{{Column: "v"}}}
	p, fc := benchPartition(b, n, f)
	var opt Options
	fl := newFiltered(p, &p.w.Funcs[0], "")
	sortedKept := keptOrder(fl, p.sortedByFuncOrder(&p.w.Funcs[0]), make([]int32, fl.k))
	perm := preprocess.Permutation(sortedKept)
	tree, err := mst.Build(perm, opt.Tree)
	if err != nil {
		b.Fatal(err)
	}
	valueCol := p.t.Column(f.Arg)
	out := newOutBuilder(f.Output, valueCol.Kind(), n)
	for _, arm := range []string{"batched", "scalar"} {
		arm := arm
		b.Run(arm, func(b *testing.B) {
			agg := &batchAgg{}
			var scratch, mapped [3][2]int
			var r64 [3][2]int64
			const chunkRows = 4096
			selectChunk(p, &p.w.Funcs[0], fl, fc, tree, valueCol, out, agg, 0, chunkRows)
			b.ReportAllocs()
			b.ResetTimer()
			row := 0
			for done := 0; done < b.N; {
				c := chunkRows
				if row+c > n {
					c = n - row
				}
				if done+c > b.N {
					c = b.N - done
				}
				if arm == "batched" {
					selectChunk(p, &p.w.Funcs[0], fl, fc, tree, valueCol, out, agg, row, row+c)
				} else {
					for i := row; i < row+c; i++ {
						ranges := fl.frameRanges(fc, i, scratch[:], mapped[:])
						rw := p.orig(i)
						sz := 0
						for ri, r := range ranges {
							sz += r[1] - r[0]
							r64[ri] = [2]int64{int64(r[0]), int64(r[1])}
						}
						if sz == 0 {
							out.setNull(rw)
							continue
						}
						if pos, ok := tree.SelectKthRanges(r64[:len(ranges)], 0); ok {
							out.copyFrom(valueCol, fl.orig(int(tree.Value(pos))), rw)
						} else {
							out.setNull(rw)
						}
					}
				}
				done += c
				row += c
				if row == n {
					row = 0
				}
			}
		})
	}
}

// BenchmarkEvalMSTRunWarm measures a full Run with a warm structure cache —
// the per-request cost a caching server pays after the first query: output
// columns and per-partition bookkeeping, with all trees reused.
func BenchmarkEvalMSTRunWarm(b *testing.B) {
	const n = 20_000
	rng := rand.New(rand.NewSource(1234))
	tab := randTable(rng, n)
	w := &WindowSpec{
		OrderBy: []SortKey{{Column: "d"}},
		Frame: frame.Spec{
			Mode:  frame.Rows,
			Start: frame.Bound{Type: frame.Preceding, Offset: 100},
			End:   frame.Bound{Type: frame.Following, Offset: 100},
		},
		FrameSet: true,
		Funcs: []FuncSpec{
			{Name: CountDistinct, Output: "c", Arg: "v"},
			{Name: FirstValue, Output: "f", Arg: "v", OrderBy: []SortKey{{Column: "v"}}},
		},
	}
	opt := Options{Cache: treecache.New(64 << 20), CacheScope: "bench@v1"}
	if _, err := Run(tab, w, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tab, w, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalMSTAggBatch compares the batched aggregate kernel against the
// scalar annotated descent on a warm SUM(DISTINCT) probe (sliding ±100 ROWS
// frame): ns/op is per row. The batched/scalar ratio at 1M rows is the PR 10
// acceptance number (EXPERIMENTS.md).
func BenchmarkEvalMSTAggBatch(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"20k", 20_000}, {"1M", 1_000_000}} {
		f := &FuncSpec{Name: SumDistinct, Output: "x", Arg: "v"}
		p, fc := benchPartition(b, size.n, f)
		var opt Options
		fl := newFiltered(p, &p.w.Funcs[0], f.Arg)
		prev, next := buildDistinctInputs(fl, &p.w.Funcs[0], opt)
		values := make([]int64, fl.k)
		for j := range values {
			values[j] = p.t.Column(f.Arg).Int64(fl.orig(j))
		}
		add := func(a, b int64) int64 { return a + b }
		sub := func(a, b int64) int64 { return a - b }
		tree, err := mst.BuildAnnotated(prev, values, add, opt.Tree)
		if err != nil {
			b.Fatal(err)
		}
		out := newOutBuilder(f.Output, Int64, size.n)
		emit := func(row int, v int64) { out.setInt(row, v) }
		for _, arm := range []string{"batched", "scalar"} {
			arm := arm
			b.Run(arm+"-"+size.name, func(b *testing.B) {
				agg := &batchAgg{}
				var scratch, mapped [3][2]int
				const chunkRows = 4096
				distinctAggChunk(p, fl, fc, tree, prev, next, values, sub, emit, out, agg, 0, min(chunkRows, size.n))
				b.ReportAllocs()
				b.ResetTimer()
				row := 0
				for done := 0; done < b.N; {
					c := chunkRows
					if row+c > size.n {
						c = size.n - row
					}
					if done+c > b.N {
						c = b.N - done
					}
					if arm == "batched" {
						distinctAggChunk(p, fl, fc, tree, prev, next, values, sub, emit, out, agg, row, row+c)
					} else {
						for i := row; i < row+c; i++ {
							ranges := fl.frameRanges(fc, i, scratch[:], mapped[:])
							rw := p.orig(i)
							if len(ranges) == 0 {
								out.setNull(rw)
								continue
							}
							a := ranges[0][0]
							d := ranges[len(ranges)-1][1]
							v, ok := tree.AggBelow(a, d, int64(a)+1)
							removed := 0
							forEachFullyExcluded(prev, next, ranges, func(h int) {
								v = sub(v, values[h])
								removed++
							})
							total := 0
							for _, r := range ranges {
								total += r[1] - r[0]
							}
							if !ok || total == 0 || tree.CountBelow(a, d, int64(a)+1)-removed == 0 {
								out.setNull(rw)
								continue
							}
							emit(rw, v)
						}
					}
					done += c
					row += c
					if row == size.n {
						row = 0
					}
				}
			})
		}
	}
}

// BenchmarkEvalMSTDenseRankBatch compares the batched depth-synchronous
// range-tree probe against the scalar canonical-decomposition walk on a warm
// framed DENSE_RANK (sliding ±100 ROWS frame): ns/op is per row.
func BenchmarkEvalMSTDenseRankBatch(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"20k", 20_000}, {"1M", 1_000_000}} {
		f := &FuncSpec{Name: DenseRank, Output: "x", OrderBy: []SortKey{{Column: "v"}}}
		p, fc := benchPartition(b, size.n, f)
		var opt Options
		fl := newFiltered(p, &p.w.Funcs[0], "")
		sortedAll := p.sortedByFuncOrder(&p.w.Funcs[0])
		ranksAll, _ := preprocess.DenseRanks(sortedAll, p.funcEqual(&p.w.Funcs[0]))
		ranksKept := make([]int64, fl.k)
		for j := range ranksKept {
			ranksKept[j] = ranksAll[fl.local(j)]
		}
		sortedKept := preprocess.SortIndicesByKeyIn(make([]int32, fl.k), ranksKept)
		sameKept := func(a, b int) bool { return ranksKept[a] == ranksKept[b] }
		prevKept := preprocess.PrevIndices(sortedKept, sameKept)
		nextKept := make([]int64, fl.k)
		for j := range nextKept {
			nextKept[j] = int64(fl.k)
		}
		for i := 1; i < len(sortedKept); i++ {
			if sameKept(int(sortedKept[i-1]), int(sortedKept[i])) {
				nextKept[sortedKept[i-1]] = int64(sortedKept[i])
			}
		}
		rt, err := rangetree.New(ranksKept, prevKept, opt.Tree)
		if err != nil {
			b.Fatal(err)
		}
		out := newOutBuilder(f.Output, Int64, size.n)
		for _, arm := range []string{"batched", "scalar"} {
			arm := arm
			b.Run(arm+"-"+size.name, func(b *testing.B) {
				agg := &batchAgg{}
				var scratch, mapped [3][2]int
				const chunkRows = 4096
				denseRankChunk(p, fl, fc, rt, ranksAll, ranksKept, prevKept, nextKept, out, agg, 0, min(chunkRows, size.n))
				b.ReportAllocs()
				b.ResetTimer()
				row := 0
				for done := 0; done < b.N; {
					c := chunkRows
					if row+c > size.n {
						c = size.n - row
					}
					if done+c > b.N {
						c = b.N - done
					}
					if arm == "batched" {
						denseRankChunk(p, fl, fc, rt, ranksAll, ranksKept, prevKept, nextKept, out, agg, row, row+c)
					} else {
						for i := row; i < row+c; i++ {
							ranges := fl.frameRanges(fc, i, scratch[:], mapped[:])
							rw := p.orig(i)
							if len(ranges) == 0 {
								out.setInt(rw, 1)
								continue
							}
							a := ranges[0][0]
							d := ranges[len(ranges)-1][1]
							cnt := rt.CountDistinctBelow(a, d, ranksAll[i], int64(a)+1)
							forEachFullyExcluded(prevKept, nextKept, ranges, func(h int) {
								if ranksKept[h] < ranksAll[i] {
									cnt--
								}
							})
							out.setInt(rw, int64(cnt)+1)
						}
					}
					done += c
					row += c
					if row == size.n {
						row = 0
					}
				}
			})
		}
	}
}
