package mst

import (
	"math"
	"unsafe"

	"holistic/internal/arena"
	"holistic/internal/parallel"
)

// Level spans: buildTree opens one "mst: merge level" span per level under
// Options.Trace (package obs), annotated with the level number and run
// count, so a trace shows where construction time goes as the runs grow.

// buildTree constructs the tree levels bottom-up (§4.2): level l is produced
// by f-way merges of the runs of level l-1. The merge keeps, every k
// outputs, a snapshot of how many elements it has consumed from each child
// run — these snapshots are exactly the fractional-cascading pointers of
// Figure 4, produced "as a byproduct of constructing the merge sort tree by
// persisting the input iterators used during the merge steps".
//
// Lower levels have many runs, so runs are batched into tasks of roughly
// DefaultTaskSize tuples; upper levels have few runs, so the merge itself is
// split into independent output pieces whose child splits are found with a
// rank binary search over the value domain (§5.2).
//
// Allocation discipline: the level and sample arrays for the whole tree are
// carved out of one arena slab per element type (their total size is known
// up front), and each merge task borrows its scratch state — consumed
// counters, tournament tree, head values — from the shared pools, so a
// steady stream of builds allocates only the slabs themselves.
func buildTree[P payload](base []P, opt Options) *tree[P] {
	n := len(base)
	t := &tree[P]{n: n, f: opt.Fanout, k: opt.SampleEvery}
	t.levels = [][]P{base}
	t.samples = [][]int32{nil}
	t.stride = []int{0}
	t.effLen = []int{1}
	if n <= 1 {
		return t
	}
	cascade := !opt.NoCascading

	// Pre-size one slab per element type so the arena never grows: every
	// level holds exactly n payload elements, and the sample table size per
	// level follows from the run count and stride.
	totalP, totalS := 0, 0
	// Each level's slab is cache-line aligned (AllocAligned), so budget one
	// line of alignment slack per stripe on top of the exact sizes.
	slackP := cacheLineBytes / int(unsafe.Sizeof(*new(P)))
	for rl := 1; rl < n; {
		rl *= t.f
		if rl > n {
			rl = n
		}
		totalP += n + slackP
		if cascade {
			numRuns := (n + rl - 1) / rl
			totalS += numRuns*sampleStride(rl, t.k, t.f) + cacheLineBytes/4
		}
	}
	arP := arena.New[P](totalP)
	var arS *arena.Arena[int32]
	if totalS > 0 {
		arS = arena.New[int32](totalS)
	}

	for rl := 1; rl < n; {
		rl *= t.f
		if rl > n {
			rl = n
		}
		level := len(t.levels)
		t.effLen = append(t.effLen, rl)
		t.levels = append(t.levels, arP.AllocAligned(n, cacheLineBytes))
		numRuns := (n + rl - 1) / rl
		var samples []int32
		stride := 0
		if cascade {
			stride = sampleStride(rl, t.k, t.f)
			// Sample slots beyond a run's child count — including the
			// cache-line padding tail of every run row — stay zero; the
			// arena hands out zeroed memory just like make.
			samples = arS.AllocAligned(numRuns*stride, cacheLineBytes)
		}
		t.samples = append(t.samples, samples)
		t.stride = append(t.stride, stride)

		lsp := opt.Trace.Child("mst: merge level")
		lsp.SetInt("level", int64(level))
		lsp.SetInt("runs", int64(numRuns))

		workers := parallel.Workers()
		if opt.Serial || numRuns >= workers || workers == 1 {
			if opt.Serial {
				buf, vals := mergeScratch[P](t.f)
				for r := 0; r < numRuns; r++ {
					t.mergeRun(level, r, samples, stride, buf, vals)
				}
				putMergeScratch(buf, vals)
			} else {
				// Batch runs so one scratch acquisition serves ~one task's
				// worth of tuples.
				runsPerTask := 1
				if rl < parallel.DefaultTaskSize {
					runsPerTask = (parallel.DefaultTaskSize + rl - 1) / rl
				}
				parallel.For(numRuns, runsPerTask, func(lo, hi int) {
					buf, vals := mergeScratch[P](t.f)
					for r := lo; r < hi; r++ {
						t.mergeRun(level, r, samples, stride, buf, vals)
					}
					putMergeScratch(buf, vals)
				})
			}
		} else {
			for r := 0; r < numRuns; r++ {
				t.mergeRunParallel(level, r, samples, stride, workers)
			}
		}
		lsp.End()
		if rl >= n {
			break
		}
	}
	finalizeCodes(t)
	return t
}

// childRunOf returns child run c of a parent run whose children are the
// consecutive childLen-sized pieces of childData (the last piece may be
// short). Pure slicing — no allocation.
func childRunOf[P payload](childData []P, childLen, c int) []P {
	start := c * childLen
	end := start + childLen
	if end > len(childData) {
		end = len(childData)
	}
	return childData[start:end]
}

// children returns the child runs of run r at the given level. Only used by
// invariant tests; the merge path indexes childRunOf directly to avoid the
// per-run slice-of-slices allocation.
func (t *tree[P]) children(level, r int) [][]P {
	childLen := t.effLen[level-1]
	runStart := r * t.effLen[level]
	runEnd := runStart + t.effLen[level]
	if runEnd > t.n {
		runEnd = t.n
	}
	childData := t.levels[level-1][runStart:runEnd]
	m := (runEnd - runStart + childLen - 1) / childLen
	kids := make([][]P, m)
	for c := range kids {
		kids[c] = childRunOf(childData, childLen, c)
	}
	return kids
}

// payloadPool returns the shared scratch pool matching P's width, or nil
// when P is a named type the shared pools cannot serve.
func payloadPool[P payload]() *arena.Pool[P] {
	if p, ok := any(arena.Int32s).(*arena.Pool[P]); ok {
		return p
	}
	if p, ok := any(arena.Int64s).(*arena.Pool[P]); ok {
		return p
	}
	return nil
}

// mergeScratch acquires per-task merge state: a 7f-element int32 buffer
// (cursors, run ends, tiebreaks, loser tree, winner init, head codes —
// sliced by mergePiece) and an f-element head-value array.
func mergeScratch[P payload](f int) ([]int32, []P) {
	buf := arena.Int32s.Get(7 * f)
	if p := payloadPool[P](); p != nil {
		//lint:poollifecycle-ok mergeScratch is the acquire half of a documented pair; putMergeScratch returns both buffers
		return buf, p.Get(f)
	}
	//lint:poollifecycle-ok mergeScratch is the acquire half of a documented pair; putMergeScratch returns both buffers
	return buf, make([]P, f)
}

// putMergeScratch recycles buffers acquired by mergeScratch.
func putMergeScratch[P payload](buf []int32, vals []P) {
	arena.Int32s.Put(buf)
	if p := payloadPool[P](); p != nil {
		p.Put(vals)
	}
}

// mergeRun merges the children of run r at the given level into the level's
// output array, recording cascading samples. buf and vals come from
// mergeScratch.
func (t *tree[P]) mergeRun(level, r int, samples []int32, stride int, buf []int32, vals []P) {
	runStart := r * t.effLen[level]
	runEnd := runStart + t.effLen[level]
	if runEnd > t.n {
		runEnd = t.n
	}
	childLen := t.effLen[level-1]
	m := (runEnd - runStart + childLen - 1) / childLen
	var sampleRun []int32
	if samples != nil {
		sampleRun = samples[r*stride : (r+1)*stride]
	}
	t.mergePiece(t.levels[level][runStart:runEnd], t.levels[level-1][runStart:runEnd],
		childLen, m, nil, buf, vals, sampleRun, 0, runEnd-runStart)
}

// mergeRunParallel splits the merge of run r into `workers` output pieces;
// the per-child split positions for each piece boundary are found with a
// rank search over the value domain, so pieces merge independently
// (Francis et al. 1993, cited in §5.2).
func (t *tree[P]) mergeRunParallel(level, r int, samples []int32, stride, workers int) {
	runStart := r * t.effLen[level]
	runEnd := runStart + t.effLen[level]
	if runEnd > t.n {
		runEnd = t.n
	}
	length := runEnd - runStart
	childLen := t.effLen[level-1]
	childData := t.levels[level-1][runStart:runEnd]
	m := (length + childLen - 1) / childLen
	f := t.f
	pieces := workers
	if pieces > length/1024 {
		pieces = length / 1024
	}
	if pieces <= 1 {
		buf, vals := mergeScratch[P](f)
		t.mergeRun(level, r, samples, stride, buf, vals)
		putMergeScratch(buf, vals)
		return
	}
	// Flat split table: row p holds the per-child consumed counts at output
	// boundary length*p/pieces. Row 0 is all zeros; row `pieces` is the child
	// lengths.
	flat := arena.Int32s.Get((pieces + 1) * m)
	defer arena.Int32s.Put(flat)
	clear(flat[:m])
	last := flat[pieces*m : (pieces+1)*m]
	for c := 0; c < m; c++ {
		last[c] = i32(len(childRunOf(childData, childLen, c)))
	}
	for p := 1; p < pieces; p++ {
		findSplitInto(flat[p*m:(p+1)*m], childData, childLen, m, length*p/pieces)
	}
	var sampleRun []int32
	if samples != nil {
		sampleRun = samples[r*stride : (r+1)*stride]
	}
	out := t.levels[level][runStart:runEnd]
	parallel.ForEach(pieces, func(p int) {
		t0 := length * p / pieces
		t1 := length * (p + 1) / pieces
		if p == pieces-1 {
			t1 = length
		}
		buf, vals := mergeScratch[P](f)
		t.mergePiece(out, childData, childLen, m, flat[p*m:(p+1)*m],
			buf, vals, sampleRun, t0, t1)
		putMergeScratch(buf, vals)
	})
}

// maxPayload is the largest value of P, used as the exhausted-run sentinel.
// A live run can legitimately hold this value, so comparisons always break
// ties on the tiebreak array, where exhausted runs sort after every live run.
func maxPayload[P payload]() P {
	var z P
	if unsafe.Sizeof(z) == 4 {
		v := int32(math.MaxInt32)
		return P(v)
	}
	v := int64(math.MaxInt64)
	return P(v)
}

// mergePiece merges outputs [t0, t1) of the run using a tournament (loser)
// tree of the m child runs, ordered by (value, child index) — the
// child-index tiebreak keeps the merge stable. Unlike a binary heap,
// advancing the winner costs exactly ⌈log₂ m⌉ comparisons along one root
// path, with no sift-down branching.
//
// split, when non-nil, gives the per-child consumed counts at output t0 (a
// row of mergeRunParallel's split table); nil means the piece starts at the
// beginning of every child.
//
// buf is mergeScratch's 7f-element scratch, laid out as cursor | end | tb |
// ltree | winners(2f) | codes: cursor[c]/end[c] are leaf c's absolute
// position and limit within childData, so refilling a leaf is two loads and
// a compare — no re-slicing. Node layout: leaves occupy virtual slots
// m..2m-1 (leaf c at m+c), internal nodes 1..m-1 hold the loser of their
// subtree's playoff, parent(i) = i/2. vals[c]/tb[c] are leaf c's head value
// and tiebreak; an exhausted leaf holds (maxPayload, m+c) so it loses
// against any live leaf, even one whose head equals maxPayload (live
// tiebreaks are < m). For 64-bit payloads, codes[c] caches the offset-value
// code of leaf c's head (soa.go): the tournament replay compares the 32-bit
// codes first and falls through to the full keys only on a code tie, which
// resolves most comparisons on the narrow stripe. Codes project the keys
// monotonically, so the merge order is bit-identical to the uncoded path.
//
// Samples are recorded at every output position that is a multiple of k,
// plus the final boundary; the merge loop runs in sample-free blocks so the
// hot path has no modulo.
func (t *tree[P]) mergePiece(out []P, childData []P, childLen, m int, split []int32, buf []int32, vals []P, sampleRun []int32, t0, t1 int) {
	k, f := t.k, t.f
	if childLen == 1 && split == nil && t0 == 0 && t1 == len(out) && (sampleRun == nil || k >= t1) {
		// Leaf level: every child is a single element, so the merge is a
		// small stable sort. Sample rows, if any, are only the zero row
		// (already zeroed storage) and the full-run boundary row.
		copy(out, childData[:t1])
		insertionSort(out)
		if sampleRun != nil && t1%k == 0 {
			base := (t1 / k) * f
			for c := 0; c < m; c++ {
				sampleRun[base+c] = 1
			}
		}
		return
	}
	cursor := buf[:m]
	end := buf[f : f+m]
	for c := 0; c < m; c++ {
		start := c * childLen
		stop := start + childLen
		if stop > len(childData) {
			stop = len(childData)
		}
		cursor[c] = i32(start)
		if split != nil {
			cursor[c] += split[c]
		}
		end[c] = i32(stop)
	}
	writeSample := func(row int) {
		base := row * f
		for c := 0; c < m; c++ {
			sampleRun[base+c] = cursor[c] - i32(c*childLen)
		}
	}
	if m == 1 {
		// Single child: the run is already sorted, only samples to record.
		c0 := int(cursor[0])
		if sampleRun != nil {
			for p := t0; p < t1; p++ {
				if p%k == 0 {
					sampleRun[(p/k)*f] = i32(c0)
				}
				out[p] = childData[c0]
				c0++
			}
			if t1 == len(out) && t1%k == 0 {
				sampleRun[(t1/k)*f] = i32(c0)
			}
		} else {
			copy(out[t0:t1], childData[c0:c0+(t1-t0)])
		}
		return
	}
	maxV := maxPayload[P]()
	ovc := unsafe.Sizeof(maxV) == 8
	tb := buf[2*f : 2*f+m]
	ltree := buf[3*f : 3*f+m]
	winners := buf[4*f : 4*f+2*m]
	codes := buf[6*f : 6*f+m]
	// Head codes are uint32 bit patterns stored in int32 scratch; every code
	// comparison casts back to uint32, where codeOf's sign-bias makes the
	// unsigned order match the signed key order.
	maxCode := int32(codeOf(maxV))
	for c := 0; c < m; c++ {
		if cursor[c] < end[c] {
			vals[c] = childData[cursor[c]]
			tb[c] = i32(c)
		} else {
			vals[c] = maxV
			tb[c] = i32(m + c)
		}
		codes[c] = int32(codeOf(vals[c]))
	}
	// Build the tournament bottom-up: winners[] is only needed during init.
	for c := 0; c < m; c++ {
		winners[m+c] = i32(c)
	}
	for i := m - 1; i >= 1; i-- {
		a, b := winners[2*i], winners[2*i+1]
		ca, cb := uint32(codes[a]), uint32(codes[b])
		if ca < cb || (ca == cb &&
			(vals[a] < vals[b] || (vals[a] == vals[b] && tb[a] < tb[b]))) {
			winners[i], ltree[i] = a, b
		} else {
			winners[i], ltree[i] = b, a
		}
	}
	winner := winners[1]
	p := t0
	for p < t1 {
		stop := t1
		if sampleRun != nil {
			if p%k == 0 {
				writeSample(p / k)
			}
			if next := (p/k + 1) * k; next < stop {
				stop = next
			}
		}
		if ovc {
			// 64-bit payloads: code-first replay. The duplicated loop keeps
			// the 32-bit path free of the extra stripe maintenance.
			for ; p < stop; p++ {
				c := winner
				out[p] = vals[c]
				pos := cursor[c] + 1
				cursor[c] = pos
				if pos < end[c] {
					v := childData[pos]
					vals[c] = v
					codes[c] = int32(codeOf(v))
				} else {
					vals[c] = maxV
					codes[c] = maxCode
					tb[c] = i32(m) + c
				}
				// Replay the root path: the refilled leaf competes against
				// the stored losers; whoever loses stays, the winner moves
				// up. Codes resolve unequal pairs without touching the keys.
				w := c
				vw, tw, cw := vals[w], tb[w], uint32(codes[w])
				for i := (m + int(c)) >> 1; i >= 1; i >>= 1 {
					l := ltree[i]
					cl := uint32(codes[l])
					if cl != cw {
						if cl < cw {
							ltree[i] = w
							w, cw = l, cl
							vw, tw = vals[l], tb[l]
						}
						continue
					}
					vl, tl := vals[l], tb[l]
					if vl < vw || (vl == vw && tl < tw) {
						ltree[i] = w
						w, vw, tw = l, vl, tl
					}
				}
				winner = w
			}
			continue
		}
		for ; p < stop; p++ {
			c := winner
			out[p] = vals[c]
			pos := cursor[c] + 1
			cursor[c] = pos
			if pos < end[c] {
				vals[c] = childData[pos]
			} else {
				vals[c] = maxV
				tb[c] = i32(m) + c
			}
			// Replay the root path: the refilled leaf competes against the
			// stored losers; whoever loses stays, the winner moves up.
			w := c
			vw, tw := vals[w], tb[w]
			for i := (m + int(c)) >> 1; i >= 1; i >>= 1 {
				l := ltree[i]
				vl, tl := vals[l], tb[l]
				if vl < vw || (vl == vw && tl < tw) {
					ltree[i] = w
					w, vw, tw = l, vl, tl
				}
			}
			winner = w
		}
	}
	if sampleRun != nil && t1 == len(out) && t1%k == 0 {
		writeSample(t1 / k)
	}
}

// insertionSort stably sorts a small slice ascending; equal elements keep
// their original (child) order, matching the merge's tiebreak.
func insertionSort[P payload](a []P) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// findSplitInto computes, for every child run, how many of its elements
// belong to the first `want` outputs of the stable merge, writing the counts
// into split (length m). It binary searches the value domain for the
// smallest value v such that at least `want` elements are <= v, then assigns
// the elements equal to v to children in child order (matching the merge's
// tiebreak).
func findSplitInto[P payload](split []int32, childData []P, childLen, m, want int) {
	clear(split)
	if want <= 0 {
		return
	}
	var lo, hi int64
	first := true
	for c := 0; c < m; c++ {
		kid := childRunOf(childData, childLen, c)
		if len(kid) == 0 {
			continue
		}
		if first {
			lo, hi = int64(kid[0]), int64(kid[len(kid)-1])
			first = false
			continue
		}
		if int64(kid[0]) < lo {
			lo = int64(kid[0])
		}
		if int64(kid[len(kid)-1]) > hi {
			hi = int64(kid[len(kid)-1])
		}
	}
	// Smallest v with countLessOrEqual(v) >= want. Unsigned midpoint
	// arithmetic avoids overflow on extreme domains.
	for lo < hi {
		mid := lo + int64((uint64(hi)-uint64(lo))>>1)
		cnt := 0
		for c := 0; c < m; c++ {
			cnt += upperBoundP(childRunOf(childData, childLen, c), P(mid))
		}
		if cnt >= want {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	v := P(lo)
	base := 0
	for c := 0; c < m; c++ {
		split[c] = i32(lowerBoundP(childRunOf(childData, childLen, c), v))
		base += int(split[c])
	}
	rem := want - base
	for c := 0; c < m && rem > 0; c++ {
		eq := upperBoundP(childRunOf(childData, childLen, c), v) - int(split[c])
		if eq > rem {
			eq = rem
		}
		split[c] += i32(eq)
		rem -= eq
	}
}

// lowerBoundP returns the number of elements of the sorted slice a that are
// strictly smaller than x.
func lowerBoundP[P payload](a []P, x P) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBoundP returns the number of elements of the sorted slice a that are
// smaller than or equal to x.
func upperBoundP[P payload](a []P, x P) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
