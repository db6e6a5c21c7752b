package mst

import "math"

// Spill-aware tree construction ("Support Aggregate Analytic Window Function
// over Large Data by Spilling", Shi & Wang): when Options.SpillRows is set
// and the input exceeds it, the tree is built as an ordered forest of
// monolithic subtrees over consecutive chunks of the base array instead of
// one O(n log n) structure. Each subtree is built (and can be spooled or
// cached) independently — the shape a segmented, larger-than-memory dataset
// produces naturally, one subtree per on-disk segment's worth of rows.
//
// Queries decompose over the chunks: a position range [lo, hi) overlaps at
// most two chunks partially and covers the rest whole, and a whole chunk
// answers CountBelow with one rank search on its own top run. The one query
// shape that would degrade linearly in the chunk count — a full-span count,
// the dominant case for UNBOUNDED PRECEDING frames — is answered by a fully
// merged top run built lazily on first use, reusing the loser-tree merge and
// its pooled scratch from build.go. Until a full-span query arrives, the
// merged run costs nothing.
//
// Exactness: every primitive is integer counting/selection over the same
// key multiset, so chunked answers are byte-identical to the monolithic
// tree's (enforced by spill_test.go and core's equivalence harness). The
// annotated tree (SUM/AVG DISTINCT) is deliberately not chunked: its float
// prefix aggregates depend on merge order, and re-associating them would
// break the byte-identity contract.

// buildChunked constructs the spill forest: one monolithic subtree per
// SpillRows-sized chunk of keys. Build has already validated opt and the
// element limit.
func buildChunked(keys []int64, opt Options) (*Tree, error) {
	n := len(keys)
	cl := opt.SpillRows
	sub := opt
	sub.SpillRows = 0
	t := &Tree{n: n, opt: opt, chunkLen: cl, chunks: make([]*Tree, (n+cl-1)/cl)}
	for i := range t.chunks {
		lo := i * cl
		hi := lo + cl
		if hi > n {
			hi = n
		}
		c, err := Build(keys[lo:hi], sub)
		if err != nil {
			return nil, err
		}
		t.chunks[i] = c
	}
	return t, nil
}

// ChunkCount reports the number of subtrees of a spill-chunked tree (0 for a
// monolithic tree). Exposed for tests and cache accounting.
func (t *Tree) ChunkCount() int { return len(t.chunks) }

// chunkedCountBelow decomposes a count over the chunk forest. Callers
// guarantee 0 <= lo < hi <= n. Chunks fully inside [lo, hi) contribute the
// rank of threshold on their own top run (one binary search each); the at
// most two partially covered edge chunks descend normally. A full-span query
// short-circuits to one rank search on the lazily merged top run.
func (t *Tree) chunkedCountBelow(lo, hi int, threshold int64) int {
	if lo <= 0 && hi >= t.n {
		return t.topRank(threshold)
	}
	total := 0
	for ci := lo / t.chunkLen; ci < len(t.chunks); ci++ {
		base := ci * t.chunkLen
		if base >= hi {
			break
		}
		c := t.chunks[ci]
		cLo := lo - base
		if cLo < 0 {
			cLo = 0
		}
		cHi := hi - base
		if cHi > c.n {
			cHi = c.n
		}
		total += c.CountBelow(cLo, cHi, threshold)
	}
	return total
}

// chunkedSelectKthRanges walks chunks in position order, counting the
// qualifying entries per chunk on its own top runs, and descends into the
// chunk that straddles rank i. The returned position is rebased to the full
// array.
func (t *Tree) chunkedSelectKthRanges(ranges [][2]int64, i int) (int, bool) {
	if i < 0 {
		return 0, false
	}
	for ci, c := range t.chunks {
		cnt := c.CountRanges(0, c.n, ranges)
		if i < cnt {
			pos, ok := c.SelectKthRanges(ranges, i)
			if !ok {
				return 0, false
			}
			return ci*t.chunkLen + pos, true
		}
		i -= cnt
	}
	return 0, false
}

// topRank returns the number of keys < threshold across the whole tree using
// the merged top run.
func (t *Tree) topRank(threshold int64) int {
	t.topOnce.Do(t.mergeTop)
	if t.top32 != nil {
		if threshold <= 0 {
			return 0
		}
		if threshold > math.MaxInt32 {
			return t.n
		}
		return lowerBoundP(t.top32, int32(threshold))
	}
	return lowerBoundP(t.top64, threshold)
}

// mergeTop builds the fully sorted top run over all chunks by merging the
// chunk top runs with the loser-tree merge from build.go (mergePiece), using
// the same pooled scratch as tree construction. Guarded by topOnce: the
// merge runs at most once per tree, on the first full-span query.
func (t *Tree) mergeTop() {
	all32 := true
	for _, c := range t.chunks {
		if c.t32 == nil {
			all32 = false
			break
		}
	}
	if all32 {
		t.top32 = mergeChunkTops(t.chunks, t.chunkLen, t.n, chunkTop32)
		return
	}
	t.top64 = mergeChunkTops(t.chunks, t.chunkLen, t.n, chunkTop64)
}

func chunkTop32(c *Tree) []int32 { return c.t32.levels[c.t32.top()] }

// chunkTop64 returns the chunk's top run widened to int64: a mixed forest
// (some chunks 32-bit, some 64-bit) merges in the wider domain.
func chunkTop64(c *Tree) []int64 {
	if c.t64 != nil {
		return c.t64.levels[c.t64.top()]
	}
	src := c.t32.levels[c.t32.top()]
	out := make([]int64, len(src))
	for i, v := range src {
		out[i] = int64(v)
	}
	return out
}

// mergeChunkTops concatenates the chunk top runs into one child array and
// merges them with mergePiece's tournament loser tree — each chunk top run
// is one sorted child of length chunkLen (the last may be short), exactly
// the geometry mergePiece expects.
func mergeChunkTops[P payload](chunks []*Tree, chunkLen, n int, topOf func(*Tree) []P) []P {
	m := len(chunks)
	base := make([]P, 0, n)
	for _, c := range chunks {
		base = append(base, topOf(c)...)
	}
	out := make([]P, n)
	buf, vals := mergeScratch[P](m)
	// A throwaway geometry carrier: mergePiece only reads f (slot strides)
	// and, with sampleRun nil, never touches k or the level arrays.
	tmp := &tree[P]{n: n, f: m, k: 1}
	tmp.mergePiece(out, base, chunkLen, m, nil, buf, vals, nil, 0, n)
	putMergeScratch(buf, vals)
	return out
}
