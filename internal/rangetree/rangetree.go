// Package rangetree implements the three-dimensional range counting
// structure the paper prescribes for framed DENSE_RANK (§4.4): a range tree
// (Bentley) over the window positions whose nodes index their tuples by rank
// key, each carrying a nested merge sort tree over previous-occurrence
// indices.
//
// A framed dense rank needs the number of DISTINCT rank-key values inside
// the frame that compare smaller than the current row's key. Distinctness
// turns into a third dimension with the previous-occurrence trick of §4.2:
// count tuples with
//
//	position ∈ [frameLo, frameHi)   — dimension 1, the outer tree
//	rank key < current key          — dimension 2, sorted node lists
//	prevIdx  < frameLo+1            — dimension 3, nested merge sort trees
//
// The frame decomposes into O(log n) canonical nodes; in each node the rank
// constraint selects a prefix of the node's rank-sorted list, and the nested
// tree counts the prevIdx constraint over that prefix in O(log n). A query
// is O((log n)²) and the structure takes O(n (log n)²) space, matching the
// complexity the paper quotes for range trees with fractional cascading.
package rangetree

import (
	"fmt"
	"sync"

	"holistic/internal/mst"
	"holistic/internal/parallel"
	"holistic/internal/sortutil"
)

// smallNode is the node size below which a linear scan beats a nested tree.
const smallNode = 16

type node struct {
	ranks []int64 // node's rank keys, sorted ascending
	prevs []int64 // prevIdx of the same tuples, in rank-sorted order
	inner *mst.Tree
}

// DenseRankTree answers framed dense-rank counting queries.
type DenseRankTree struct {
	n     int
	nodes []node
}

// New builds the structure for a partition in window order. ranks[i] is the
// dense rank of row i's rank key (preprocess.DenseRanks); prevIdcs[i] is the
// shifted previous-occurrence index of that key (preprocess.PrevIndices
// computed on rank-key equality).
func New(ranks, prevIdcs []int64, opt mst.Options) (*DenseRankTree, error) {
	if len(ranks) != len(prevIdcs) {
		return nil, fmt.Errorf("rangetree: %d ranks but %d prevIdcs", len(ranks), len(prevIdcs))
	}
	n := len(ranks)
	t := &DenseRankTree{n: n}
	if n == 0 {
		return t, nil
	}
	t.nodes = make([]node, 2*n)
	for i := 0; i < n; i++ {
		t.nodes[n+i] = node{ranks: ranks[i : i+1], prevs: prevIdcs[i : i+1]}
	}
	// Merge children bottom-up in power-of-two bands (children of band
	// [2^j, 2^(j+1)) live in later bands or are leaves).
	band := 1
	for band*2 <= n-1 {
		band *= 2
	}
	// Inner-tree builds can fail (element limit); the first error wins.
	// The write is mutex-guarded because band tasks run concurrently.
	var errMu sync.Mutex
	var buildErr error
	setErr := func(err error) {
		errMu.Lock()
		if buildErr == nil {
			buildErr = err
		}
		errMu.Unlock()
	}
	for ; band >= 1; band /= 2 {
		bandLo, bandHi := band, 2*band
		if bandHi > n {
			bandHi = n
		}
		parallel.ForEach(bandHi-bandLo, func(off int) {
			i := bandLo + off
			l, r := &t.nodes[2*i], &t.nodes[2*i+1]
			nd := node{
				ranks: make([]int64, len(l.ranks)+len(r.ranks)),
				prevs: make([]int64, len(l.prevs)+len(r.prevs)),
			}
			li, ri, mi := 0, 0, 0
			for li < len(l.ranks) && ri < len(r.ranks) {
				if l.ranks[li] <= r.ranks[ri] {
					nd.ranks[mi], nd.prevs[mi] = l.ranks[li], l.prevs[li]
					li++
				} else {
					nd.ranks[mi], nd.prevs[mi] = r.ranks[ri], r.prevs[ri]
					ri++
				}
				mi++
			}
			for ; li < len(l.ranks); li++ {
				nd.ranks[mi], nd.prevs[mi] = l.ranks[li], l.prevs[li]
				mi++
			}
			for ; ri < len(r.ranks); ri++ {
				nd.ranks[mi], nd.prevs[mi] = r.ranks[ri], r.prevs[ri]
				mi++
			}
			if len(nd.prevs) >= smallNode {
				inner, err := mst.Build(nd.prevs, opt)
				if err != nil {
					setErr(err)
					return
				}
				nd.inner = inner
			}
			t.nodes[i] = nd
		})
		if buildErr != nil {
			return nil, buildErr
		}
	}
	return t, nil
}

// Len returns the partition size.
func (t *DenseRankTree) Len() int { return t.n }

// CountDistinctBelow returns the number of distinct rank values r <
// rankThreshold among window positions [lo, hi), where distinctness is
// established by prevIdx < prevThreshold (normally frameLo+1 in the shifted
// representation).
func (t *DenseRankTree) CountDistinctBelow(lo, hi int, rankThreshold, prevThreshold int64) int {
	if lo < 0 {
		lo = 0
	}
	if hi > t.n {
		hi = t.n
	}
	if lo >= hi {
		return 0
	}
	total := 0
	l, r := lo+t.n, hi+t.n
	count := func(nd *node) {
		m := sortutil.LowerBound(nd.ranks, rankThreshold)
		if m == 0 {
			return
		}
		if nd.inner != nil {
			total += nd.inner.CountBelow(0, m, prevThreshold)
			return
		}
		for _, p := range nd.prevs[:m] {
			if p < prevThreshold {
				total++
			}
		}
	}
	for l < r {
		if l&1 == 1 {
			count(&t.nodes[l])
			l++
		}
		if r&1 == 1 {
			r--
			count(&t.nodes[r])
		}
		l >>= 1
		r >>= 1
	}
	return total
}

// MemBytes reports the approximate resident size of the structure: every
// node's rank/prevIdx arrays plus its nested tree. Used for cache budget
// accounting.
func (t *DenseRankTree) MemBytes() int64 {
	var total int64
	for i := range t.nodes {
		nd := &t.nodes[i]
		total += int64(16 * len(nd.ranks))
		if nd.inner != nil {
			total += int64(nd.inner.Stats().Bytes)
		}
	}
	return total
}
