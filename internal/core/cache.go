package core

import (
	"strconv"
	"strings"

	"holistic/internal/mst"
	"holistic/internal/obs"
	"holistic/internal/rangetree"
)

// TreeCache is the tree-reuse hook of the window operator: before building
// a sort order, merge sort tree or preprocessed key array, the operator
// offers the construction to the cache, which may return a structure built
// by an earlier query instead. This is what turns the paper's "one tree
// answers arbitrarily many framed queries" property into cross-request
// reuse in windowd.
//
// GetOrBuild returns the value stored under key, invoking build on a miss.
// build reports the value's approximate resident size in bytes so the
// cache can enforce a byte budget. Implementations must be safe for
// concurrent use and should deduplicate concurrent builds of the same key
// (single-flight); internal/treecache provides the canonical
// implementation.
//
// Every cached structure is immutable after construction: the operator
// only ever reads them, so one value may serve any number of concurrent
// queries.
type TreeCache interface {
	GetOrBuild(key string, build func() (value any, bytes int64, err error)) (any, error)
}

// cacheActive reports whether structure caching is enabled: it requires
// both a cache and a non-empty scope, because without a scope identifying
// the table version, keys from different tables would collide.
func (o Options) cacheActive() bool {
	return o.Cache != nil && o.CacheScope != ""
}

// ctxErr returns the options context's error, tolerating an absent context.
func (o Options) ctxErr() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

// treeOptions returns the run's tree options with the given build-phase
// span threaded through, so mst's construction attaches its per-level
// merge spans beneath the "build merge sort tree" phase.
func (o Options) treeOptions(sp *obs.Span) mst.Options {
	topt := o.Tree
	topt.Trace = sp
	return topt
}

// cacheGet fetches key from the options' cache, building on a miss. With
// caching inactive it simply builds. A value of an unexpected type under
// the key (a collision between incompatible structure kinds, which the key
// scheme is designed to prevent) falls back to an uncached build rather
// than failing the query.
func cacheGet[T any](opt Options, key string, build func() (T, int64, error)) (T, error) {
	if !opt.cacheActive() {
		v, _, err := build()
		return v, err
	}
	// Annotate the current span with the cache interaction: "reuse" unless
	// the build closure actually ran. The slow-query log surfaces these
	// attributes, so a cold-cache outlier is distinguishable from a slow
	// probe at a glance.
	if sp := opt.trace; sp != nil {
		sp.Set("cache_key", key)
		sp.Set("cache", "reuse")
	}
	got, err := opt.Cache.GetOrBuild(opt.CacheScope+"|"+key, func() (any, int64, error) {
		opt.trace.Set("cache", "build")
		v, bytes, err := build()
		if err != nil {
			return nil, 0, err
		}
		return v, bytes, nil
	})
	if err != nil {
		var zero T
		return zero, err
	}
	if v, ok := got.(T); ok {
		return v, nil
	}
	v, _, err := build()
	return v, err
}

// windowSig renders the partitioning/ordering identity of a window spec:
// two windows with equal signatures sort identically and split into the
// same partitions, so their structures are interchangeable.
func windowSig(w *WindowSpec) string {
	var b strings.Builder
	b.WriteString("p=")
	for _, c := range w.PartitionBy {
		b.WriteString(strconv.Quote(c))
		b.WriteByte(',')
	}
	b.WriteString(";o=")
	for _, k := range w.OrderBy {
		writeSortKeySig(&b, k)
	}
	return b.String()
}

func writeSortKeySig(b *strings.Builder, k SortKey) {
	b.WriteString(strconv.Quote(k.Column))
	if k.Desc {
		b.WriteByte('-')
	} else {
		b.WriteByte('+')
	}
	if k.NullsSmallest {
		b.WriteByte('n')
	}
	b.WriteByte(',')
}

// orderSig renders a function's effective ORDER BY.
func orderSig(p *partition, f *FuncSpec) string {
	var b strings.Builder
	for _, k := range p.effectiveOrderKeys(f) {
		writeSortKeySig(&b, k)
	}
	return b.String()
}

// treeSig renders the tree options that shape a merge sort tree's
// structure. Serial only affects how construction is scheduled, never the
// result, so it is excluded. The ",l2" component versions the physical
// layout (the PR 10 cache-line-padded SoA sample stride): entries cached by
// an older layout render a different signature and are never mixed with the
// current one — this matters most for delta runs, whose "pk=…|pd<stamp>"
// keys deliberately survive across epochs.
func treeSig(o mst.Options) string {
	var b strings.Builder
	b.WriteString("f=")
	b.WriteString(strconv.Itoa(o.Fanout))
	b.WriteString(",k=")
	b.WriteString(strconv.Itoa(o.SampleEvery))
	b.WriteString(",l2")
	if o.NoCascading {
		b.WriteString(",nc")
	}
	if o.Force64 {
		b.WriteString(",64")
	}
	return b.String()
}

// cacheKey composes a per-partition structure key: window identity,
// partition ordinal, structure tag, then the structure-relevant fields.
// Fields that do not influence the structure (percentile fractions, frame
// bounds, LEAD offsets — all probe-time parameters) are deliberately
// excluded so queries differing only in them share entries.
//
// Shared-plan runs override the window identity with the signature of the
// sort actually executed (partition.sig): every cached structure is a pure
// function of the sorted row order plus the tagged fields, so views of
// different windows over one shared sort address — and soundly share — the
// same entries.
func (p *partition) cacheKey(tag string, fields ...string) string {
	var b strings.Builder
	if p.sig != "" {
		b.WriteString(p.sig)
	} else {
		b.WriteString(windowSig(p.w))
	}
	if p.stamped {
		// Delta runs: identity is the partition's content key plus the
		// latest epoch a mutation touched it — stable across epochs for
		// untouched partitions, distinct whenever the content could differ.
		b.WriteString("|pk=")
		b.WriteString(p.idKey)
		b.WriteString("|pd")
		b.WriteString(strconv.FormatInt(p.stamp, 10))
	} else {
		b.WriteString("|#")
		b.WriteString(strconv.Itoa(p.ord))
	}
	b.WriteByte('|')
	b.WriteString(tag)
	for _, f := range fields {
		b.WriteByte('|')
		b.WriteString(f)
	}
	return b.String()
}

// int64SliceBytes is the resident size of int64 slices.
func int64SliceBytes(slices ...[]int64) int64 {
	var total int64
	for _, s := range slices {
		total += int64(8 * len(s))
	}
	return total
}

// Cached structure bundles. Each bundle holds everything a probe phase
// needs beyond per-query state, so a cache hit skips the whole
// preprocessing + build pipeline for its evaluation path.
type (
	// cachedSort is the phase-1 (PARTITION BY, ORDER BY) sort order.
	cachedSort struct{ idx []int32 }
	// cachedDistinct backs COUNT(DISTINCT): Algorithm 1's prevIdcs, the
	// forward occurrence links, and the tree over prevIdcs.
	cachedDistinct struct {
		prev, next []int64
		tree       *mst.Tree
	}
	// cachedAgg backs SUM/AVG(DISTINCT) for one aggregate state type.
	cachedAgg[S any] struct {
		prev, next []int64
		values     []S
		tree       *mst.AnnotatedTree[S]
	}
	// cachedRank backs the rank family: per-row rank keys plus the tree
	// over the kept rows' keys.
	cachedRank struct {
		keysAll []int64
		tree    *mst.Tree
	}
	// cachedDense backs DENSE_RANK: rank arrays, occurrence links and the
	// range tree.
	cachedDense struct {
		ranksAll, ranksKept []int64
		prevKept, nextKept  []int64
		rt                  *rangetree.DenseRankTree
	}
	// cachedSelect backs percentiles/value selection: the permutation tree.
	cachedSelect struct{ tree *mst.Tree }
	// cachedLeadLag backs LEAD/LAG: insertion row numbers plus the
	// permutation tree.
	cachedLeadLag struct {
		keptRowno []int64
		tree      *mst.Tree
	}
)
