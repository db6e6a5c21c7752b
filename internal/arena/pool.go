package arena

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// maxClass bounds the pooled size classes: buffers of capacity up to
// 1<<maxClass elements are recycled; larger requests fall through to make
// and are dropped on Put. 1<<26 elements is 512 MiB of int64 — far beyond
// any per-query temporary worth caching between requests.
const maxClass = 26

// Pool is a size-classed free list of []T scratch buffers backed by one
// sync.Pool per power-of-two capacity class. Each class pool holds the
// buffers' data pointers (*T), which box into an interface without a heap
// allocation; since a class's capacity is exactly 1<<class, Get rebuilds the
// full slice from the pointer alone. Get returns a buffer of the
// requested length (contents unspecified); Put recycles it. Pools are safe
// for concurrent use; buffers must not be used after Put — the poollifecycle
// lint analyzer additionally rejects append on pooled buffers, which could
// silently grow past the class capacity and escape the pool.
//
// The zero value is ready to use. Construct package-level pools with
// NewPool so they register for Snapshot/statusz accounting.
type Pool[T any] struct {
	name    string
	classes [maxClass + 1]sync.Pool
	gets    atomic.Int64
	puts    atomic.Int64
	misses  atomic.Int64 // Gets not served from the pool (fresh make)
	inUse   atomic.Int64 // bytes handed out and not yet returned
}

// registry tracks every named pool for Snapshot.
var registry struct {
	mu    sync.Mutex
	pools []interface{ stat() PoolStat }
}

// NewPool creates a pool and registers it under name for Snapshot.
func NewPool[T any](name string) *Pool[T] {
	p := &Pool[T]{name: name}
	registry.mu.Lock()
	registry.pools = append(registry.pools, p)
	registry.mu.Unlock()
	return p
}

// classFor returns the size class whose buffers hold at least n elements:
// the smallest c with 1<<c >= n.
func classFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a scratch buffer of length n with unspecified contents and
// capacity 1<<classFor(n). Callers that rely on zeroed memory use GetZeroed.
func (p *Pool[T]) Get(n int) []T {
	p.gets.Add(1)
	c := classFor(n)
	if c > maxClass {
		p.misses.Add(1)
		return make([]T, n)
	}
	p.inUse.Add(int64(1<<c) * elemBytes[T]())
	if v := p.classes[c].Get(); v != nil {
		return unsafe.Slice(v.(*T), 1<<c)[:n]
	}
	p.misses.Add(1)
	return make([]T, n, 1<<c)
}

// GetZeroed is Get with the returned buffer cleared.
func (p *Pool[T]) GetZeroed(n int) []T {
	buf := p.Get(n)
	clear(buf)
	return buf
}

// Put returns a buffer obtained from Get to the pool. Buffers whose
// capacity is not an exact class size (e.g. grown by append, which the
// poollifecycle analyzer flags) or that exceed the largest class are dropped.
// Put of a nil or empty-capacity buffer is a no-op.
func (p *Pool[T]) Put(buf []T) {
	c := cap(buf)
	if c == 0 {
		return
	}
	cls := classFor(c)
	if cls > maxClass || 1<<cls != c {
		return
	}
	p.puts.Add(1)
	p.inUse.Add(-int64(c) * elemBytes[T]())
	p.classes[cls].Put(unsafe.SliceData(buf))
}

// stat snapshots the pool's counters.
func (p *Pool[T]) stat() PoolStat {
	return PoolStat{
		Name:          p.name,
		Gets:          p.gets.Load(),
		Puts:          p.puts.Load(),
		Misses:        p.misses.Load(),
		BytesInFlight: p.inUse.Load(),
	}
}

// PoolStat is one pool's counter snapshot.
type PoolStat struct {
	Name          string
	Gets          int64
	Puts          int64
	Misses        int64
	BytesInFlight int64 // bytes handed out and not yet Put back
}

// String renders the counters for /statusz.
func (s PoolStat) String() string {
	return fmt.Sprintf("pool %s: gets=%d puts=%d misses=%d bytes_in_flight=%d",
		s.Name, s.Gets, s.Puts, s.Misses, s.BytesInFlight)
}

// Snapshot returns the counters of every registered pool, in registration
// order.
func Snapshot() []PoolStat {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make([]PoolStat, 0, len(registry.pools))
	for _, p := range registry.pools {
		out = append(out, p.stat())
	}
	return out
}

// Shared scratch pools for the element types the query path uses. All
// evaluation-engine temporaries draw from these so that buffers are
// recycled across concurrent requests in windowd.
var (
	// Int32s pools sorted-index and merge-cursor scratch.
	Int32s = NewPool[int32]("int32")
	// Int64s pools key, permutation and prev-index scratch.
	Int64s = NewPool[int64]("int64")
	// Uint64s pools hash scratch.
	Uint64s = NewPool[uint64]("uint64")
	// Bools pools inclusion-mask scratch.
	Bools = NewPool[bool]("bool")
)
