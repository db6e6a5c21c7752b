package arena

import (
	"testing"
)

func TestArenaAllocZeroedAndDisjoint(t *testing.T) {
	a := New[int64](8) // tiny chunks to exercise chunk crossings
	var got [][]int64
	for i, n := range []int{3, 3, 3, 10, 1, 0, 5} {
		s := a.Alloc(n)
		if len(s) != n {
			t.Fatalf("alloc %d: len %d", n, len(s))
		}
		if cap(s) != n && n > 0 {
			t.Fatalf("alloc %d: cap %d, want exactly n (no aliasing into later allocations)", n, cap(s))
		}
		for j, v := range s {
			if v != 0 {
				t.Fatalf("alloc #%d: s[%d] = %d, want zeroed", i, j, v)
			}
		}
		for j := range s {
			s[j] = int64(100*i + j)
		}
		got = append(got, s)
	}
	// Disjointness: earlier allocations keep their values.
	for i, s := range got {
		for j, v := range s {
			if v != int64(100*i+j) {
				t.Fatalf("allocation %d overwritten at %d: got %d", i, j, v)
			}
		}
	}
}

func TestArenaCheckpointReset(t *testing.T) {
	a := New[int32](4)
	a.Alloc(3)
	cp := a.Checkpoint()
	before := a.Len()
	s1 := a.Alloc(6)
	for i := range s1 {
		s1[i] = 7
	}
	a.Reset(cp)
	if a.Len() != before {
		t.Fatalf("Len after reset = %d, want %d", a.Len(), before)
	}
	// Memory handed out after a reset must be zeroed even though it was
	// dirtied before the reset.
	s2 := a.Alloc(6)
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("post-reset alloc not zeroed at %d: %d", i, v)
		}
	}
	// Resetting to a stale (ahead) checkpoint is ignored.
	ahead := a.Checkpoint()
	a.Reset(cp)
	a.Reset(ahead) // ahead of live position now: no-op
	if got := a.Len(); got != before {
		t.Fatalf("Len after ahead-reset = %d, want %d", got, before)
	}
}

func TestArenaZeroValue(t *testing.T) {
	var a Arena[byte]
	s := a.Alloc(10)
	if len(s) != 10 {
		t.Fatalf("zero-value arena alloc failed")
	}
}

func TestArenaSingleChunkWhenSizedExactly(t *testing.T) {
	a := New[int64](100)
	for i := 0; i < 10; i++ {
		a.Alloc(10)
	}
	if len(a.chunks) != 1 {
		t.Fatalf("exactly sized arena used %d chunks, want 1", len(a.chunks))
	}
}

func TestPoolGetPut(t *testing.T) {
	p := NewPool[int64]("test")
	s := p.Get(100)
	if len(s) != 100 {
		t.Fatalf("Get(100) len = %d", len(s))
	}
	if cap(s) != 128 {
		t.Fatalf("Get(100) cap = %d, want 128 (size class)", cap(s))
	}
	for i := range s {
		s[i] = int64(i)
	}
	p.Put(s)
	st := p.stat()
	if st.Gets != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesInFlight != 0 {
		t.Fatalf("bytes in flight after put = %d", st.BytesInFlight)
	}
	z := p.GetZeroed(100)
	if len(z) != 100 || cap(z) != 128 {
		t.Fatalf("recycled GetZeroed(100) len/cap = %d/%d, want 100/128", len(z), cap(z))
	}
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZeroed dirty at %d: %d", i, v)
		}
	}
	// A recycled buffer is rebuilt from its data pointer: it must keep the
	// whole class capacity, so a full-length Get can use every element.
	p.Put(z)
	full := p.Get(128)
	if len(full) != 128 || cap(full) != 128 {
		t.Fatalf("recycled Get(128) len/cap = %d/%d, want 128/128", len(full), cap(full))
	}
	full[127] = 1
	p.Put(full)
}

func TestPoolPutRejectsGrownBuffers(t *testing.T) {
	p := NewPool[int32]("test-grown")
	s := p.Get(4)
	s = append(s, 1, 2, 3, 4, 5) //lint:poollifecycle-ok deliberately growing past the class to test that Put drops it
	p.Put(s)
	if cap(s) == 8 {
		t.Skip("append stayed within a class boundary on this runtime")
	}
	st := p.stat()
	if st.Puts != 0 {
		t.Fatalf("grown buffer was accepted back: %+v", st)
	}
}

func TestClassFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1 << 20: 20}
	for n, want := range cases {
		if got := classFor(n); got != want {
			t.Errorf("classFor(%d) = %d, want %d", n, got, want)
		}
	}
}
