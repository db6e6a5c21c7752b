package mst

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Serialization implements §5.1's observation that merge sort trees "could
// also be spooled to disk": a built tree is a handful of flat integer
// arrays, so the on-disk format is a small header plus raw little-endian
// array dumps — loadable without rebuilding the O(n log n) construction.
//
// Format (little endian):
//
//	magic "MST1" | flags u32 (bit0: 64-bit payloads, bit1: cascading)
//	n u64 | fanout u32 | sampleEvery u32 | levels u32
//	per level: payload array (4 or 8 bytes per element)
//	per level >= 1, if cascading: stride u64 + sample array (4 bytes each)
//
// Any other flag bit is rejected, so a record from a format this reader does
// not know (such as the retired bit2 spill-forest form) fails to load instead
// of being misread as a tree header.

const magic = "MST1"

const (
	flag64Bit uint32 = 1 << iota
	flagCascading

	knownFlags = flag64Bit | flagCascading
)

// WriteTo serialises the tree. It returns the number of bytes written.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	var err error
	if t.t32 != nil {
		err = writeTree(cw, t.t32, false)
	} else {
		err = writeTree(cw, t.t64, true)
	}
	if err != nil {
		return cw.n, err
	}
	return cw.n, bw.Flush()
}

// ReadTree deserialises a tree written by WriteTo.
func ReadTree(r io.Reader) (*Tree, error) {
	br := bufio.NewReader(r)
	var head [4]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("mst: reading magic: %w", err)
	}
	if string(head[:]) != magic {
		return nil, fmt.Errorf("mst: bad magic %q", head[:])
	}
	var flags uint32
	if err := binary.Read(br, binary.LittleEndian, &flags); err != nil {
		return nil, fmt.Errorf("mst: reading flags: %w", err)
	}
	if flags&^knownFlags != 0 {
		return nil, fmt.Errorf("mst: unknown flags %#x", flags&^knownFlags)
	}
	var fanout, sampleEvery, levels uint32
	var n uint64
	for _, v := range []any{&n, &fanout, &sampleEvery, &levels} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("mst: reading header: %w", err)
		}
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("mst: serialized tree claims %d elements", n)
	}
	if fanout < 2 || sampleEvery < 1 || levels < 1 || levels > 64 {
		return nil, fmt.Errorf("mst: implausible header (f=%d k=%d levels=%d)", fanout, sampleEvery, levels)
	}
	out := &Tree{n: int(n), opt: Options{Fanout: int(fanout), SampleEvery: int(sampleEvery), NoCascading: flags&flagCascading == 0}}
	if flags&flag64Bit != 0 {
		tr, err := readTree[int64](br, out.opt, int(n), int(levels), flags)
		if err != nil {
			return nil, err
		}
		out.t64 = tr
	} else {
		tr, err := readTree[int32](br, out.opt, int(n), int(levels), flags)
		if err != nil {
			return nil, err
		}
		out.t32 = tr
	}
	return out, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeTree[P payload](w io.Writer, t *tree[P], is64 bool) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	flags := uint32(0)
	if is64 {
		flags |= flag64Bit
	}
	cascading := len(t.levels) <= 1 || t.samples[len(t.samples)-1] != nil
	if cascading {
		flags |= flagCascading
	}
	//lint:narrowconv-ok Options.validate caps f and k, and the level count is log_f(n) — all far below 2³²
	for _, v := range []any{flags, uint64(t.n), uint32(t.f), uint32(t.k), uint32(len(t.levels))} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, lv := range t.levels {
		if err := binary.Write(w, binary.LittleEndian, lv); err != nil {
			return err
		}
	}
	if cascading {
		for l := 1; l < len(t.levels); l++ {
			if err := binary.Write(w, binary.LittleEndian, uint64(t.stride[l])); err != nil {
				return err
			}
			if err := binary.Write(w, binary.LittleEndian, t.samples[l]); err != nil {
				return err
			}
		}
	}
	return nil
}

func readTree[P payload](r io.Reader, opt Options, n, levels int, flags uint32) (*tree[P], error) {
	t := &tree[P]{n: n, f: opt.Fanout, k: opt.SampleEvery}
	t.levels = make([][]P, levels)
	t.samples = make([][]int32, levels)
	t.stride = make([]int, levels)
	t.effLen = make([]int, levels)
	rl := 1
	for l := 0; l < levels; l++ {
		if l > 0 {
			rl *= t.f
			if rl > n {
				rl = n
			}
		}
		t.effLen[l] = rl
		t.levels[l] = make([]P, n)
		if err := binary.Read(r, binary.LittleEndian, t.levels[l]); err != nil {
			return nil, fmt.Errorf("mst: reading level %d: %w", l, err)
		}
	}
	// Validate the level structure implied by the header: the top level
	// must cover n and the second-from-top must not.
	if levels > 1 && t.effLen[levels-1] != n {
		return nil, fmt.Errorf("mst: level count inconsistent with n and fanout")
	}
	if flags&flagCascading != 0 {
		for l := 1; l < levels; l++ {
			var stride uint64
			if err := binary.Read(r, binary.LittleEndian, &stride); err != nil {
				return nil, fmt.Errorf("mst: reading stride %d: %w", l, err)
			}
			numRuns := (n + t.effLen[l] - 1) / t.effLen[l]
			// Accept both the padded SoA stride (the current layout) and the
			// dense pre-padding stride, so records written before the layout
			// change still load; probes only index the dense prefix of a row.
			padded := sampleStride(t.effLen[l], t.k, t.f)
			dense := (t.effLen[l]/t.k + 1) * t.f
			if int(stride) != padded && int(stride) != dense {
				return nil, fmt.Errorf("mst: level %d stride %d, want %d or %d", l, stride, padded, dense)
			}
			t.stride[l] = int(stride)
			t.samples[l] = make([]int32, numRuns*int(stride))
			if err := binary.Read(r, binary.LittleEndian, t.samples[l]); err != nil {
				return nil, fmt.Errorf("mst: reading samples %d: %w", l, err)
			}
		}
	}
	finalizeCodes(t)
	return t, nil
}
