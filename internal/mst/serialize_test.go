package mst

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 2, 33, 1000, 4097} {
		for _, opt := range []Options{
			{},
			{Fanout: 2, SampleEvery: 1},
			{Fanout: 4, SampleEvery: 16, Force64: true},
			{NoCascading: true},
		} {
			keys := randKeys(rng, n, int64(n)+1)
			orig, err := Build(keys, opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			written, err := orig.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if written != int64(buf.Len()) {
				t.Fatalf("WriteTo reported %d bytes, wrote %d", written, buf.Len())
			}
			back, err := ReadTree(&buf)
			if err != nil {
				t.Fatalf("n=%d opt=%+v: %v", n, opt, err)
			}
			if back.Len() != n || back.Is32Bit() != orig.Is32Bit() {
				t.Fatalf("n=%d: shape changed (len %d, 32bit %v)", n, back.Len(), back.Is32Bit())
			}
			// Queries must agree exactly with the original tree.
			for trial := 0; trial < 60; trial++ {
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(n+1-lo)
				th := rng.Int63n(int64(n) + 2)
				if got, want := back.CountBelow(lo, hi, th), orig.CountBelow(lo, hi, th); got != want {
					t.Fatalf("n=%d opt=%+v count[%d,%d)<%d: %d != %d", n, opt, lo, hi, th, got, want)
				}
				if n > 0 {
					k := rng.Intn(n)
					gp, gok := back.SelectKth(0, int64(n)+1, k)
					wp, wok := orig.SelectKth(0, int64(n)+1, k)
					if gok != wok || gp != wp {
						t.Fatalf("n=%d select %d: (%d,%v) != (%d,%v)", n, k, gp, gok, wp, wok)
					}
				}
			}
			// The deserialized structure must satisfy all invariants too.
			if back.t32 != nil {
				checkInvariants(t, back.t32)
			} else {
				checkInvariants(t, back.t64)
			}
		}
	}
}

func TestSerializeCorruption(t *testing.T) {
	keys := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	tree, err := Build(keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Bad magic.
	bad := append([]byte("XXXX"), full[4:]...)
	if _, err := ReadTree(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncations at every prefix must error, not panic.
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := ReadTree(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Implausible header values.
	hdr := append([]byte{}, full...)
	hdr[8] = 0xFF // clobber n
	hdr[9] = 0xFF
	hdr[10] = 0xFF
	hdr[11] = 0xFF
	if _, err := ReadTree(bytes.NewReader(hdr)); err == nil {
		t.Fatal("implausible n accepted")
	}
	// Unknown flag bits: bit2 marked the retired spill-forest form, whose
	// header would otherwise be misread as a 32-bit tree header.
	for _, bit := range []uint{2, 3, 31} {
		flagged := append([]byte{}, full...)
		flagged[4+bit/8] |= 1 << (bit % 8)
		if _, err := ReadTree(bytes.NewReader(flagged)); err == nil {
			t.Fatalf("record with flag bit %d accepted", bit)
		}
	}
}

func TestSerializedSizeMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	keys := randKeys(rng, 20_000, 20_000)
	tree, err := Build(keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s := tree.Stats()
	// Payload + pointer bytes dominate; header and strides are tiny.
	if buf.Len() < s.Bytes || buf.Len() > s.Bytes+1024 {
		t.Fatalf("serialized %d bytes, stats say %d", buf.Len(), s.Bytes)
	}
}
