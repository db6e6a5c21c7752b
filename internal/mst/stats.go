package mst

// Stats describes the storage of a built tree, matching the accounting of
// §5.1: the tree has ⌈log_f n⌉·n payload elements plus
// (⌈log_f n⌉−1)·n·f/k cascading pointers, so a larger fanout shrinks the
// payload exponentially while growing the pointer share linearly.
type Stats struct {
	Levels         int // number of levels including the base copy
	Elements       int // payload elements across all levels
	Pointers       int // cascading pointer entries across all levels
	ElementBytes   int // bytes per payload element (4 or 8)
	Bytes          int // total bytes of payloads plus pointers
	Fanout         int
	SampleDistance int
}

// Stats reports the storage consumed by the tree.
func (t *Tree) Stats() Stats {
	if t.t32 != nil {
		return stats(t.t32, 4)
	}
	return stats(t.t64, 8)
}

func stats[P payload](t *tree[P], elemBytes int) Stats {
	s := Stats{
		Levels:         len(t.levels),
		ElementBytes:   elemBytes,
		Fanout:         t.f,
		SampleDistance: t.k,
	}
	for l, lv := range t.levels {
		s.Elements += len(lv)
		s.Pointers += len(t.samples[l])
	}
	s.Bytes = s.Elements*elemBytes + s.Pointers*4
	return s
}
