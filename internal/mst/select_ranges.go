package mst

import "fmt"

// maxSelectRanges bounds the number of value ranges a multi-range select
// accepts. Frame exclusion splits a frame into at most three continuous
// ranges (§4.7), so three is all the window operator ever needs.
const maxSelectRanges = 4

// SelectKthRanges generalises SelectKth to a union of disjoint value ranges:
// it returns the base position of the i-th entry (0-based, in position
// order) whose value falls into any of the half-open ranges. The ranges must
// be sorted and non-overlapping. Frame exclusion clauses produce such
// unions; the descent simply tracks one cascaded rank pair per range, so the
// query stays O(log n) with a constant factor of at most three (§4.7).
func (t *Tree) SelectKthRanges(ranges [][2]int64, i int) (pos int, ok bool) {
	if i < 0 || t.n == 0 || len(ranges) == 0 {
		return 0, false
	}
	if len(ranges) > maxSelectRanges {
		//lint:invariant frame exclusion yields at most 3 ranges (§4.7); more is a window-operator bug, and truncating would silently mis-select
		panic(fmt.Sprintf("mst: SelectKthRanges got %d ranges, max %d", len(ranges), maxSelectRanges))
	}
	if len(ranges) == 1 {
		return t.SelectKth(ranges[0][0], ranges[0][1], i)
	}
	if t.t32 != nil {
		var b [maxSelectRanges][2]int32
		m := 0
		for _, r := range ranges {
			lo, hi := clampI32(r[0]), clampI32(r[1])
			if lo < hi {
				b[m] = [2]int32{lo, hi}
				m++
			}
		}
		return selectKthMulti(t.t32, b[:m], i)
	}
	var b [maxSelectRanges][2]int64
	m := 0
	for _, r := range ranges {
		if r[0] < r[1] {
			b[m] = r
			m++
		}
	}
	return selectKthMulti(t.t64, b[:m], i)
}

// selectKthMulti runs the Figure 7 descent with one rank pair per value
// range.
func selectKthMulti[P payload](t *tree[P], bounds [][2]P, i int) (int, bool) {
	if len(bounds) == 0 {
		return 0, false
	}
	top := t.top()
	run0 := t.run(top, 0)
	var ranks [maxSelectRanges][2]int
	total := 0
	for r, b := range bounds {
		ranks[r][0] = lowerBoundP(run0, b[0])
		ranks[r][1] = lowerBoundP(run0, b[1])
		total += ranks[r][1] - ranks[r][0]
	}
	if i >= total {
		return 0, false
	}
	level, run := top, 0
	for level > 0 {
		runStart := run * t.effLen[level]
		runEnd := runStart + t.effLen[level]
		if runEnd > t.n {
			runEnd = t.n
		}
		numKids := (runEnd - runStart + t.effLen[level-1] - 1) / t.effLen[level-1]
		descended := false
		for c := 0; c < numKids; c++ {
			var childRanks [maxSelectRanges][2]int
			cnt := 0
			for r, b := range bounds {
				childRanks[r][0] = t.childRank(level, run, ranks[r][0], c, b[0])
				childRanks[r][1] = t.childRank(level, run, ranks[r][1], c, b[1])
				cnt += childRanks[r][1] - childRanks[r][0]
			}
			if i < cnt {
				copy(ranks[:], childRanks[:])
				run = run*t.f + c
				level--
				descended = true
				break
			}
			i -= cnt
		}
		if !descended {
			//lint:invariant the caller-checked rank i is < the root count, so some child run must contain the i-th element; losing it means corrupted cascade samples
			panic("mst: SelectKthRanges descent lost element")
		}
	}
	return run, true
}
