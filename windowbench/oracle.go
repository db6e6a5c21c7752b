package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"holistic/internal/tpch"
)

// The oracle recomputes answers by brute force from the generated data. It
// runs after the timed window, on a seeded sample of rows of every answer
// the run received; any mismatch counts as a failed operation and fails the
// command.

// sample picks the rows of answer i that the oracle recomputes.
func sample(seed int64, i, n int) []int {
	rng := stream(seed, tagSample, i)
	rows := make([]int, sampleRows)
	for j := range rows {
		rows[j] = rng.Intn(n)
	}
	return rows
}

// answer is one checked response: the sampled rows and the cells the
// program returned for them, in select-list order.
type answer struct {
	k    int // ROWS offset of the statement; unused by serve-mutate
	rows []int
	got  [][]string
}

// medianDisc is PERCENTILE_DISC(0.5) of vals, which it sorts.
func medianDisc(vals []float64) float64 {
	sort.Float64s(vals)
	return vals[max(int(math.Ceil(0.5*float64(len(vals))))-1, 0)]
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
func fmtInt(v int64) string     { return strconv.FormatInt(v, 10) }

// frameCells recomputes the evalSQL select list for the row at window
// position p of order under ROWS k PRECEDING: median price, distinct part
// keys, sum of distinct quantities, and the rank and dense rank of the
// row's price among the frame's. serve-explore compares the first two.
func frameCells(li *tpch.Lineitem, order []int, p, k int) []string {
	frame := order[max(p-k, 0) : p+1]
	prices := make([]float64, 0, len(frame))
	parts := make(map[int64]bool)
	qtys := make(map[int64]bool)
	own := li.ExtendedPrice[order[p]]
	var sumDistinct, below int64
	lower := make(map[float64]bool)
	for _, r := range frame {
		prices = append(prices, li.ExtendedPrice[r])
		parts[li.PartKey[r]] = true
		if !qtys[li.Quantity[r]] {
			qtys[li.Quantity[r]] = true
			sumDistinct += li.Quantity[r]
		}
		if v := li.ExtendedPrice[r]; v < own {
			below++
			lower[v] = true
		}
	}
	return []string{
		fmtFloat(medianDisc(prices)),
		fmtInt(int64(len(parts))),
		fmtInt(sumDistinct),
		fmtInt(below + 1),
		fmtInt(int64(len(lower)) + 1),
	}
}

// checkFramed verifies a serve-explore or eval-cold answer: every sampled
// row's cells must equal the brute-force frame recomputation.
func checkFramed(li *tpch.Lineitem, order, pos []int, a answer) error {
	for j, r := range a.rows {
		want := frameCells(li, order, pos[r], a.k)
		if len(a.got[j]) > len(want) {
			return fmt.Errorf("k=%d row %d: %d cells, want at most %d", a.k, r, len(a.got[j]), len(want))
		}
		for c, got := range a.got[j] {
			if got != want[c] {
				return fmt.Errorf("k=%d row %d column %d: got %q, want %q", a.k, r, c, got, want[c])
			}
		}
	}
	return nil
}

// partitionCells recomputes the mutateSQL select list over rows: distinct
// part keys and the median price.
func partitionCells(partKey []int64, price []float64, rows []int) []string {
	parts := make(map[int64]bool)
	prices := make([]float64, 0, len(rows))
	for _, r := range rows {
		parts[partKey[r]] = true
		prices = append(prices, price[r])
	}
	return []string{fmtInt(int64(len(parts))), fmtFloat(medianDisc(prices))}
}

// read is one checked serve-mutate answer. Writes run beside reads, so the
// snapshot it saw is only known to lie between the epoch acknowledged
// before it was sent (lo) and the number of batches sent before its reply
// arrived (hi).
type read struct {
	answer
	lo, hi int64
}

// checkMutate verifies serve-mutate answers against a mirror of the upserts
// the server acknowledged, keyed by the epoch each one produced. Every
// partition but the hot one keeps its generated answer; the hot partition
// must match its mirror at some epoch in the read's range.
func checkMutate(d *mutateData, applied map[int64][]upsert, reads []read) []error {
	byGroup := make([][]int, mutateParts)
	for r, g := range d.grp {
		byGroup[g] = append(byGroup[g], r)
	}
	base := make([][]string, mutateParts)
	for g, rows := range byGroup {
		base[g] = partitionCells(d.li.PartKey, d.li.ExtendedPrice, rows)
	}
	// hotAt[e] is the hot partition's answer at epoch e, for every epoch
	// reachable by replaying acknowledged batches without a gap.
	partKey := append([]int64(nil), d.li.PartKey...)
	price := append([]float64(nil), d.li.ExtendedPrice...)
	hotAt := [][]string{base[d.hot]}
	for e := int64(1); ; e++ {
		b, ok := applied[e]
		if !ok {
			break
		}
		for _, u := range b {
			partKey[u.row], price[u.row] = u.partKey, u.price
		}
		hotAt = append(hotAt, partitionCells(partKey, price, byGroup[d.hot]))
	}

	var errs []error
	for _, rd := range reads {
		if err := checkRead(d, base, hotAt, rd); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func checkRead(d *mutateData, base, hotAt [][]string, rd read) error {
	var hot [][]string
	for j, r := range rd.rows {
		g := d.grp[r]
		if g == d.hot {
			hot = append(hot, rd.got[j])
			continue
		}
		if !slices.Equal(rd.got[j], base[g]) {
			return fmt.Errorf("row %d (partition %d): got %q, want %q", r, g, rd.got[j], base[g])
		}
	}
	if len(hot) == 0 {
		return nil
	}
	for e := rd.lo; e <= rd.hi && e < int64(len(hotAt)); e++ {
		ok := true
		for _, got := range hot {
			ok = ok && slices.Equal(got, hotAt[e])
		}
		if ok {
			return nil
		}
	}
	return fmt.Errorf("hot partition %d: got %q, matching no mirrored epoch in [%d, %d]", d.hot, hot[0], rd.lo, rd.hi)
}
