package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"holistic/internal/server/api"
	"holistic/internal/tpch"
)

// Workload sizes. They are part of the benchmark's definition: changing one
// changes every number it reports.
const (
	exploreRows = 200_000 // serve-explore dataset
	mutateRows  = 200_000 // serve-mutate dataset
	mutateParts = 100     // serve-mutate PARTITION BY grp cardinality
	evalRows    = 100_000 // eval-cold table
	minK, maxK  = 100, 5000
	batchRows   = 100 // rows per serve-mutate upsert batch
	sampleRows  = 12  // rows the oracle recomputes per checked answer
)

// Stream tags: every random choice the benchmark makes draws from a stream
// derived from the seed and one of these, so inputs depend on the seed only.
const (
	tagFrames = iota + 1
	tagGroups
	tagHot
	tagBatch
	tagSample
	tagReplay
)

// stream returns the deterministic random source for (seed, tag, index).
func stream(seed int64, tag, index int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(tag)*7_919 + int64(index)*104_729))
}

// frameStrata is how many equal bands [minK, maxK] is cut into for frame
// sampling. Statement cost grows with the frame, so drawing the frames of
// each round of frameStrata statements one from every band keeps the mix of
// frame sizes, and so the medians, alike across seeds.
const frameStrata = 8

// frameKs returns ROWS ... PRECEDING offsets in [minK, maxK], each at most
// once, in a seeded order: statement i draws from band i mod frameStrata
// (bands visited in a seeded order per round), at a seeded offset. No two
// statements share a frame, so windowd's result cache never answers one.
func frameKs(seed int64) []int {
	rng := stream(seed, tagFrames, 0)
	width := (maxK - minK + frameStrata) / frameStrata
	var bands [][]int
	rounds := width
	for lo := minK; lo <= maxK; lo += width {
		hi := min(lo+width-1, maxK)
		band := rng.Perm(hi - lo + 1)
		for i := range band {
			band[i] += lo
		}
		bands = append(bands, band)
		rounds = min(rounds, len(band))
	}
	ks := make([]int, 0, rounds*len(bands))
	for r := 0; r < rounds; r++ {
		for _, b := range rng.Perm(len(bands)) {
			ks = append(ks, bands[b][r])
		}
	}
	return ks
}

// exploreSQL is the serve-explore statement: a select-family and a
// count-family function over one fresh ROWS frame.
func exploreSQL(k int) string {
	return fmt.Sprintf("select percentile_disc(0.5 order by l_extendedprice) over w as med, "+
		"count(distinct l_partkey) over w as cd from lineitem "+
		"window w as (order by l_shipdate rows between %d preceding and current row)", k)
}

// evalSQL is the eval-cold statement: five functions sharing one window,
// covering the select, count, agg and rank MST families and the range tree.
func evalSQL(k int) string {
	return fmt.Sprintf("select percentile_disc(0.5 order by l_extendedprice) over w as med, "+
		"count(distinct l_partkey) over w as cd, sum(distinct l_quantity) over w as sd, "+
		"rank(order by l_extendedprice) over w as rk, dense_rank(order by l_extendedprice) over w as drk "+
		"from lineitem window w as (order by l_shipdate rows between %d preceding and current row)", k)
}

// mutateSQL is the serve-mutate reader statement.
const mutateSQL = "select count(distinct l_partkey) over (partition by grp) as cd, " +
	"percentile_disc(0.5 order by l_extendedprice) over (partition by grp) as med from live"

// lineitemCols are the generated columns, in CSV order after id and grp.
var lineitemCols = []string{
	"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice",
	"l_shipdate", "l_commitdate", "l_receiptdate",
}

// cell renders row i's value of lineitem column c as windowd parses it.
func cell(li *tpch.Lineitem, c string, i int) string {
	switch c {
	case "l_orderkey":
		return strconv.FormatInt(li.OrderKey[i], 10)
	case "l_partkey":
		return strconv.FormatInt(li.PartKey[i], 10)
	case "l_suppkey":
		return strconv.FormatInt(li.SuppKey[i], 10)
	case "l_quantity":
		return strconv.FormatInt(li.Quantity[i], 10)
	case "l_extendedprice":
		return strconv.FormatFloat(li.ExtendedPrice[i], 'g', -1, 64)
	case "l_shipdate":
		return strconv.FormatInt(li.ShipDate[i], 10)
	case "l_commitdate":
		return strconv.FormatInt(li.CommitDate[i], 10)
	default:
		return strconv.FormatInt(li.ReceiptDate[i], 10)
	}
}

// lineitemCSV renders li as CSV; with grp non-nil it leads with the id key
// (row number from 1) and the partition column.
func lineitemCSV(li *tpch.Lineitem, grp []int64) []byte {
	var b bytes.Buffer
	if grp != nil {
		b.WriteString("id,grp,")
	}
	for i, c := range lineitemCols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for i := 0; i < li.Len(); i++ {
		if grp != nil {
			fmt.Fprintf(&b, "%d,%d,", i+1, grp[i])
		}
		for j, c := range lineitemCols {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(cell(li, c, i))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// shipOrder returns the rows in window order (l_shipdate, then row index,
// the engine's tiebreak) and each row's position in it.
func shipOrder(li *tpch.Lineitem) (order, pos []int) {
	order = make([]int, li.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return li.ShipDate[order[a]] < li.ShipDate[order[b]] })
	pos = make([]int, len(order))
	for p, r := range order {
		pos[r] = p
	}
	return order, pos
}

// mutateData is the serve-mutate dataset: lineitem rows keyed by id = row+1
// and spread over mutateParts partitions, with one seeded hot partition
// that every upsert batch writes to.
type mutateData struct {
	li      *tpch.Lineitem
	grp     []int64
	hot     int64
	members []int // rows of the hot partition
}

func newMutateData(seed int64) *mutateData {
	d := &mutateData{li: tpch.GenerateLineitem(mutateRows, seed), grp: make([]int64, mutateRows)}
	rng := stream(seed, tagGroups, 0)
	for i := range d.grp {
		d.grp[i] = int64(rng.Intn(mutateParts))
	}
	d.hot = int64(stream(seed, tagHot, 0).Intn(mutateParts))
	for i, g := range d.grp {
		if g == d.hot {
			d.members = append(d.members, i)
		}
	}
	return d
}

// upsert is one generated row change: row gets a new part key and price.
type upsert struct {
	row     int
	partKey int64
	price   float64
}

// batch returns upsert batch i: batchRows distinct rows of the hot
// partition with fresh part keys and prices drawn like the generator's.
func (d *mutateData) batch(seed int64, i int) []upsert {
	rng := stream(seed, tagBatch, i)
	n := min(batchRows, len(d.members))
	out := make([]upsert, n)
	for j, m := range rng.Perm(len(d.members))[:n] {
		part := rng.Int63n(int64(mutateRows/4 + 1))
		retail := 90000 + part%20001 + 100*(part%1000)
		out[j] = upsert{row: d.members[m], partKey: part + 1, price: float64((rng.Int63n(50)+1)*retail) / 100}
	}
	return out
}

// request renders a batch as a windowd mutation request. Upserts replace
// whole rows, so every column is sent.
func (d *mutateData) request(b []upsert) api.MutateRequest {
	req := api.MutateRequest{Mutations: make([]api.MutationSpec, len(b))}
	for j, u := range b {
		row := map[string]string{
			"id":  strconv.Itoa(u.row + 1),
			"grp": strconv.FormatInt(d.grp[u.row], 10),
		}
		for _, c := range lineitemCols {
			row[c] = cell(d.li, c, u.row)
		}
		row["l_partkey"] = strconv.FormatInt(u.partKey, 10)
		row["l_extendedprice"] = strconv.FormatFloat(u.price, 'g', -1, 64)
		req.Mutations[j] = api.MutationSpec{Op: api.OpUpsert, Row: row}
	}
	return req
}
