package main

import (
	"testing"

	"holistic"
	"holistic/internal/core"
	"holistic/internal/tpch"
)

func TestFramedOracleAgreesWithEngineAndCatchesCorruption(t *testing.T) {
	li := tpch.GenerateLineitem(3000, 7)
	order, pos := shipOrder(li)
	tables := map[string]*holistic.Table{"lineitem": li.Table()}
	for _, k := range []int{1, 150, 2999} {
		res, err := holistic.RunSQLWith(evalSQL(k), tables)
		if err != nil {
			t.Fatal(err)
		}
		rows := append(sample(7, k, li.Len()), 0, li.Len()-1)
		a := answer{k: k, rows: rows, got: tableCells(res, rows)}
		if err := checkFramed(li, order, pos, a); err != nil {
			t.Fatalf("oracle rejects the engine's answer: %v", err)
		}
		for c := range evalCols {
			bad := answer{k: k, rows: rows, got: tableCells(res, rows)}
			bad.got[3][c] += "1"
			if err := checkFramed(li, order, pos, bad); err == nil {
				t.Errorf("k=%d: corrupted column %s accepted", k, evalCols[c])
			}
		}
	}
}

// mutatedTable applies batches 1..epochs of d to a copy of its data and
// returns the table windowd would hold at that epoch.
func mutatedTable(d *mutateData, applied map[int64][]upsert, epochs int64) *core.Table {
	cp := *d
	li := *d.li
	li.PartKey = append([]int64(nil), li.PartKey...)
	li.ExtendedPrice = append([]float64(nil), li.ExtendedPrice...)
	for e := int64(1); e <= epochs; e++ {
		for _, u := range applied[e] {
			li.PartKey[u.row], li.ExtendedPrice[u.row] = u.partKey, u.price
		}
	}
	cp.li = &li
	return cp.table()
}

func TestMutateOracleChecksEpochRangeAndCatchesCorruption(t *testing.T) {
	const seed = 3
	d := newMutateData(seed)
	applied := map[int64][]upsert{}
	for e := int64(1); e <= 3; e++ {
		applied[e] = d.batch(seed, int(e-1))
	}
	res, err := holistic.RunSQLWith(mutateSQL, map[string]*holistic.Table{"live": mutatedTable(d, applied, 2)})
	if err != nil {
		t.Fatal(err)
	}
	rows := sample(seed, 0, mutateRows)
	rows[0] = d.members[0]
	at2 := answer{rows: rows, got: tableCells(res, rows)}

	if errs := checkMutate(d, applied, []read{{answer: at2, lo: 1, hi: 3}}); len(errs) > 0 {
		t.Fatalf("epoch 2 answer rejected within [1, 3]: %v", errs)
	}
	if errs := checkMutate(d, applied, []read{{answer: at2, lo: 3, hi: 3}}); len(errs) == 0 {
		t.Error("epoch 2 answer accepted for a read that saw epoch 3")
	}
	bad := answer{rows: rows, got: tableCells(res, rows)}
	bad.got[1][0] = "0"
	if errs := checkMutate(d, applied, []read{{answer: bad, lo: 1, hi: 3}}); len(errs) == 0 {
		t.Error("corrupted cold-partition answer accepted")
	}
	bad = answer{rows: rows, got: tableCells(res, rows)}
	bad.got[0][1] += "1"
	if errs := checkMutate(d, applied, []read{{answer: bad, lo: 1, hi: 3}}); len(errs) == 0 {
		t.Error("corrupted hot-partition answer accepted")
	}
}
