package executor

import (
	"testing"

	"repro/internal/db/catalog"
	"repro/internal/db/value"
)

// Fixtures and in-package tests for the tuple-slot rule in node.go.
// The contract test itself (slot_test.go) is an external test because
// exectest, which holds the poison node, imports this package.

// numSch / numCols prune testDB's table to its two integer columns.
var (
	numCols = []int{0, 1}
	numSch  = catalog.NewSchema(
		catalog.Column{Name: "a", Type: value.Int},
		catalog.Column{Name: "b", Type: value.Int},
	)
)

// bEquals is the qualifier "column idx = v". Over testDB's b = a%7 it
// interleaves six rejected rows with every accepted one, so an accepted
// row's slot has always been overwritten before the next one is
// emitted.
func bEquals(idx int, v int64) []Expr {
	return []Expr{&BinOp{Op: OpEQ, L: intvar(idx), R: intconst(v)}}
}

// keyRows is a single-column outer relation 0..n-1.
func keyRows(n int) []Tuple {
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = Tuple{value.NewInt(int64(i))}
	}
	return rows
}

var keySch = catalog.NewSchema(catalog.Column{Name: "k", Type: value.Int})

// SlotPlans builds, over a 700-row testDB, one plan per operator —
// scans and joins with qualifiers that reject most candidates, every
// retaining consumer above inputs that reuse their output row — each
// as a constructor, because poisoning a plan rewires it in place.
func SlotPlans(t *testing.T) map[string]func() Node {
	db := newTestDB(t, 700)
	c := NewCtx(nil)
	seq := func() Node { return &SeqScan{C: c, Heap: db.heap, Out: db.sch} }
	keys := func(n int) Node { return &ValuesScan{C: c, Out: keySch, Rows: keyRows(n)} }
	byB := func() Node { return &Sort{C: c, Child: seq(), Keys: []SortKey{{Col: 1}}} }
	byS := func(quals []Expr) Node {
		return &Sort{C: c, Child: &SeqScan{C: c, Heap: db.heap, Out: db.sch, Quals: quals}, Keys: []SortKey{{Col: 2}}}
	}
	byA := func() Node { return &IndexScan{C: c, Heap: db.heap, Out: numSch, Cols: numCols, BTree: db.btree} }
	sumA := []AggSpec{{Func: AggSum, Arg: intvar(0)}, {Func: AggCount},
		{Func: AggMin, Arg: &Var{Idx: 2, T: value.Str}}, {Func: AggMax, Arg: &Var{Idx: 2, T: value.Str}}}
	return map[string]func() Node{
		"SeqScan": func() Node {
			return &SeqScan{C: c, Heap: db.heap, Out: db.sch, Quals: bEquals(1, 6)}
		},
		"SeqScan/pruned": func() Node {
			return &SeqScan{C: c, Heap: db.heap, Out: numSch, Cols: numCols, Quals: bEquals(1, 6)}
		},
		"IndexScan/btree": func() Node {
			return &IndexScan{C: c, Heap: db.heap, Out: db.sch, BTree: db.btree, Quals: bEquals(1, 6)}
		},
		"IndexScan/hash": func() Node {
			return &IndexScan{C: c, Heap: db.heap, Out: numSch, Cols: numCols, HashIdx: db.hash, EqKey: 3,
				Quals: []Expr{&BinOp{Op: OpLT, L: intvar(0), R: intconst(200)}}}
		},
		"Filter": func() Node { return &Filter{C: c, Child: seq(), Quals: bEquals(1, 6)} },
		"Project": func() Node {
			return &ProjectNode{C: c, Child: seq(), Exprs: []Expr{
				&BinOp{Op: OpAdd, L: intvar(0), R: intvar(1)}, &Var{Idx: 2, T: value.Str}}}
		},
		"Limit": func() Node { return &Limit{C: c, Child: seq(), N: 40} },
		"Sort": func() Node {
			return &Sort{C: c, Child: seq(), Keys: []SortKey{{Col: 1}, {Col: 0, Desc: true}}}
		},
		"Material/rescanned": func() Node {
			return &NestLoop{C: c, Outer: keys(3), Inner: &Material{C: c, Child: seq()}, Quals: bEquals(2, 6)}
		},
		"Agg": func() Node { return &Agg{C: c, Child: seq(), Specs: sumA} },
		"GroupAgg": func() Node {
			return &GroupAgg{C: c, Child: byB(), GroupBy: []int{1}, Specs: sumA}
		},
		"GroupAgg/varchar key": func() Node {
			return &GroupAgg{C: c, Child: byS(nil), GroupBy: []int{2}, Specs: sumA}
		},
		// The planner's GROUP BY shape: the sort keeps (a, s) of the
		// scan's (a, b, s), and the group key and aggregates index that.
		"GroupAgg/narrowed sort, varchar key": func() Node {
			narrow := &Sort{C: c, Child: seq(), Out: catalog.NewSchema(db.sch.Columns[0], db.sch.Columns[2]),
				Cols: []int{0, 2}, Keys: []SortKey{{Col: 1}}}
			return &GroupAgg{C: c, Child: narrow, GroupBy: []int{1}, Specs: []AggSpec{
				{Func: AggSum, Arg: intvar(0)}, {Func: AggCount},
				{Func: AggMin, Arg: &Var{Idx: 1, T: value.Str}}, {Func: AggMax, Arg: &Var{Idx: 1, T: value.Str}}}}
		},
		"NestLoop": func() Node {
			return &NestLoop{C: c, Outer: keys(5), Inner: seq(), Quals: bEquals(2, 6)}
		},
		"NestLoop/slot outer": func() Node {
			return &NestLoop{C: c, Outer: &Limit{C: c, Child: seq(), N: 3}, Inner: keys(4)}
		},
		"IndexLoopJoin/btree": func() Node {
			return &IndexLoopJoin{C: c, Outer: keys(db.n), OuterKey: 0,
				Heap: db.heap, BTree: db.btree, InnerSch: db.sch, Quals: bEquals(2, 6)}
		},
		"IndexLoopJoin/hash": func() Node {
			return &IndexLoopJoin{C: c, Outer: &Limit{C: c, Child: seq(), N: 7}, OuterKey: 0,
				Heap: db.heap, HashIdx: db.hash, InnerSch: numSch, InnerCols: numCols,
				Quals: []Expr{&BinOp{Op: OpLT, L: intvar(3), R: intconst(100)}}}
		},
		"HashJoin": func() Node {
			return &HashJoin{C: c, Outer: seq(), Inner: seq(), OuterKey: 1, InnerKey: 0, Quals: bEquals(1, 6)}
		},
		"MergeJoin/duplicates": func() Node {
			return &MergeJoin{C: c, Outer: byB(), Inner: byB(), OuterKey: 1, InnerKey: 1, Quals: bEquals(0, 13)}
		},
		"MergeJoin/varchar key": func() Node {
			return &MergeJoin{C: c, Outer: byS(bEquals(1, 6)), Inner: byS(nil), OuterKey: 2, InnerKey: 2, Quals: bEquals(3, 13)}
		},
		"MergeJoin/slot inputs": func() Node {
			return &MergeJoin{C: c, Outer: byA(), Inner: byA(), OuterKey: 0, InnerKey: 0, Quals: bEquals(1, 6)}
		},
	}
}

// With only numeric columns wanted, a Next allocates nothing once the
// plan is running: every operator refills the row it allocated at Open,
// whether its qualifiers reject a candidate (six per emitted row below)
// or accept it.
func TestRowAllocations(t *testing.T) {
	const runs = 50
	db := newTestDB(t, 7*(runs+2))
	c := NewCtx(nil)
	scan := func() Node {
		return &SeqScan{C: c, Heap: db.heap, Out: numSch, Cols: numCols, Quals: bEquals(1, 6)}
	}
	keys := func() Node { return &ValuesScan{C: c, Out: keySch, Rows: keyRows(db.n)} }
	sorted := func() Node {
		return &Sort{C: c, Keys: []SortKey{{Col: 1}},
			Child: &SeqScan{C: c, Heap: db.heap, Out: numSch, Cols: numCols}}
	}
	plans := map[string]Node{
		"SeqScan": scan(),
		"IndexScan": &IndexScan{C: c, Heap: db.heap, Out: numSch, Cols: numCols,
			BTree: db.btree, Quals: bEquals(1, 6)},
		"IndexLoopJoin": &IndexLoopJoin{C: c, Outer: keys(), OuterKey: 0,
			Heap: db.heap, BTree: db.btree, InnerSch: numSch, InnerCols: numCols,
			Quals: bEquals(2, 6)},
		// The inner ValuesScan rewinds on re-Open without allocating.
		"NestLoop": &NestLoop{C: c, Outer: scan(), Inner: keys(),
			Quals: []Expr{&BinOp{Op: OpEQ, L: intvar(0), R: intvar(2)}}},
		// The build happens in AllocsPerRun's warm-up call.
		"HashJoin/probe": &HashJoin{C: c, Outer: scan(), Inner: keys(), OuterKey: 0, InnerKey: 0},
		"MergeJoin": &MergeJoin{C: c, Outer: sorted(), Inner: sorted(), OuterKey: 1, InnerKey: 1,
			Quals: bEquals(0, 13)},
		"Filter": &Filter{C: c, Child: scan(), Quals: bEquals(1, 6)},
		"Project": &ProjectNode{C: c, Child: scan(),
			Exprs: []Expr{&BinOp{Op: OpAdd, L: intvar(0), R: intvar(1)}}},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			if err := plan.Open(); err != nil {
				t.Fatal(err)
			}
			defer plan.Close()
			allocs := testing.AllocsPerRun(runs, func() {
				if _, ok, err := plan.Next(); err != nil || !ok {
					t.Fatalf("Next: ok=%v err=%v", ok, err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%v allocations per Next in steady state, want 0", allocs)
			}
		})
	}
}
