package executor

import (
	"testing"

	"repro/internal/db/catalog"
	"repro/internal/db/value"
)

// Tests for the tuple-ownership rule in node.go: emitted tuples belong
// to the caller, operators recycle only rejected row buffers, and the
// recycling is what makes rejected rows free.

// numSch / numCols prune testDB's table to its two integer columns.
var (
	numCols = []int{0, 1}
	numSch  = catalog.NewSchema(
		catalog.Column{Name: "a", Type: value.Int},
		catalog.Column{Name: "b", Type: value.Int},
	)
)

// bEquals is the qualifier "column idx = v". Over testDB's b = a%7 it
// interleaves six rejected rows with every accepted one, so a recycled
// buffer is always in play when a row is emitted.
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

// ownershipPlans builds one plan per scan and join operator, each with
// qualifiers that reject most candidate rows.
func ownershipPlans(db *testDB) map[string]Node {
	c := NewCtx(nil)
	seq := func() Node { return &SeqScan{C: c, Heap: db.heap, Out: db.sch} }
	return map[string]Node{
		"SeqScan": &SeqScan{C: c, Heap: db.heap, Out: db.sch, Quals: bEquals(1, 6)},
		"SeqScan/pruned": &SeqScan{C: c, Heap: db.heap, Out: numSch, Cols: numCols,
			Quals: bEquals(1, 6)},
		"IndexScan/btree": &IndexScan{C: c, Heap: db.heap, Out: db.sch,
			BTree: db.btree, Quals: bEquals(1, 6)},
		"IndexScan/hash": &IndexScan{C: c, Heap: db.heap, Out: numSch, Cols: numCols,
			HashIdx: db.hash, EqKey: 3, Quals: []Expr{&BinOp{Op: OpLT, L: intvar(0), R: intconst(200)}}},
		"ParallelScan": &ParallelScan{C: c, Heap: db.heap, Out: db.sch, Degree: 4,
			Quals: bEquals(1, 6)},
		"NestLoop": &NestLoop{C: c,
			Outer: &ValuesScan{C: c, Out: keySch, Rows: keyRows(5)},
			Inner: seq(), Quals: bEquals(2, 6)},
		"IndexLoopJoin/btree": &IndexLoopJoin{C: c,
			Outer: &ValuesScan{C: c, Out: keySch, Rows: keyRows(db.n)}, OuterKey: 0,
			Heap: db.heap, BTree: db.btree, InnerSch: db.sch, Quals: bEquals(2, 6)},
		"IndexLoopJoin/hash": &IndexLoopJoin{C: c,
			Outer: &ValuesScan{C: c, Out: keySch, Rows: keyRows(7)}, OuterKey: 0,
			Heap: db.heap, HashIdx: db.hash, InnerSch: numSch, InnerCols: numCols,
			Quals: []Expr{&BinOp{Op: OpLT, L: intvar(1), R: intconst(100)}}},
		"HashJoin": &HashJoin{C: c, Outer: seq(), Inner: seq(),
			OuterKey: 1, InnerKey: 0, Quals: bEquals(1, 6)},
		"MergeJoin": &MergeJoin{C: c,
			Outer:    &Sort{C: c, Child: seq(), Keys: []SortKey{{Col: 1}}},
			Inner:    &Sort{C: c, Child: seq(), Keys: []SortKey{{Col: 1}}},
			OuterKey: 1, InnerKey: 1, Quals: bEquals(0, 13)},
	}
}

// Every emitted tuple is retained until the plan is exhausted and then
// compared with a deep copy taken at emit time: a producer that reused
// an emitted tuple's storage for a later row would change it.
func TestEmittedTuplesAreNeverReused(t *testing.T) {
	db := newTestDB(t, 700)
	for name, plan := range ownershipPlans(db) {
		t.Run(name, func(t *testing.T) {
			if err := plan.Open(); err != nil {
				t.Fatal(err)
			}
			var kept, copies []Tuple
			for {
				tup, ok, err := plan.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				kept = append(kept, tup)
				copies = append(copies, append(Tuple(nil), tup...))
			}
			if err := plan.Close(); err != nil {
				t.Fatal(err)
			}
			if len(kept) == 0 {
				t.Fatal("plan emitted nothing; the test needs accepted rows")
			}
			for i := range kept {
				if len(kept[i]) != len(copies[i]) {
					t.Fatalf("row %d changed width %d -> %d", i, len(copies[i]), len(kept[i]))
				}
				for j := range kept[i] {
					if kept[i][j] != copies[i][j] {
						t.Fatalf("row %d col %d was %v at emit, is %v after exhaustion",
							i, j, copies[i][j], kept[i][j])
					}
				}
			}
		})
	}
}

// With only numeric columns wanted, a rejected row costs no allocation
// and an emitted row exactly one (its slice): each Next below steps
// over six rejected candidates and emits the seventh.
func TestRowAllocations(t *testing.T) {
	const runs = 50
	db := newTestDB(t, 7*(runs+2))
	c := NewCtx(nil)
	plans := map[string]Node{
		"SeqScan": &SeqScan{C: c, Heap: db.heap, Out: numSch, Cols: numCols,
			Quals: bEquals(1, 6)},
		"IndexScan": &IndexScan{C: c, Heap: db.heap, Out: numSch, Cols: numCols,
			BTree: db.btree, Quals: bEquals(1, 6)},
		"IndexLoopJoin": &IndexLoopJoin{C: c,
			Outer: &ValuesScan{C: c, Out: keySch, Rows: keyRows(db.n)}, OuterKey: 0,
			Heap: db.heap, BTree: db.btree, InnerSch: numSch, InnerCols: numCols,
			Quals: bEquals(2, 6)},
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
			if allocs != 1 {
				t.Fatalf("%v allocations per emitted row (six rejected before it), want 1", allocs)
			}
		})
	}
}
