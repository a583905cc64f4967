package sql

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/db/catalog"
	"repro/internal/db/engine"
	"repro/internal/db/executor"
	"repro/internal/db/executor/exectest"
	"repro/internal/db/value"
	"repro/internal/tpcd"
)

// scannedColumns walks a plan and returns, per base table, the names
// and stored ordinals of the columns its scan (or index-join inner
// side) deforms.
func scannedColumns(t *testing.T, n executor.Node) (names map[string]string, ords map[string][]int) {
	t.Helper()
	names, ords = map[string]string{}, map[string][]int{}
	record := func(table string, sch *catalog.Schema, cols []int) {
		names[table] = colNames(sch)
		ords[table] = cols
	}
	walkPlan(t, n, nil, func(n, _ executor.Node) {
		switch x := n.(type) {
		case *executor.SeqScan:
			record(x.Table, x.Out, x.Cols)
		case *executor.IndexScan:
			record(x.Table, x.Out, x.Cols)
		case *executor.IndexLoopJoin:
			record(x.Table, x.InnerSch, x.InnerCols)
		}
	})
	return names, ords
}

// walkPlan calls fn with every node of a plan and its parent (nil at
// the root), parents first, and fails the test on a node type it does
// not know how to descend into.
func walkPlan(t *testing.T, n, parent executor.Node, fn func(n, parent executor.Node)) {
	t.Helper()
	fn(n, parent)
	var kids []executor.Node
	switch x := n.(type) {
	case *executor.SeqScan, *executor.IndexScan:
	case *executor.IndexLoopJoin:
		kids = []executor.Node{x.Outer}
	case *executor.HashJoin:
		kids = []executor.Node{x.Outer, x.Inner}
	case *executor.MergeJoin:
		kids = []executor.Node{x.Outer, x.Inner}
	case *executor.NestLoop:
		kids = []executor.Node{x.Outer, x.Inner}
	case *executor.ProjectNode:
		kids = []executor.Node{x.Child}
	case *executor.Filter:
		kids = []executor.Node{x.Child}
	case *executor.Sort:
		kids = []executor.Node{x.Child}
	case *executor.Agg:
		kids = []executor.Node{x.Child}
	case *executor.GroupAgg:
		kids = []executor.Node{x.Child}
	case *executor.Limit:
		kids = []executor.Node{x.Child}
	default:
		t.Fatalf("walkPlan: unhandled node %T", n)
	}
	for _, k := range kids {
		walkPlan(t, k, n, fn)
	}
}

// colNames joins a schema's column names with commas.
func colNames(sch *catalog.Schema) string {
	ns := make([]string, len(sch.Columns))
	for i, c := range sch.Columns {
		ns[i] = c.Name
	}
	return strings.Join(ns, ",")
}

// A GROUP BY sort keeps the group columns and the aggregates'
// arguments and nothing else; an ORDER BY sort keeps every column,
// because its rows are the result. Pinned for every TPC-D query on
// both index kinds (the join shapes below the sorts differ).
func TestPlanNarrowsGroupBySorts(t *testing.T) {
	want := map[int]string{
		3:  "o_orderdate,o_shippriority,l_orderkey,l_extendedprice,l_discount",
		4:  "o_orderpriority",
		5:  "n_name,l_extendedprice,l_discount",
		9:  "n_name,l_quantity,l_extendedprice,l_discount,ps_supplycost",
		11: "ps_partkey,ps_availqty,ps_supplycost",
		12: "l_shipmode",
		13: "c_custkey",
		15: "l_suppkey,l_extendedprice,l_discount",
	}
	for _, kind := range []catalog.IndexKind{catalog.BTree, catalog.Hash} {
		db := engine.Open(2048)
		if err := tpcd.Load(db, tpcd.Config{SF: 0.001, Seed: 42, Indexes: kind}); err != nil {
			t.Fatal(err)
		}
		for _, qn := range tpcd.AllQueryNumbers() {
			q, _ := tpcd.Query(qn)
			cq, err := CompileQuery(db, executor.NewCtx(nil), q)
			if err != nil {
				t.Fatalf("Q%d: %v", qn, err)
			}
			scannedColumns(t, cq.Plan)
			grouped := ""
			walkPlan(t, cq.Plan, nil, func(n, parent executor.Node) {
				srt, ok := n.(*executor.Sort)
				if !ok {
					return
				}
				if _, ok := parent.(*executor.GroupAgg); ok {
					grouped = colNames(srt.Schema())
					kept := srt.Child.Schema()
					for i, col := range srt.Cols {
						if kept.Columns[col] != srt.Out.Columns[i] {
							t.Errorf("Q%d %v: Cols[%d] = %d names %v, Out has %v", qn, kind, i, col, kept.Columns[col], srt.Out.Columns[i])
						}
					}
					return
				}
				if srt.Cols != nil || srt.Schema() != srt.Child.Schema() {
					t.Errorf("Q%d %v: a sort not under a GROUP BY keeps %s of %s", qn, kind,
						colNames(srt.Schema()), colNames(srt.Child.Schema()))
				}
			})
			if grouped != want[qn] {
				t.Errorf("Q%d %v: the GROUP BY sort keeps %q, want %q", qn, kind, grouped, want[qn])
			}
		}
	}
}

// Scans deform only the columns the statement references, ordinals
// ascending, and the pruned plans still compute the right answers.
func TestPlanPrunesScanColumns(t *testing.T) {
	db := miniDB(t, catalog.BTree) // t(k, v, s, d), index on k
	usch := catalog.NewSchema(
		catalog.Column{Name: "uk", Type: value.Int},
		catalog.Column{Name: "uv", Type: value.Int},
		catalog.Column{Name: "us", Type: value.Str},
	)
	if _, err := db.CreateTable("u", usch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		row := []value.Value{value.NewInt(int64(i * 2)), value.NewInt(int64(i)), value.NewStr("pad")}
		if err := db.Insert("u", row); err != nil {
			t.Fatal(err)
		}
	}
	ints := func(rows []executor.Tuple) [][]int64 {
		out := make([][]int64, len(rows))
		for i, r := range rows {
			for _, v := range r {
				out[i] = append(out[i], v.I)
			}
		}
		return out
	}
	cases := []struct {
		name, query string
		names       map[string]string
		ords        map[string][]int
		check       func(t *testing.T, rows [][]int64)
	}{{
		name:  "count(*) references no column: zero-width tuples",
		query: "select count(*) from t",
		names: map[string]string{"t": ""},
		ords:  map[string][]int{"t": {}},
		check: func(t *testing.T, rows [][]int64) {
			if len(rows) != 1 || rows[0][0] != 100 {
				t.Fatalf("rows = %v, want [[100]]", rows)
			}
		},
	}, {
		name:  "ORDER BY on an alias adds nothing to the scan",
		query: "select v as vee, k from t where k < 5 order by vee desc",
		names: map[string]string{"t": "k,v"},
		ords:  map[string][]int{"t": {0, 1}},
		check: func(t *testing.T, rows [][]int64) {
			want := [][]int64{{4, 4}, {3, 3}, {2, 2}, {1, 1}, {0, 0}}
			if !reflect.DeepEqual(rows, want) {
				t.Fatalf("rows = %v, want %v", rows, want)
			}
		},
	}, {
		name:  "a column used only in GROUP BY is kept",
		query: "select count(*) as n from t where d >= '1994-01-01' group by v",
		names: map[string]string{"t": "v,d"},
		ords:  map[string][]int{"t": {1, 3}},
		check: func(t *testing.T, rows [][]int64) {
			if len(rows) != 10 {
				t.Fatalf("%d groups, want 10", len(rows))
			}
			for _, r := range rows {
				if r[0] != 10 {
					t.Fatalf("rows = %v, want every count 10", rows)
				}
			}
		},
	}, {
		name:  "a table needed only for its join key contributes that column",
		query: "select k, s from t, u where k = uk and k < 10",
		names: map[string]string{"t": "k,s", "u": "uk"},
		ords:  map[string][]int{"t": {0, 2}, "u": {0}},
		check: func(t *testing.T, rows [][]int64) {
			if len(rows) != 5 { // uk in {0,2,4,6,8}
				t.Fatalf("rows = %v, want 5 rows", rows)
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cq, err := CompileQuery(db, executor.NewCtx(nil), tc.query)
			if err != nil {
				t.Fatal(err)
			}
			plan := cq.Plan
			names, ords := scannedColumns(t, plan)
			if !reflect.DeepEqual(names, tc.names) {
				t.Errorf("scanned columns %v, want %v", names, tc.names)
			}
			if !reflect.DeepEqual(ords, tc.ords) {
				t.Errorf("scanned ordinals %v, want %v", ords, tc.ords)
			}
			rows, err := exectest.Run(plan)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, ints(rows))
		})
	}
}
