package sql

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/db/catalog"
	"repro/internal/db/executor"
	"repro/internal/db/executor/exectest"
	"repro/internal/db/value"
)

// scannedColumns walks a plan and returns, per base table, the names
// and stored ordinals of the columns its scan (or index-join inner
// side) deforms.
func scannedColumns(t *testing.T, n executor.Node) (names map[string]string, ords map[string][]int) {
	t.Helper()
	names, ords = map[string]string{}, map[string][]int{}
	record := func(table string, sch *catalog.Schema, cols []int) {
		var ns []string
		for _, c := range sch.Columns {
			ns = append(ns, c.Name)
		}
		names[table] = strings.Join(ns, ",")
		ords[table] = cols
	}
	var walk func(executor.Node)
	walk = func(n executor.Node) {
		switch x := n.(type) {
		case *executor.SeqScan:
			record(x.Table, x.Out, x.Cols)
		case *executor.IndexScan:
			record(x.Table, x.Out, x.Cols)
		case *executor.IndexLoopJoin:
			record(x.Table, x.InnerSch, x.InnerCols)
			walk(x.Outer)
		case *executor.HashJoin:
			walk(x.Outer)
			walk(x.Inner)
		case *executor.MergeJoin:
			walk(x.Outer)
			walk(x.Inner)
		case *executor.NestLoop:
			walk(x.Outer)
			walk(x.Inner)
		case *executor.ProjectNode:
			walk(x.Child)
		case *executor.Filter:
			walk(x.Child)
		case *executor.Sort:
			walk(x.Child)
		case *executor.Agg:
			walk(x.Child)
		case *executor.GroupAgg:
			walk(x.Child)
		case *executor.Limit:
			walk(x.Child)
		default:
			t.Fatalf("scannedColumns: unhandled node %T", n)
		}
	}
	walk(n)
	return names, ords
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
