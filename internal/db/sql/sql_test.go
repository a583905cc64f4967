package sql

import (
	"strings"
	"testing"

	"repro/internal/db/catalog"
	"repro/internal/db/engine"
	"repro/internal/db/executor"
	"repro/internal/db/executor/exectest"
	"repro/internal/db/value"
)

func TestParseBasicSelect(t *testing.T) {
	st, err := Parse("select a, b from t where a = 1 and b < 'x' order by a desc limit 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Items) != 2 || st.From[0] != "t" || st.Limit != 5 {
		t.Fatalf("parsed %+v", st)
	}
	if len(st.OrderBy) != 1 || !st.OrderBy[0].Desc {
		t.Fatal("order by wrong")
	}
	if _, ok := st.Where.(*andExpr); !ok {
		t.Fatalf("where = %T", st.Where)
	}
}

func TestParseAggregatesAndGroupBy(t *testing.T) {
	st, err := Parse("select k, count(*) as n, sum(v * 2) from t group by k")
	if err != nil {
		t.Fatal(err)
	}
	if st.Items[1].Agg != "count" || !st.Items[1].Star || st.Items[1].Alias != "n" {
		t.Fatalf("count item %+v", st.Items[1])
	}
	if st.Items[2].Agg != "sum" || st.Items[2].Expr == nil {
		t.Fatalf("sum item %+v", st.Items[2])
	}
	if len(st.GroupBy) != 1 || st.GroupBy[0] != "k" {
		t.Fatal("group by wrong")
	}
}

func TestParseLikeInBetween(t *testing.T) {
	st, err := Parse("select a from t where a like 'x%' and b in (1, 2) and c between 3 and 4 and not d = 5")
	if err != nil {
		t.Fatal(err)
	}
	conj := st.Where.(*andExpr)
	// between desugars to >= and <= inside a nested and.
	if len(conj.args) != 4 {
		t.Fatalf("got %d conjuncts", len(conj.args))
	}
	if _, ok := conj.args[0].(*likeExpr); !ok {
		t.Fatalf("arg0 = %T", conj.args[0])
	}
	if _, ok := conj.args[1].(*inExpr); !ok {
		t.Fatalf("arg1 = %T", conj.args[1])
	}
	if _, ok := conj.args[3].(*notExpr); !ok {
		t.Fatalf("arg3 = %T", conj.args[3])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select a",
		"select a from",
		"select a from t where",
		"select a from t limit x",
		"select sum(*) from t",
		"select a from t where a like 5",
		"select a from t trailing",
		"select a from t where 'unterminated",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

// mini database: t(k int, v int, s varchar, d date) with index on k.
func miniDB(t *testing.T, kind catalog.IndexKind) *engine.DB {
	t.Helper()
	db := engine.Open(256)
	sch := catalog.NewSchema(
		catalog.Column{Name: "k", Type: value.Int},
		catalog.Column{Name: "v", Type: value.Int},
		catalog.Column{Name: "s", Type: value.Str},
		catalog.Column{Name: "d", Type: value.Date},
	)
	if _, err := db.CreateTable("t", sch); err != nil {
		t.Fatal(err)
	}
	names := []string{"alpha", "beta", "gamma"}
	for i := 0; i < 100; i++ {
		row := []value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 10)),
			value.NewStr(names[i%3]),
			value.NewDate(value.MakeDate(1994, 1+i%12, 1+i%28)),
		}
		if err := db.Insert("t", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateIndex("t", "k", kind, true); err != nil {
		t.Fatal(err)
	}
	return db
}

func run(t *testing.T, db *engine.DB, q string) []executor.Tuple {
	t.Helper()
	cq, err := CompileQuery(db, executor.NewCtx(nil), q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	rows, err := exectest.Run(cq.Plan)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return rows
}

func TestExecSimpleFilter(t *testing.T) {
	db := miniDB(t, catalog.BTree)
	rows := run(t, db, "select k from t where k < 10")
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
}

func TestExecIndexRangeUsed(t *testing.T) {
	db := miniDB(t, catalog.BTree)
	st, _ := Parse("select k from t where k >= 20 and k <= 29")
	pl := &Planner{DB: db, C: executor.NewCtx(nil)}
	plan, err := pl.Plan(st)
	if err != nil {
		t.Fatal(err)
	}
	// The scan below the projection must be an IndexScan.
	proj, ok := plan.(*executor.ProjectNode)
	if !ok {
		t.Fatalf("top = %T", plan)
	}
	if _, ok := proj.Child.(*executor.IndexScan); !ok {
		t.Fatalf("scan = %T, want IndexScan", proj.Child)
	}
	rows, err := exectest.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestExecHashEqualityUsed(t *testing.T) {
	db := miniDB(t, catalog.Hash)
	st, _ := Parse("select k from t where k = 42")
	pl := &Planner{DB: db, C: executor.NewCtx(nil)}
	plan, err := pl.Plan(st)
	if err != nil {
		t.Fatal(err)
	}
	proj := plan.(*executor.ProjectNode)
	is, ok := proj.Child.(*executor.IndexScan)
	if !ok || is.HashIdx == nil {
		t.Fatalf("want hash IndexScan, got %T", proj.Child)
	}
	rows, err := exectest.Run(plan)
	if err != nil || len(rows) != 1 || rows[0][0].I != 42 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
}

func TestExecGroupByAggregates(t *testing.T) {
	db := miniDB(t, catalog.BTree)
	rows := run(t, db, "select v, count(*) as n, sum(k) as total from t group by v order by v")
	if len(rows) != 10 {
		t.Fatalf("got %d groups", len(rows))
	}
	// v=0: k in {0,10,...,90}: count 10, sum 450.
	if rows[0][0].I != 0 || rows[0][1].I != 10 || rows[0][2].I != 450 {
		t.Fatalf("group 0 = %v", rows[0])
	}
}

func TestExecExpressionsAndDates(t *testing.T) {
	db := miniDB(t, catalog.BTree)
	rows := run(t, db, "select count(*) from t where d >= '1994-06-01' and s like 'alp%'")
	if len(rows) != 1 {
		t.Fatal("want one row")
	}
	if rows[0][0].I == 0 {
		t.Fatal("date/like filter found nothing")
	}
}

func TestExecOrderByDescLimit(t *testing.T) {
	db := miniDB(t, catalog.BTree)
	rows := run(t, db, "select k from t order by k desc limit 3")
	if len(rows) != 3 || rows[0][0].I != 99 || rows[2][0].I != 97 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestExecSelfJoinViaTwoTables(t *testing.T) {
	db := miniDB(t, catalog.BTree)
	// Second table u(uk, uv) referencing t.k.
	sch := catalog.NewSchema(
		catalog.Column{Name: "uk", Type: value.Int},
		catalog.Column{Name: "uv", Type: value.Int},
	)
	if _, err := db.CreateTable("u", sch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Insert("u", []value.Value{
			value.NewInt(int64(i * 2)), value.NewInt(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	rows := run(t, db, "select k, uv from t, u where k = uk and k < 10")
	if len(rows) != 5 { // uk in {0,2,4,6,8}
		t.Fatalf("got %d join rows", len(rows))
	}
	for _, r := range rows {
		if r[0].I%2 != 0 {
			t.Fatalf("join row %v", r)
		}
	}
}

func TestExecUnknownColumnFails(t *testing.T) {
	db := miniDB(t, catalog.BTree)
	if _, err := CompileQuery(db, executor.NewCtx(nil), "select nosuch from t"); err == nil ||
		!strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("want unknown-column error, got %v", err)
	}
}

func TestExecUnknownTableFails(t *testing.T) {
	db := miniDB(t, catalog.BTree)
	if _, err := CompileQuery(db, executor.NewCtx(nil), "select k from ghost"); err == nil {
		t.Fatal("want unknown-table error")
	}
}
