package tpcd

import (
	"testing"

	"repro/internal/db/catalog"
	"repro/internal/db/engine"
	"repro/internal/db/executor"
	"repro/internal/db/executor/exectest"
	"repro/internal/db/sql"
	"repro/internal/db/value"
	"repro/internal/kernel"
	"repro/internal/trace"
)

// build loads the seed-42 B-tree database at sf into a fresh engine.
func build(t *testing.T, sf float64) *engine.DB {
	t.Helper()
	db := engine.Open(2048)
	if err := Load(db, Config{SF: sf, Seed: 42, Indexes: catalog.BTree}); err != nil {
		t.Fatal(err)
	}
	return db
}

// run compiles q and runs it to completion.
func run(t *testing.T, db *engine.DB, c *executor.Ctx, q string) []executor.Tuple {
	t.Helper()
	cq, err := sql.CompileQuery(db, c, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	rows, err := exectest.Run(cq.Plan)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return rows
}

func TestSmokeAllQueries(t *testing.T) {
	db := build(t, 0.001)
	img := kernel.New()
	tr := trace.New(img.Prog)
	ses := img.NewSession(trace.NewRecorder(tr, true))
	db.Buf.FlushAll()
	c := executor.NewCtx(ses)
	for _, qn := range AllQueryNumbers() {
		q, _ := Query(qn)
		rows := run(t, db, c, q)
		if err := ses.Err(); err != nil {
			t.Fatalf("Q%d: trace validation: %v", qn, err)
		}
		t.Logf("Q%d: %d rows, trace now %d events", qn, len(rows), tr.Len())
	}
}

func TestCardinalityScaling(t *testing.T) {
	if Cardinality("region", 0.001) != 5 || Cardinality("nation", 2) != 25 {
		t.Fatal("fixed tables must not scale")
	}
	if Cardinality("lineitem", 0.001) != 6000 {
		t.Fatalf("lineitem at 0.001 = %d", Cardinality("lineitem", 0.001))
	}
	if Cardinality("orders", 0.0000001) != 1 {
		t.Fatal("cardinality must be at least 1")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, b := build(t, 0.0005), build(t, 0.0005)
	for _, tbl := range []string{"customer", "orders", "lineitem"} {
		if a.NumRows(tbl) != b.NumRows(tbl) {
			t.Fatalf("%s cardinality differs across identical builds", tbl)
		}
	}
}

func TestQuerySetsAreImplemented(t *testing.T) {
	for _, qn := range TrainingQueries {
		if _, ok := Query(qn); !ok {
			t.Errorf("training query %d missing", qn)
		}
	}
	for _, qn := range TestQueries {
		if _, ok := Query(qn); !ok {
			t.Errorf("test query %d missing", qn)
		}
	}
	if _, ok := Query(99); ok {
		t.Error("query 99 should not exist")
	}
}

func TestForeignKeysResolve(t *testing.T) {
	db := build(t, 0.0005)
	c := executor.NewCtx(nil)
	// Every order's customer must exist: an inner join loses no orders.
	rows := run(t, db, c, "select count(*) from orders")
	joined := run(t, db, c, "select count(*) from orders, customer where o_custkey = c_custkey")
	if rows[0][0].I != joined[0][0].I {
		t.Fatalf("FK violation: %d orders, %d join matches", rows[0][0].I, joined[0][0].I)
	}
}

func TestQ6AgainstNaiveEvaluation(t *testing.T) {
	db := build(t, 0.0005)
	c := executor.NewCtx(nil)
	q, _ := tpcdQuery6()
	rows := run(t, db, c, q)
	// Naive recomputation over a raw scan.
	raw := run(t, db, c, "select l_shipdate, l_discount, l_quantity, l_extendedprice from lineitem")
	lo := value.MakeDate(1994, 1, 1)
	hi := value.MakeDate(1995, 1, 1)
	var want float64
	for _, r := range raw {
		if r[0].I >= lo && r[0].I < hi &&
			r[1].F >= 0.05 && r[1].F <= 0.07 && r[2].F < 24 {
			want += r[3].F * r[1].F
		}
	}
	got := rows[0][0].F
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("Q6 revenue = %v, naive = %v", got, want)
	}
}

func tpcdQuery6() (string, bool) { return Query(6) }
