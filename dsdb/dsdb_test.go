package dsdb_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/dsdb"
	"repro/internal/db/catalog"
	"repro/internal/db/engine"
	"repro/internal/db/executor"
	"repro/internal/db/executor/exectest"
	"repro/internal/db/sql"
	"repro/internal/db/value"
	"repro/internal/tpcd"
)

// openTPCD opens the default deterministic TPC-D database.
func openTPCD(t *testing.T, sf float64, opts ...dsdb.Option) *dsdb.DB {
	t.Helper()
	db, err := dsdb.Open(append([]dsdb.Option{dsdb.WithTPCD(sf)}, opts...)...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

// TestStreamingMatchesSeedMaterialized is the acceptance check: a
// Rows-streaming TPC-D Q6 at SF 0.002 must return exactly what the
// seed's materialized path returns: the plan run to completion.
func TestStreamingMatchesSeedMaterialized(t *testing.T) {
	db := openTPCD(t, 0.002)
	q6, ok := dsdb.TPCDQuery(6)
	if !ok {
		t.Fatal("no TPC-D Q6")
	}

	rows, err := db.Query(context.Background(), q6)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer rows.Close()
	var streamed [][]dsdb.Value
	for rows.Next() {
		streamed = append(streamed, rows.Values())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Rows.Err: %v", err)
	}

	// The seed's materialized path with identical configuration.
	seedDB := engine.Open(2048)
	if err := tpcd.Load(seedDB, tpcd.Config{SF: 0.002, Seed: 42, Indexes: catalog.BTree}); err != nil {
		t.Fatalf("tpcd.Load: %v", err)
	}
	cq, err := sql.CompileQuery(seedDB, executor.NewCtx(nil), q6)
	if err != nil {
		t.Fatalf("CompileQuery: %v", err)
	}
	want, err := exectest.Run(cq.Plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if len(streamed) != len(want) {
		t.Fatalf("streamed %d rows, seed path returned %d", len(streamed), len(want))
	}
	for i := range want {
		if len(streamed[i]) != len(want[i]) {
			t.Fatalf("row %d: %d columns, want %d", i, len(streamed[i]), len(want[i]))
		}
		for j := range want[i] {
			if value.Compare(streamed[i][j], want[i][j]) != 0 {
				t.Fatalf("row %d col %d: got %s, want %s", i, j, streamed[i][j], want[i][j])
			}
		}
	}
}

// TestPartialConsumptionAndClose checks that a partially consumed
// Rows can be closed early, that iteration stops afterwards, and that
// Close is idempotent.
func TestPartialConsumptionAndClose(t *testing.T) {
	db := openTPCD(t, 0.001)
	rows, err := db.Query(context.Background(), "select l_orderkey, l_linenumber from lineitem")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("Next %d: premature end (err=%v)", i, rows.Err())
		}
		var ok, ln int64
		if err := rows.Scan(&ok, &ln); err != nil {
			t.Fatalf("Scan: %v", err)
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close after partial consumption: %v", err)
	}
	if rows.Next() {
		t.Fatal("Next returned true after Close")
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err after clean Close: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestPrepareReuse checks that one compiled plan re-executes from
// scratch on every Query, and that concurrent re-execution of a busy
// statement is refused rather than corrupted.
func TestPrepareReuse(t *testing.T) {
	db := openTPCD(t, 0.001)
	q6, _ := dsdb.TPCDQuery(6)
	stmt, err := db.Prepare(q6)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	run := func() []dsdb.Value {
		rows, err := stmt.Query(context.Background())
		if err != nil {
			t.Fatalf("Stmt.Query: %v", err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatalf("no result row (err=%v)", rows.Err())
		}
		vals := rows.Values()
		// While the Rows is open the statement must refuse re-execution.
		if _, err := stmt.Query(context.Background()); !errors.Is(err, dsdb.ErrStmtBusy) {
			t.Fatalf("busy statement re-executed: err=%v", err)
		}
		return vals
	}
	first := run()
	second := run()
	if len(first) != len(second) {
		t.Fatalf("re-execution changed arity: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if value.Compare(first[i], second[i]) != 0 {
			t.Fatalf("re-execution changed result: %s vs %s", first[i], second[i])
		}
	}
}

// TestContextCancellationMidScan cancels the context after a few rows
// and checks that iteration stops with the context's error.
func TestContextCancellationMidScan(t *testing.T) {
	db := openTPCD(t, 0.001)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := db.Query(ctx, "select l_orderkey from lineitem")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer rows.Close()
	for i := 0; i < 2; i++ {
		if !rows.Next() {
			t.Fatalf("Next %d: premature end (err=%v)", i, rows.Err())
		}
	}
	cancel()
	if rows.Next() {
		t.Fatal("Next returned true after cancellation")
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", rows.Err())
	}
	// A cancelled query must leave the statement reusable after Close.
	if err := rows.Close(); err != nil {
		t.Fatalf("Close after cancellation: %v", err)
	}
}

// TestCancellationInsidePipelineBreaker pre-cancels the context on a
// sorted query: the executor's Interrupt hook must stop the sort load
// rather than materialize the whole input first.
func TestCancellationInsidePipelineBreaker(t *testing.T) {
	db := openTPCD(t, 0.001)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := db.Query(ctx, "select l_orderkey from lineitem order by l_orderkey")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer rows.Close()
	if rows.Next() {
		t.Fatal("Next returned true under a cancelled context")
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", rows.Err())
	}
}

// TestDeadlineInterruptsAggregate: a context that expires while an
// aggregate drains a cartesian product (seconds of work at SF 0.001)
// stops it from inside the executor, through the dispatcher's poll of
// ctx.Done(), not after the input is exhausted.
func TestDeadlineInterruptsAggregate(t *testing.T) {
	db := openTPCD(t, 0.001)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	rows, err := db.Query(ctx, "select count(*) from lineitem, orders")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer rows.Close()
	if rows.Next() {
		t.Fatal("Next returned a row past the deadline")
	}
	if !errors.Is(rows.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want context.DeadlineExceeded", rows.Err())
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("query stopped %v after a 20ms deadline", d)
	}
}

// TestDeterministicSeed checks that two databases opened with the
// same seed hold identical data, and that changing the seed changes
// the data.
func TestDeterministicSeed(t *testing.T) {
	const q = "select sum(l_extendedprice) from lineitem"
	sum := func(db *dsdb.DB) float64 {
		t.Helper()
		var v float64
		if err := db.QueryRow(context.Background(), q).Scan(&v); err != nil {
			t.Fatalf("QueryRow: %v", err)
		}
		return v
	}
	a := sum(openTPCD(t, 0.001, dsdb.WithSeed(7)))
	b := sum(openTPCD(t, 0.001, dsdb.WithSeed(7)))
	c := sum(openTPCD(t, 0.001, dsdb.WithSeed(8)))
	if a != b {
		t.Fatalf("same seed produced different databases: %v vs %v", a, b)
	}
	if a == c {
		t.Fatalf("different seeds produced identical databases: %v", a)
	}
}

// TestQueryRow covers the single-row convenience wrapper, including
// ErrNoRows.
func TestQueryRow(t *testing.T) {
	db := openTPCD(t, 0.001)
	var n int64
	if err := db.QueryRow(context.Background(), "select count(*) from orders").Scan(&n); err != nil {
		t.Fatalf("QueryRow: %v", err)
	}
	if n <= 0 {
		t.Fatalf("count(*) from orders = %d, want > 0", n)
	}
	err := db.QueryRow(context.Background(), "select o_orderkey from orders where o_orderkey < 0").Scan(&n)
	if !errors.Is(err, dsdb.ErrNoRows) {
		t.Fatalf("empty QueryRow err = %v, want ErrNoRows", err)
	}
}

// TestCrossJoinRescansSeqScan checks a cartesian join, whose NestLoop
// re-opens its sequential-scan inner once per outer tuple: every
// re-open must yield the whole inner table again.
func TestCrossJoinRescansSeqScan(t *testing.T) {
	db := openTPCD(t, 0.001)
	var n int64
	if err := db.QueryRow(context.Background(), "select count(*) from orders, region").Scan(&n); err != nil {
		t.Fatalf("cross join: %v", err)
	}
	if want := db.NumRows("orders") * db.NumRows("region"); n != int64(want) {
		t.Fatalf("count(*) from orders, region = %d, want %d", n, want)
	}
}

// TestDDLPassthrough exercises CreateTable/CreateIndex/Insert and a
// query over a hand-built table.
func TestDDLPassthrough(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithBufferFrames(64))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := db.CreateTable("t",
		dsdb.Col("a", dsdb.Int), dsdb.Col("b", dsdb.Str)); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Insert("t", dsdb.NewInt(int64(i)), dsdb.NewStr("x")); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := db.CreateIndex("t", "a", dsdb.BTree, true); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	if got := db.NumRows("t"); got != 10 {
		t.Fatalf("NumRows = %d, want 10", got)
	}
	var a int64
	var b string
	if err := db.QueryRow(context.Background(), "select a, b from t where a = 7").Scan(&a, &b); err != nil {
		t.Fatalf("indexed lookup: %v", err)
	}
	if a != 7 || b != "x" {
		t.Fatalf("got (%d,%q), want (7,\"x\")", a, b)
	}
}

// TestExecMatchesQuery checks the materialized convenience path
// agrees with streaming.
func TestExecMatchesQuery(t *testing.T) {
	db := openTPCD(t, 0.001)
	const q = "select o_orderpriority, count(*) from orders group by o_orderpriority order by o_orderpriority"
	res, err := db.Exec(context.Background(), q)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	rows, err := db.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer rows.Close()
	i := 0
	for rows.Next() {
		vals := rows.Values()
		if i >= len(res.Rows) {
			t.Fatalf("streaming produced more than %d rows", len(res.Rows))
		}
		for j := range vals {
			if value.Compare(vals[j], res.Rows[i][j]) != 0 {
				t.Fatalf("row %d col %d: %s vs %s", i, j, vals[j], res.Rows[i][j])
			}
		}
		i++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Rows.Err: %v", err)
	}
	if i != len(res.Rows) {
		t.Fatalf("streaming produced %d rows, Exec %d", i, len(res.Rows))
	}
}
