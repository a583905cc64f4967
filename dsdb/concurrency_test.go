package dsdb_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/dsdb"
)

// concurrencySF keeps the concurrent suites fast while still spanning
// multi-page heaps on every table.
const concurrencySF = 0.001

// concurrencyQueries is the mixed workload the sessions hammer: index
// scans, sequential scans, joins, sorts and aggregation.
var concurrencyQueries = []int{3, 4, 6, 12, 14}

// serialBaseline materializes every workload query once, serially, on
// its own identically seeded database.
func serialBaseline(t *testing.T, opts ...dsdb.Option) map[int]*dsdb.Result {
	t.Helper()
	db := openTPCD(t, concurrencySF, opts...)
	defer db.Close()
	base := make(map[int]*dsdb.Result, len(concurrencyQueries))
	for _, n := range concurrencyQueries {
		q, ok := dsdb.TPCDQuery(n)
		if !ok {
			t.Fatalf("no TPC-D query %d", n)
		}
		res, err := db.Exec(context.Background(), q)
		if err != nil {
			t.Fatalf("serial Q%d: %v", n, err)
		}
		base[n] = res
	}
	return base
}

// runSession is one session's share of the mixed workload: rounds ×
// queries through rotating access paths (Exec, streaming Query, and
// Prepare-execute-twice), each result checked against the baseline.
func runSession(db *dsdb.DB, s, rounds int, base map[int]*dsdb.Result) error {
	ctx := context.Background()
	for r := 0; r < rounds; r++ {
		for qi, n := range concurrencyQueries {
			q, _ := dsdb.TPCDQuery(n)
			var res *dsdb.Result
			var err error
			switch (s + r + qi) % 3 {
			case 0: // materializing Exec
				res, err = db.Exec(ctx, q)
			case 1: // streaming Query
				res, err = materialize(db.Query(ctx, q))
			default: // Prepare, then execute the plan twice
				var stmt *dsdb.Stmt
				stmt, err = db.Prepare(q)
				if err == nil {
					if res, err = materialize(stmt.Query(ctx)); err == nil {
						res, err = materialize(stmt.Query(ctx))
					}
				}
			}
			if err != nil {
				return fmt.Errorf("session %d round %d Q%d: %w", s, r, n, err)
			}
			if !reflect.DeepEqual(res, base[n]) {
				return fmt.Errorf("session %d round %d Q%d: result differs from serial baseline", s, r, n)
			}
		}
	}
	return nil
}

// TestConcurrentSessionsMatchSerial is the tentpole suite: N
// goroutines × M rounds of mixed Query/Exec/Prepare against one DB,
// asserting every concurrent result set equals the serial baseline
// and that the buffer hit/miss counters lose no updates (the totals
// match an identical twin database running the exact same workload
// serially).
func TestConcurrentSessionsMatchSerial(t *testing.T) {
	const sessions, rounds = 8, 3
	base := serialBaseline(t)

	// The serially exercised twin: same seed, same executions, one
	// session at a time.
	serialDB := openTPCD(t, concurrencySF)
	defer serialDB.Close()
	for s := 0; s < sessions; s++ {
		if err := runSession(serialDB, s, rounds, base); err != nil {
			t.Fatalf("serial twin: %v", err)
		}
	}
	serialHits, serialMisses := serialDB.Engine().Buf.Stats()

	db := openTPCD(t, concurrencySF)
	defer db.Close()
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = runSession(db, s, rounds, base)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	hits, misses := db.Engine().Buf.Stats()
	if hits != serialHits || misses != serialMisses {
		t.Fatalf("buffer counters lost updates under concurrency: got %d hits / %d misses, serial twin %d / %d",
			hits, misses, serialHits, serialMisses)
	}
}

// materialize drains a Rows into a Result, mirroring Exec, so the
// three access paths compare against one baseline shape.
func materialize(rows *dsdb.Rows, err error) (*dsdb.Result, error) {
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	res := &dsdb.Result{Columns: rows.Columns()}
	for rows.Next() {
		res.Rows = append(res.Rows, rows.Values())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// TestConcurrentInsertsAndQueries interleaves writers (exclusive
// engine latch) with readers: no update may be lost and every read
// must see a consistent heap.
func TestConcurrentInsertsAndQueries(t *testing.T) {
	db := openTPCD(t, concurrencySF)
	defer db.Close()
	if err := db.CreateTable("audit", dsdb.Col("a_id", dsdb.Int), dsdb.Col("a_note", dsdb.Str)); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter, readers = 4, 200, 4
	var wg sync.WaitGroup
	errs := make([]error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := int64(w*perWriter + i)
				if err := db.Insert("audit", dsdb.NewInt(id), dsdb.NewStr("row")); err != nil {
					errs[w] = fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := db.Exec(context.Background(), "select count(*) from audit")
				if err != nil {
					errs[writers+r] = fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if len(res.Rows) != 1 {
					errs[writers+r] = fmt.Errorf("reader %d: got %d rows", r, len(res.Rows))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var n int64
	if err := db.QueryRow(context.Background(), "select count(*) from audit").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != writers*perWriter {
		t.Fatalf("lost inserts: count = %d, want %d", n, writers*perWriter)
	}
	if db.NumRows("audit") != writers*perWriter {
		t.Fatalf("NumRows = %d, want %d", db.NumRows("audit"), writers*perWriter)
	}
}

// TestStmtConcurrentMisuseErrs shares one Stmt between goroutines —
// documented misuse that must degrade to ErrStmtBusy, never a race or
// a corrupted execution.
func TestStmtConcurrentMisuseErrs(t *testing.T) {
	db := openTPCD(t, concurrencySF)
	defer db.Close()
	q, _ := dsdb.TPCDQuery(6)
	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	const attempts = 8
	var wg sync.WaitGroup
	var okCount, busyCount int
	var mu sync.Mutex
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := materialize(stmt.Query(context.Background()))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && len(res.Rows) == 1:
				okCount++
			case errors.Is(err, dsdb.ErrStmtBusy):
				busyCount++
			default:
				t.Errorf("unexpected outcome: res=%v err=%v", res, err)
			}
		}()
	}
	wg.Wait()
	if okCount == 0 {
		t.Fatalf("no execution succeeded (%d busy)", busyCount)
	}
	if okCount+busyCount != attempts {
		t.Fatalf("ok=%d busy=%d, want %d total", okCount, busyCount, attempts)
	}
}

// TestNestedQueryWithQueuedWriter regression-tests the latch policy:
// a session iterating one result set issues a nested query per row
// while another goroutine's Insert is queued on the exclusive latch.
// A writer-preferring lock (sync.RWMutex) deadlocks here; the
// engine's reader-preferring latch must let the nested reads through
// and admit the writer once the outer Rows closes.
func TestNestedQueryWithQueuedWriter(t *testing.T) {
	db := openTPCD(t, concurrencySF)
	defer db.Close()
	if err := db.CreateTable("nlog", dsdb.Col("n_id", dsdb.Int)); err != nil {
		t.Fatal(err)
	}

	rows, err := db.Query(context.Background(), "select o_orderkey from orders")
	if err != nil {
		t.Fatal(err)
	}
	inserted := make(chan error, 1)
	go func() {
		// Queued behind the open Rows until it closes.
		inserted <- db.Insert("nlog", dsdb.NewInt(1))
	}()
	for i := 0; i < 5 && rows.Next(); i++ {
		var key int64
		if err := rows.Scan(&key); err != nil {
			t.Fatal(err)
		}
		// The nested per-row query: must not block behind the queued writer.
		var cnt int64
		if err := db.QueryRow(context.Background(),
			"select count(*) from lineitem where l_orderkey = "+fmt.Sprint(key)).Scan(&cnt); err != nil {
			t.Fatalf("nested query: %v", err)
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-inserted; err != nil {
		t.Fatalf("queued insert: %v", err)
	}
	if got := db.NumRows("nlog"); got != 1 {
		t.Fatalf("NumRows(nlog) = %d, want 1", got)
	}
}

// TestFlushDuringInserts regression-tests Close/Flush vs writers:
// flushing dirty pages while inserts mutate frames must synchronize
// on the engine latch (a missing latch shows up under -race as a
// frame-byte read/write race).
func TestFlushDuringInserts(t *testing.T) {
	db := openTPCD(t, concurrencySF)
	defer db.Close()
	if err := db.CreateTable("flog", dsdb.Col("f_id", dsdb.Int), dsdb.Col("f_note", dsdb.Str)); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter, flushes = 3, 150, 30
	var wg sync.WaitGroup
	errs := make([]error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := db.Insert("flog", dsdb.NewInt(int64(w*perWriter+i)), dsdb.NewStr("x")); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < flushes; i++ {
			if err := db.Close(); err != nil { // Close = flush all dirty pages
				errs[writers] = err
				return
			}
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := db.NumRows("flog"); got != writers*perWriter {
		t.Fatalf("NumRows = %d, want %d", got, writers*perWriter)
	}
}
