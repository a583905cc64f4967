package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dsdb"
	"repro/dsdb/client"
	"repro/dsdb/server"
	"repro/dsdb/wire"
)

// testServer starts a server over a freshly loaded TPC-D database and
// returns its address. Everything is torn down with the test.
func testServer(t *testing.T, opts ...server.Option) (*dsdb.DB, *server.Server, string) {
	t.Helper()
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005), dsdb.WithSeed(42))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := server.New(db, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return db, srv, ln.Addr().String()
}

// TestServedResultsByteIdentical is the headline end-to-end check: K
// concurrent wire clients each run the paper's TPC-D test mix and
// every result set must be byte-identical to the in-process dsdb.DB
// baseline — same columns, same rows, same order, same Value structs
// bit for bit. Run under -race this also hammers the server's
// session concurrency.
func TestServedResultsByteIdentical(t *testing.T) {
	db, _, addr := testServer(t)

	// In-process baseline, query by query.
	baseline := make(map[int]*dsdb.Result)
	for _, qn := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(qn)
		res, err := db.Exec(context.Background(), q)
		if err != nil {
			t.Fatalf("baseline Q%d: %v", qn, err)
		}
		baseline[qn] = res
	}

	const K = 3
	var wg sync.WaitGroup
	errs := make([]error, K)
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs[k] = err
				return
			}
			defer c.Close()
			for _, qn := range dsdb.TPCDQueryNumbers() {
				q, _ := dsdb.TPCDQuery(qn)
				res, err := c.Exec(context.Background(), q)
				if err != nil {
					errs[k] = fmt.Errorf("client %d Q%d: %w", k, qn, err)
					return
				}
				want := baseline[qn]
				if !reflect.DeepEqual(res.Columns, want.Columns) {
					errs[k] = fmt.Errorf("client %d Q%d: columns %v, want %v", k, qn, res.Columns, want.Columns)
					return
				}
				if len(res.Rows) != len(want.Rows) {
					errs[k] = fmt.Errorf("client %d Q%d: %d rows, want %d", k, qn, len(res.Rows), len(want.Rows))
					return
				}
				if !reflect.DeepEqual(res.Rows, want.Rows) {
					errs[k] = fmt.Errorf("client %d Q%d: rows differ from local baseline", k, qn)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestClientCancelMidStream cancels the query context after a few rows
// of a large scan: iteration must end with the context's error, the
// server-side session must resynchronize (the same connection serves
// the next query), and the server must still drain cleanly.
func TestClientCancelMidStream(t *testing.T) {
	_, srv, addr := testServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := c.Query(ctx, "select l_orderkey, l_extendedprice from lineitem")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	n := 0
	for rows.Next() {
		if n++; n == 3 {
			cancel()
		}
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	rows.Close()

	// The connection must be frame-aligned again: the next query runs.
	var cnt int64
	if err := c.QueryRow(context.Background(), "select count(*) from region").Scan(&cnt); err != nil {
		t.Fatalf("query after cancel: %v", err)
	}
	if cnt != 5 {
		t.Fatalf("count(*) from region = %d, want 5", cnt)
	}

	// And the server-side session is idle, so shutdown drains cleanly.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown after cancel: %v", err)
	}
}

// TestCancelDuringAggregate cancels a query that does all its work
// inside the first Next() call (a whole-table aggregate produces one
// row at the very end): the Cancel frame cannot be polled between
// rows, so it must reach the executor through the query context
// instead — whether it lands while the query runs (readLoop fires the
// cancel) or before it starts (pendingCancel arms). Either way the
// session must resynchronize.
func TestCancelDuringAggregate(t *testing.T) {
	_, _, addr := testServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := c.Query(ctx, "select sum(l_extendedprice * (1 - l_discount)) from lineitem, orders where l_orderkey = o_orderkey")
		cancel() // races the server-side execution on purpose
		if err == nil {
			for rows.Next() {
			}
			err = rows.Err()
			rows.Close()
		}
		// The query may have been cancelled (usual) or squeaked through
		// before the Cancel landed (legal); a cancellation must surface
		// as the context's own error wherever it hit the stream.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: unexpected error %v", i, err)
		}
		var cnt int64
		if err := c.QueryRow(context.Background(), "select count(*) from region").Scan(&cnt); err != nil {
			t.Fatalf("iteration %d: session broken after cancel: %v", i, err)
		}
		if cnt != 5 {
			t.Fatalf("iteration %d: count = %d, want 5", i, cnt)
		}
	}
}

// TestRowsCloseMidStream abandons a large result set via Close (no
// context cancellation): the connection must resynchronize for reuse.
func TestRowsCloseMidStream(t *testing.T) {
	_, _, addr := testServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Query(context.Background(), "select l_orderkey, l_extendedprice from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var cnt int64
	if err := c.QueryRow(context.Background(), "select count(*) from nation").Scan(&cnt); err != nil {
		t.Fatalf("query after Close: %v", err)
	}
	if cnt != 25 {
		t.Fatalf("count(*) from nation = %d, want 25", cnt)
	}
}

// TestPrepareOverWire round-trips a server-side prepared statement
// through several executions against the in-process baseline.
func TestPrepareOverWire(t *testing.T) {
	db, _, addr := testServer(t)
	want, err := db.Exec(context.Background(), "select n_name from nation order by n_name limit 3")
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stmt, err := c.Prepare("select n_name from nation order by n_name limit 3")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if cols := stmt.Columns(); !reflect.DeepEqual(cols, want.Columns) {
		t.Fatalf("Columns() = %v, want %v", cols, want.Columns)
	}
	for run := 0; run < 3; run++ {
		rows, err := stmt.Query(context.Background())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		var got [][]dsdb.Value
		for rows.Next() {
			got = append(got, rows.Values())
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		rows.Close()
		if !reflect.DeepEqual(got, want.Rows) {
			t.Fatalf("run %d: rows differ from baseline", run)
		}
	}
	if err := stmt.Close(); err != nil {
		t.Fatalf("stmt.Close: %v", err)
	}
}

// TestQueryErrorKeepsSession checks a failing query reports a typed
// error and leaves the connection usable.
func TestQueryErrorKeepsSession(t *testing.T) {
	_, _, addr := testServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec(context.Background(), "select x from nosuchtable")
	var ef wire.ErrorFrame
	if !errors.As(err, &ef) || ef.Code != wire.CodeQuery {
		t.Fatalf("bad query error: %v", err)
	}
	if _, err := c.Exec(context.Background(), "select count(*) from region"); err != nil {
		t.Fatalf("query after error: %v", err)
	}
}

// TestConnLimit checks connections beyond WithMaxConns are refused
// with the conn_limit code while admitted ones keep working.
func TestConnLimit(t *testing.T) {
	_, _, addr := testServer(t, server.WithMaxConns(1))
	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	// Hold the only slot with an in-flight statement so the session is
	// definitely registered server-side.
	if _, err := c1.Exec(context.Background(), "select count(*) from region"); err != nil {
		t.Fatal(err)
	}
	_, err = client.Dial(addr)
	var ef wire.ErrorFrame
	if !errors.As(err, &ef) || ef.Code != wire.CodeConnLimit {
		t.Fatalf("second dial: got %v, want conn_limit error", err)
	}
	if _, err := c1.Exec(context.Background(), "select count(*) from nation"); err != nil {
		t.Fatalf("first session broken by refused second: %v", err)
	}
}

// TestQueryTimeout checks the server-side per-query deadline cancels a
// long scan.
func TestQueryTimeout(t *testing.T) {
	_, _, addr := testServer(t, server.WithQueryTimeout(time.Nanosecond))
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec(context.Background(), "select l_orderkey, l_extendedprice from lineitem")
	if err == nil {
		t.Fatal("query survived a 1ns server-side deadline")
	}
	if !strings.Contains(err.Error(), "deadline") && !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("unexpected timeout error: %v", err)
	}
}

// TestStalePooledConnRetries restarts the server underneath a client
// whose pooled connection the shutdown closed: the next query must
// transparently retry on a fresh dial instead of surfacing the dead
// connection's read error.
func TestStalePooledConnRetries(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005))
	if err != nil {
		t.Fatal(err)
	}
	srv1 := server.New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv1.Serve(ln)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(context.Background(), "select count(*) from region"); err != nil {
		t.Fatal(err)
	}
	// Drain the first server: the client's idle pooled conn dies.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv1.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Same address, new server (Go listeners set SO_REUSEADDR).
	srv2 := server.New(db)
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln2)
	defer srv2.Close()
	var cnt int64
	if err := c.QueryRow(context.Background(), "select count(*) from region").Scan(&cnt); err != nil {
		t.Fatalf("query after server restart: %v", err)
	}
	if cnt != 5 {
		t.Fatalf("count = %d, want 5", cnt)
	}
}

// TestGracefulShutdown checks Shutdown drains an active session at its
// query boundary and Serve returns ErrServerClosed.
func TestGracefulShutdown(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(context.Background(), "select count(*) from region"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	// New work is refused after shutdown.
	if _, err := client.Dial(ln.Addr().String()); err == nil {
		t.Fatal("dial after shutdown succeeded")
	}
}

// TestStatsIncludeTheAnswerTheClientHolds pins the accounting order:
// a query's rows and frame bytes are in Server.Stats before the frame
// that completes it is flushed, so a client that has read its Done
// frame — and so holds its complete answer — never reads a snapshot
// that leaves the query out. One session, 2,000 queries; after each,
// the Queries, RowsStreamed and BytesWritten deltas are exact. (Counting
// after the flush passed this most of the time and was the root of the
// bench self-test's wire.bytes_per_row flake.)
func TestStatsIncludeTheAnswerTheClientHolds(t *testing.T) {
	_, srv, addr := testServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	queries := []string{
		"select count(*) from lineitem",
		"select n_name from nation",
		"select c_custkey, c_name from customer", // more than one row batch
		"select s_suppkey from supplier where s_suppkey < 0",
	}
	// wireBytes is what the server writes for a result: header, row
	// batches, Done.
	wireBytes := func(res *dsdb.Result) uint64 {
		n := len(wire.EncodeRowHeader(wire.RowHeader{Columns: res.Columns})) + wire.FrameOverhead
		for off := 0; off < len(res.Rows); off += wire.BatchRows {
			end := min(off+wire.BatchRows, len(res.Rows))
			n += len(wire.EncodeRowBatch(wire.RowBatch{Rows: res.Rows[off:end]})) + wire.FrameOverhead
		}
		n += len(wire.EncodeDone(wire.Done{})) + wire.FrameOverhead
		return uint64(n)
	}
	sawBatches := false
	before := srv.Stats()
	for i := 0; i < 2000; i++ {
		res, err := c.Exec(context.Background(), queries[i%len(queries)])
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		sawBatches = sawBatches || len(res.Rows) > wire.BatchRows
		after := srv.Stats()
		if got := after.Queries - before.Queries; got != 1 {
			t.Fatalf("query %d: Queries moved by %d", i, got)
		}
		if got, want := after.RowsStreamed-before.RowsStreamed, uint64(len(res.Rows)); got != want {
			t.Fatalf("query %d: RowsStreamed moved by %d, the client holds %d rows", i, got, want)
		}
		if got, want := after.BytesWritten-before.BytesWritten, wireBytes(res); got != want {
			t.Fatalf("query %d: BytesWritten moved by %d, the client read %d bytes", i, got, want)
		}
		before = after
	}
	if !sawBatches {
		t.Fatal("no result spanned two row batches")
	}
}
