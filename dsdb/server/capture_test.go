package server_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/dsdb"
	"repro/dsdb/client"
	"repro/dsdb/load"
	"repro/dsdb/server"
	"repro/dsdb/wcap"
)

// TestCaptureReplayByteIdentical is the tentpole's end-to-end check:
// a 3-client × 12-query TPC-D run against a capturing server must be
// recorded in full (zero dropped records), and replaying the capture
// in-process must reproduce every result set byte-identically to the
// in-process baseline — the capture really is the workload, not a
// lossy sketch of it. Run under -race this also hammers the capture
// hot path (three handler goroutines feeding one writer) for data
// races.
func TestCaptureReplayByteIdentical(t *testing.T) {
	dir := t.TempDir()
	w, err := wcap.Open(dir, wcap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, srv, addr := testServer(t, server.WithCapture(w))

	// In-process baseline, keyed by SQL (the form the capture stores).
	baseline := make(map[string]*dsdb.Result)
	var baselineRows int64
	qns := dsdb.TPCDQueryNumbers()
	for _, qn := range qns {
		q, _ := dsdb.TPCDQuery(qn)
		res, err := db.Exec(context.Background(), q)
		if err != nil {
			t.Fatalf("baseline Q%d: %v", qn, err)
		}
		baseline[q] = res
		baselineRows += int64(len(res.Rows))
	}

	// Phase 1: serve. Three concurrent wire clients, each running the
	// full 12-query TPC-D sweep.
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
			for _, qn := range qns {
				q, _ := dsdb.TPCDQuery(qn)
				rows, err := c.QueryLabeled(context.Background(), fmt.Sprintf("Q%d", qn), q)
				if err != nil {
					errs[k] = fmt.Errorf("client %d Q%d: %w", k, qn, err)
					return
				}
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					errs[k] = fmt.Errorf("client %d Q%d stream: %w", k, qn, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", k, err)
		}
	}

	// Every served query was offered to the capture, none dropped. The
	// handler captures just after flushing the Done frame the client
	// already saw, so poll briefly for the last records.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats().Capture
		if st == nil {
			t.Fatal("stats say capture is disabled on a capturing server")
		}
		if st.Records == K*uint64(len(qns)) && st.Dropped == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("capture counters: records=%d dropped=%d, want %d/0",
				st.Records, st.Dropped, K*len(qns))
		}
		time.Sleep(time.Millisecond)
	}

	// Phase 2: load the capture back. Close flushes and syncs; a clean
	// close with zero IO errors is part of the contract.
	if err := w.Close(); err != nil {
		t.Fatalf("closing capture: %v", err)
	}
	recs, err := wcap.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != K*len(qns) {
		t.Fatalf("loaded %d records, want %d", len(recs), K*len(qns))
	}
	perSession := make(map[uint32]int)
	for _, r := range recs {
		perSession[r.Session]++
		want, ok := baseline[r.SQL]
		if !ok {
			t.Fatalf("capture holds unknown SQL %q", r.SQL)
		}
		if r.Rows != uint64(len(want.Rows)) {
			t.Fatalf("record %s/%d: rows %d, want %d", r.Label, r.Session, r.Rows, len(want.Rows))
		}
		if r.Latency <= 0 {
			t.Fatalf("record %s/%d: non-positive latency %v", r.Label, r.Session, r.Latency)
		}
		if r.Bytes == 0 && len(want.Rows) > 0 {
			t.Fatalf("record %s/%d: zero bytes for %d rows", r.Label, r.Session, len(want.Rows))
		}
		if r.Err != wcap.OK {
			t.Fatalf("record %s/%d: error class %v", r.Label, r.Session, r.Err)
		}
	}
	if len(perSession) != K {
		t.Fatalf("capture spans %d sessions, want %d (%v)", len(perSession), K, perSession)
	}
	for id, n := range perSession {
		if n != len(qns) {
			t.Fatalf("session %d recorded %d queries, want %d", id, n, len(qns))
		}
	}

	// Phase 3: replay in-process, byte-comparing every replayed result
	// set against the baseline. The Runner override materializes each
	// query exactly like the baseline did.
	var mu sync.Mutex
	var mismatches []string
	runner := func(ctx context.Context, label, sql string) (int64, bool, error) {
		res, err := db.Exec(ctx, sql)
		if err != nil {
			return 0, false, err
		}
		if want := baseline[sql]; !reflect.DeepEqual(res, want) {
			mu.Lock()
			mismatches = append(mismatches, label)
			mu.Unlock()
		}
		return int64(len(res.Rows)), false, nil
	}
	sum, err := load.Replay(context.Background(), load.ReplayParams{Records: recs, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	if len(mismatches) > 0 {
		t.Fatalf("replayed results differ from baseline for %v", mismatches)
	}
	if sum.Queries != K*len(qns) || sum.Skipped != 0 || sum.Sessions != K {
		t.Fatalf("replay summary: %+v", sum)
	}
	if sum.Rows != K*baselineRows {
		t.Fatalf("replayed %d rows, want %d", sum.Rows, K*baselineRows)
	}
	// The recorded latency distribution came along for the comparison.
	if sum.RecordedLat.Max <= 0 {
		t.Fatalf("recorded latency max %v, want > 0", sum.RecordedLat.Max)
	}
}

// TestCaptureRecordsErrorsAndShow pins what lands in the capture
// beyond happy-path queries: a failed query is recorded with its
// error class (replay skips it; the capture still tells the whole
// story), and SHOW introspection is recorded like any other query.
func TestCaptureRecordsErrorsAndShow(t *testing.T) {
	dir := t.TempDir()
	w, err := wcap.Open(dir, wcap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, addr := testServer(t, server.WithCapture(w))
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	drain := func(sql string) error {
		rows, err := c.Query(context.Background(), sql)
		if err != nil {
			return err
		}
		for rows.Next() {
		}
		return rows.Err()
	}
	if err := drain("select count(*) from region"); err != nil {
		t.Fatal(err)
	}
	if err := drain("select nothing from nowhere"); err == nil {
		t.Fatal("bogus query succeeded")
	}
	if err := drain("show stats"); err != nil {
		t.Fatal(err)
	}

	// The writer has its own goroutine; poll until all three records
	// made it to disk or the deadline passes.
	var recs []wcap.Record
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := w.Stats(); st.Records == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("capture never saw 3 records: %+v", w.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err = wcap.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("loaded %d records, want 3", len(recs))
	}
	var sawErr, sawShow, sawOK bool
	for _, r := range recs {
		switch {
		case r.SQL == "select nothing from nowhere":
			sawErr = true
			if r.Err != wcap.ErrQuery {
				t.Fatalf("failed query recorded with class %v, want ErrQuery", r.Err)
			}
		case r.SQL == "show stats":
			sawShow = true
			if r.Err != wcap.OK || r.Rows == 0 {
				t.Fatalf("show record: %+v", r)
			}
		case r.SQL == "select count(*) from region":
			sawOK = true
			if r.Err != wcap.OK || r.Rows != 1 {
				t.Fatalf("ok record: %+v", r)
			}
		}
	}
	if !sawErr || !sawShow || !sawOK {
		t.Fatalf("capture missing records: err=%v show=%v ok=%v (%v)", sawErr, sawShow, sawOK, recs)
	}
}

// TestCaptureRecordsPreparedStatements pins that an execution of a
// statement prepared over the wire is recorded with the statement's SQL
// text and the label its execution carried, like a one-shot query.
func TestCaptureRecordsPreparedStatements(t *testing.T) {
	dir := t.TempDir()
	w, err := wcap.Open(dir, wcap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, addr := testServer(t, server.WithCapture(w))
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const q = "select count(*) from nation"
	st, err := c.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.QueryLabeled(context.Background(), "prepared-nation")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for w.Stats().Records != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("capture never saw the execution: %+v", w.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := wcap.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("loaded %d records, want 1", len(recs))
	}
	if r := recs[0]; r.SQL != q || r.Label != "prepared-nation" || r.Rows != 1 || r.Err != wcap.OK {
		t.Fatalf("prepared execution recorded as %+v", r)
	}
}
