package dsdb_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/dsdb"
)

// Index scans and index joins keep the pages they are on pinned from
// one tuple to the next (access.BTreeScan, buffer.Pin) and give them
// back in Close. These tests pin that discipline from the outside:
// however a query ends, the pool is left with nothing pinned.

func assertNoPins(t *testing.T, db *dsdb.DB, when string) {
	t.Helper()
	if n := db.PoolStats().Pinned; n != 0 {
		t.Fatalf("%s: %d frames still pinned", when, n)
	}
}

// TestPinsReleasedHoweverAQueryEnds runs the twelve TPC-D queries on
// the B-tree and the hash database to completion, then ends streams
// early in each way a caller can — Close after the first row, a
// cancelled context, a LIMIT that stops pulling — and checks the pool
// after each.
func TestPinsReleasedHoweverAQueryEnds(t *testing.T) {
	for _, kind := range []dsdb.IndexKind{dsdb.BTree, dsdb.Hash} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openTPCD(t, 0.002, dsdb.WithSeed(42), dsdb.WithIndexKind(kind))
			defer db.Close()
			assertNoPins(t, db, "after load")
			for _, qn := range dsdb.TPCDQueryNumbers() {
				q, _ := dsdb.TPCDQuery(qn)
				if _, err := db.Exec(context.Background(), q); err != nil {
					t.Fatalf("Q%d: %v", qn, err)
				}
				assertNoPins(t, db, fmt.Sprintf("Q%d drained", qn))

				rows, err := db.Query(context.Background(), q)
				if err != nil {
					t.Fatalf("Q%d: %v", qn, err)
				}
				rows.Next()
				rows.Close()
				assertNoPins(t, db, fmt.Sprintf("Q%d closed after one row", qn))
			}

			// An index join cancelled mid-stream: its cursors hold pages
			// when the context ends.
			const join = "select l_orderkey, o_orderdate, l_extendedprice from orders, lineitem where l_orderkey = o_orderkey"
			ctx, cancel := context.WithCancel(context.Background())
			rows, err := db.Query(ctx, join)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100 && rows.Next(); i++ {
			}
			// The outer scan's page, the inner index page(s), the heap page.
			if n := db.PoolStats().Pinned; n < 3 {
				t.Fatalf("a streaming index join holds %d pages: the inner side retains nothing", n)
			}
			cancel()
			for rows.Next() {
			}
			if rows.Err() == nil {
				t.Fatal("cancelled stream ended without an error")
			}
			rows.Close()
			assertNoPins(t, db, "index join cancelled mid-stream")

			if _, err := db.Exec(context.Background(), join+" limit 7"); err != nil {
				t.Fatal(err)
			}
			assertNoPins(t, db, "LIMIT over an index join")
		})
	}
}

// TestPinsReleasedAfterReadError injects storage read errors under a
// running index join: a warm-started durable database with a pool far
// smaller than its data reads its pages from the checkpoint's mapped
// files, and failing every store read mid-stream makes the next miss
// fail — with the join's cursors and heap pin holding pages at that
// moment. The mappings stay: the pages the join holds are views of
// them. (Unmapping or truncating the page files instead would not do:
// under a mapping that is a fault, not an error.)
func TestPinsReleasedAfterReadError(t *testing.T) {
	dir := t.TempDir()
	opts := []dsdb.Option{dsdb.WithSeed(42), dsdb.WithDataDir(dir), dsdb.WithBufferFrames(32)}
	db := openTPCD(t, 0.002, opts...)
	if err := db.Close(); err != nil { // checkpoints
		t.Fatal(err)
	}
	db = openTPCD(t, 0.002, opts...)
	defer db.Close()

	rows, err := db.Query(context.Background(),
		"select l_orderkey, o_orderdate, l_extendedprice from orders, lineitem where l_orderkey = o_orderkey")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for i := 0; i < 50; i++ {
		if !rows.Next() {
			t.Fatalf("stream ended after %d rows: %v", i, rows.Err())
		}
	}
	db.FailStoreReadsForTest()
	n := 50
	for rows.Next() {
		n++
	}
	if rows.Err() == nil {
		t.Fatalf("all %d rows streamed from a failing store through a 32-frame pool", n)
	}
	rows.Close()
	assertNoPins(t, db, fmt.Sprintf("read error after %d rows (%v)", n, rows.Err()))
}

// TestSmallPoolReturnsGoldenRows runs the twelve queries through a
// 64-frame pool — a thirtieth of the data, and not many more frames
// than the deepest plan's cursors retain (tree height + 2 pages per
// index scan or join) — and compares each result with the digest
// bench/ pins for the default pool: retention must not change a row,
// nor run a plan out of frames.
func TestSmallPoolReturnsGoldenRows(t *testing.T) {
	golden := resultsGolden(t)
	db := openSmallPool(t)
	defer db.Close()
	for _, qn := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(qn)
		res, err := db.Exec(context.Background(), q)
		if err != nil {
			t.Fatalf("Q%d: %v", qn, err)
		}
		name := fmt.Sprintf("Q%d", qn)
		if got := benchDigest(res); got != golden[name] {
			t.Errorf("%s through 64 frames: %s, results.golden has %s", name, got, golden[name])
		}
		assertNoPins(t, db, name)
	}
	if st := db.PoolStats(); st.Misses == 0 {
		t.Fatal("no misses: the pool was not small")
	}
}

// TestSmallPoolConcurrentSessions is TestSmallPoolReturnsGoldenRows
// with two sessions at once: each runs three rounds of the twelve
// queries, in its own seeded order, through the same 64 frames, so
// that one session's misses evict the pages the other is hitting. No
// row may change, and nothing may stay pinned.
func TestSmallPoolConcurrentSessions(t *testing.T) {
	const sessions, rounds = 2, 3
	golden := resultsGolden(t)
	db := openSmallPool(t)
	defer db.Close()
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s + 1)))
			for r := 0; r < rounds; r++ {
				qns := dsdb.TPCDQueryNumbers()
				rng.Shuffle(len(qns), func(i, j int) { qns[i], qns[j] = qns[j], qns[i] })
				for _, qn := range qns {
					q, _ := dsdb.TPCDQuery(qn)
					res, err := db.Exec(context.Background(), q)
					if err != nil {
						errs[s] = fmt.Errorf("session %d round %d Q%d: %w", s, r, qn, err)
						return
					}
					name := fmt.Sprintf("Q%d", qn)
					if got := benchDigest(res); got != golden[name] {
						errs[s] = fmt.Errorf("session %d round %d %s: %s, results.golden has %s", s, r, name, got, golden[name])
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	assertNoPins(t, db, "after both sessions")
	if st := db.PoolStats(); st.Misses == 0 {
		t.Fatal("no misses: the pool was not small")
	}
}

// resultsGolden reads bench/'s per-query result digests.
func resultsGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "bench", "testdata", "results.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, digest, _ := strings.Cut(sc.Text(), " ")
		golden[name] = digest
	}
	return golden
}

// openSmallPool opens the golden's configuration — bench/ generates
// its data at SF 0.01 with data seed 42 — through a 64-frame pool.
func openSmallPool(t *testing.T) *dsdb.DB {
	return openTPCD(t, 0.01, dsdb.WithSeed(42), dsdb.WithBufferFrames(64))
}

// benchDigest renders a result the way bench/run.go's digest does: row
// count plus FNV-1a over every datum's type tag and exact payload.
func benchDigest(res *dsdb.Result) string {
	h := fnv.New64a()
	var buf [9]byte
	for _, row := range res.Rows {
		for _, v := range row {
			buf[0] = byte(v.T)
			switch v.T {
			case dsdb.Float:
				binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.F))
				h.Write(buf[:])
			case dsdb.Str:
				h.Write(buf[:1])
				h.Write([]byte(v.S))
				h.Write([]byte{0})
			default:
				binary.LittleEndian.PutUint64(buf[1:], uint64(v.I))
				h.Write(buf[:])
			}
		}
		h.Write([]byte{0xff})
	}
	return fmt.Sprintf("rows=%d fnv=%016x", len(res.Rows), h.Sum64())
}
