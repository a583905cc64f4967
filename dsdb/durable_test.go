package dsdb_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/dsdb"
	"repro/internal/db/storage"
	"repro/internal/db/wal"
)

const durableSF = 0.0005

// renderAll runs the given TPC-D queries, or all of them, and renders
// each result's columns and benchDigest — the byte-identity
// fingerprint the crash-recovery invariant is stated in.
func renderAll(t *testing.T, db *dsdb.DB, queries ...int) string {
	t.Helper()
	if len(queries) == 0 {
		queries = dsdb.TPCDQueryNumbers()
	}
	var b strings.Builder
	for _, n := range queries {
		q, _ := dsdb.TPCDQuery(n)
		res, err := db.Exec(context.Background(), q)
		if err != nil {
			t.Fatalf("Q%d: %v", n, err)
		}
		fmt.Fprintf(&b, "Q%d %v %s\n", n, res.Columns, benchDigest(res))
	}
	return b.String()
}

// copyTree copies a data directory (regular files only).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.OpenFile(target, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mutation is one logged operation applied both to the durable DB
// (journaled) and, record by record, to the baseline.
type mutation func(db *dsdb.DB) error

// durableMutations is a mixed batch of DDL and inserts that move the
// TPC-D query results: rows in lineitem and orders shift the
// aggregates of nearly every query in the set.
func durableMutations() []mutation {
	date := func(s string) dsdb.Value {
		d, err := dsdb.ParseDate(s)
		if err != nil {
			panic(err)
		}
		return dsdb.NewDate(d)
	}
	var ms []mutation
	for i := 0; i < 4; i++ {
		i := i
		ms = append(ms, func(db *dsdb.DB) error {
			return db.Insert("lineitem",
				dsdb.NewInt(int64(900000+i)), dsdb.NewInt(1), dsdb.NewInt(1),
				dsdb.NewInt(1), dsdb.NewFloat(30+float64(i)),
				dsdb.NewFloat(50000+1000*float64(i)), dsdb.NewFloat(0.05),
				dsdb.NewFloat(0.02), dsdb.NewStr("R"), dsdb.NewStr("F"),
				date("1994-03-15"), date("1994-04-01"), date("1994-04-10"),
				dsdb.NewStr("MAIL"), dsdb.NewStr("NONE"))
		})
	}
	ms = append(ms, func(db *dsdb.DB) error {
		return db.Insert("orders",
			dsdb.NewInt(900000), dsdb.NewInt(1), dsdb.NewStr("F"),
			dsdb.NewFloat(123456.78), date("1994-03-01"),
			dsdb.NewStr("1-URGENT"), dsdb.NewInt(0))
	})
	ms = append(ms, func(db *dsdb.DB) error {
		return db.CreateTable("audit",
			dsdb.Col("id", dsdb.Int), dsdb.Col("note", dsdb.Str))
	})
	ms = append(ms, func(db *dsdb.DB) error {
		return db.Insert("audit", dsdb.NewInt(1), dsdb.NewStr("first"))
	})
	ms = append(ms, func(db *dsdb.DB) error {
		return db.CreateIndex("audit", "id", dsdb.BTree, true)
	})
	ms = append(ms, func(db *dsdb.DB) error {
		return db.Insert("audit", dsdb.NewInt(2), dsdb.NewStr("second"))
	})
	ms = append(ms, func(db *dsdb.DB) error {
		return db.Insert("customer",
			dsdb.NewInt(900000), dsdb.NewStr("Customer#000900000"),
			dsdb.NewInt(3), dsdb.NewStr("BUILDING"), dsdb.NewFloat(999.99))
	})
	return ms
}

// applyWalRecord applies one logged record to the in-memory baseline
// through the public API — "a fresh DB that applied the same committed
// prefix", literally.
func applyWalRecord(t *testing.T, db *dsdb.DB, rec wal.Record) {
	t.Helper()
	switch r := rec.(type) {
	case wal.Insert:
		vals, err := storage.DecodeTuple(r.Tuple, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Insert(r.Table, vals...); err != nil {
			t.Fatal(err)
		}
	case wal.CreateTable:
		cols := make([]dsdb.Column, len(r.Cols))
		for i, c := range r.Cols {
			cols[i] = dsdb.Col(c.Name, dsdb.Type(c.Type))
		}
		if err := db.CreateTable(r.Name, cols...); err != nil {
			t.Fatal(err)
		}
	case wal.CreateIndex:
		if err := db.CreateIndex(r.Table, r.Column, dsdb.IndexKind(r.Kind), r.Unique); err != nil {
			t.Fatal(err)
		}
	case wal.PageWrite:
		// Physical record: the in-memory baseline reconstructs the same
		// page bytes from the logical records alone.
	default:
		t.Fatalf("unexpected wal record %T", rec)
	}
}

// TestCrashRecoveryAtEveryRecordBoundary is the headline durability
// invariant: simulate a crash at *every* WAL record boundary and check
// the reopened database answers all 12 TPC-D queries byte-identically
// to a fresh database that applied the same committed prefix.
func TestCrashRecoveryAtEveryRecordBoundary(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "db")
	db := openTPCD(t, durableSF, dsdb.WithDataDir(dir))
	if db.WarmStarted() {
		t.Fatal("fresh dir reported warm start")
	}
	for i, m := range durableMutations() {
		if err := m(db); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	// Hard stop: no checkpoint, no close. Everything since the
	// TPC-D checkpoint lives only in the log.
	db.Abandon()

	walDir := filepath.Join(dir, "wal")
	segs, err := wal.Segments(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("expected one live segment at this scale, got %d", len(segs))
	}
	var recs []wal.Record
	var ends []int64
	if _, _, err := wal.ScanSegment(segs[0].Path, func(rec wal.Record, end int64) error {
		recs = append(recs, rec)
		ends = append(ends, end)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) < len(durableMutations()) {
		t.Fatalf("log has %d records for %d mutations", len(recs), len(durableMutations()))
	}

	// The incremental baseline: same TPC-D build, records applied one
	// by one between comparisons.
	baseline := openTPCD(t, durableSF)
	defer baseline.Close()

	// Boundary 0 = crash before any post-checkpoint record.
	boundaries := append([]int64{0}, ends...)
	for k, cut := range boundaries {
		crash := filepath.Join(root, fmt.Sprintf("crash-%02d", k))
		copyTree(t, dir, crash)
		seg := filepath.Join(crash, "wal", filepath.Base(segs[0].Path))
		if err := os.Truncate(seg, cut); err != nil {
			t.Fatal(err)
		}
		if k > 0 {
			applyWalRecord(t, baseline, recs[k-1])
		}
		re, err := dsdb.Open(dsdb.WithDataDir(crash))
		if err != nil {
			t.Fatalf("boundary %d: reopen: %v", k, err)
		}
		if !re.WarmStarted() {
			t.Fatalf("boundary %d: recovery not detected", k)
		}
		if got, want := renderAll(t, re), renderAll(t, baseline); got != want {
			t.Fatalf("boundary %d of %d: recovered results diverge from committed-prefix baseline", k, len(boundaries)-1)
		}
		for _, table := range []string{"lineitem", "orders", "customer"} {
			if got, want := re.NumRows(table), baseline.NumRows(table); got != want {
				t.Fatalf("boundary %d: %s has %d rows, want %d", k, table, got, want)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatalf("boundary %d: close: %v", k, err)
		}
	}
}

// TestTornFinalRecordRecovers pins the torn-tail path at the dsdb
// level: a crash mid-append discards exactly the torn record.
func TestTornFinalRecordRecovers(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "db")
	db := openTPCD(t, durableSF, dsdb.WithDataDir(dir))
	for i, m := range durableMutations() {
		if err := m(db); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	db.Abandon()

	walDir := filepath.Join(dir, "wal")
	segs, _ := wal.Segments(walDir)
	var recs []wal.Record
	var ends []int64
	if _, _, err := wal.ScanSegment(segs[0].Path, func(rec wal.Record, end int64) error {
		recs = append(recs, rec)
		ends = append(ends, end)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Cut mid-way through the final record: a torn append.
	last := len(ends) - 1
	cut := ends[last-1] + (ends[last]-ends[last-1])/2
	if err := os.Truncate(segs[0].Path, cut); err != nil {
		t.Fatal(err)
	}

	re, err := dsdb.Open(dsdb.WithDataDir(dir))
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer re.Close()
	baseline := openTPCD(t, durableSF)
	defer baseline.Close()
	for _, rec := range recs[:last] {
		applyWalRecord(t, baseline, rec)
	}
	if got, want := renderAll(t, re), renderAll(t, baseline); got != want {
		t.Fatal("torn-tail recovery diverges from committed-prefix baseline")
	}
}

// TestMidLogCorruptionFailsOpen pins that flipping a byte inside an
// early record makes Open fail loudly instead of silently dropping
// committed work.
func TestMidLogCorruptionFailsOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openTPCD(t, durableSF, dsdb.WithDataDir(dir))
	for i, m := range durableMutations() {
		if err := m(db); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	db.Abandon()

	segs, _ := wal.Segments(filepath.Join(dir, "wal"))
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0xFF // inside the first record's payload
	if err := os.WriteFile(segs[0].Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dsdb.Open(dsdb.WithDataDir(dir)); err == nil {
		t.Fatal("open succeeded over a corrupt log")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corruption error does not say so: %v", err)
	}
}

// TestEmptyAndFreshDataDirs covers the degenerate recovery inputs.
func TestEmptyAndFreshDataDirs(t *testing.T) {
	// A directory that does not exist yet is created.
	dir := filepath.Join(t.TempDir(), "sub", "db")
	db, err := dsdb.Open(dsdb.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if db.WarmStarted() {
		t.Fatal("fresh dir warm-started")
	}
	if err := db.CreateTable("t", dsdb.Col("a", dsdb.Int)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", dsdb.NewInt(7)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// An existing empty directory behaves identically.
	empty := t.TempDir()
	db2, err := dsdb.Open(dsdb.WithDataDir(empty))
	if err != nil {
		t.Fatal(err)
	}
	if db2.WarmStarted() {
		t.Fatal("empty dir warm-started")
	}
	db2.Close()
	// And the first database reopens with its row.
	re, err := dsdb.Open(dsdb.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.WarmStarted() {
		t.Fatal("reopen did not warm-start")
	}
	var got int64
	if err := re.QueryRow(context.Background(), "select count(*) from t").Scan(&got); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

// TestWarmStartMatchesColdLoad is the warm-start acceptance: build a
// TPC-D data dir, close (checkpoint), reopen with the same WithTPCD
// options — the preload must be skipped and every query answer must be
// byte-identical to the cold database's.
func TestWarmStartMatchesColdLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	cold := openTPCD(t, durableSF, dsdb.WithDataDir(dir))
	want := renderAll(t, cold)
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	warm := openTPCD(t, durableSF, dsdb.WithDataDir(dir))
	defer warm.Close()
	if !warm.WarmStarted() {
		t.Fatal("second open did not warm-start")
	}
	if got := renderAll(t, warm); got != want {
		t.Fatal("warm-started results diverge from cold load")
	}
	// Warm-started databases keep full write service.
	if err := warm.Insert("region", dsdb.NewInt(99), dsdb.NewStr("ATLANTIS")); err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := warm.QueryRow(context.Background(), "select count(*) from region").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("region count = %d after insert, want 6", n)
	}
}

// TestRecoveryWithPageSpills runs the post-checkpoint write burst
// through a tiny buffer pool, so dirty pages are evicted mid-run and
// journaled as PageWrite images — then crashes and recovers, proving
// physical and logical records replay consistently interleaved.
func TestRecoveryWithPageSpills(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openTPCD(t, durableSF, dsdb.WithDataDir(dir), dsdb.WithBufferFrames(16))
	baseline := openTPCD(t, durableSF)
	defer baseline.Close()
	insert := func(target *dsdb.DB, i int) error {
		return target.Insert("partsupp",
			dsdb.NewInt(int64(1+i%90)), dsdb.NewInt(int64(1+i%5)),
			dsdb.NewInt(int64(i)), dsdb.NewFloat(float64(i)/7))
	}
	q6, _ := dsdb.TPCDQuery(6)
	for i := 0; i < 500; i++ {
		if err := insert(db, i); err != nil {
			t.Fatal(err)
		}
		if err := insert(baseline, i); err != nil {
			t.Fatal(err)
		}
		// Interleave scans and an explicit flush: queries steal frames
		// from the 16-slot pool (evicting dirty partsupp pages, which
		// spill to the log), and Flush journals every dirty frame — the
		// two real sources of PageWrite records.
		if i%100 == 50 {
			if _, err := db.Exec(context.Background(), q6); err != nil {
				t.Fatal(err)
			}
		}
		if i == 250 {
			if err := db.Engine().Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.Abandon()

	// The log must actually contain page images, or this test proves
	// nothing about the physical-replay path.
	spills := 0
	if _, err := wal.Replay(filepath.Join(dir, "wal"), 0, func(rec wal.Record) error {
		if _, ok := rec.(wal.PageWrite); ok {
			spills++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if spills == 0 {
		t.Fatal("no PageWrite records spilled despite the tiny buffer pool")
	}

	re, err := dsdb.Open(dsdb.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, want := renderAll(t, re), renderAll(t, baseline); got != want {
		t.Fatal("recovery with interleaved page spills diverges from baseline")
	}
	var n int64
	if err := re.QueryRow(context.Background(), "select count(*) from partsupp").Scan(&n); err != nil {
		t.Fatal(err)
	}
	var want int64
	if err := baseline.QueryRow(context.Background(), "select count(*) from partsupp").Scan(&want); err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("partsupp count %d, want %d", n, want)
	}
}

// TestCheckpointAndCloseWhileFramesViewTheMapping runs queries through
// a 32-frame pool over a checkpointed database, so the frames view the
// mapped generation, and then releases that generation under them:
// a checkpoint (which unmaps the old generation), inserts (which write
// pages the frames were viewing), and Close and reopen. Every result
// must equal the in-memory database's; a frame still viewing a
// released generation is a fault.
func TestCheckpointAndCloseWhileFramesViewTheMapping(t *testing.T) {
	opts := []dsdb.Option{dsdb.WithDataDir(filepath.Join(t.TempDir(), "db")), dsdb.WithBufferFrames(32)}
	db := openTPCD(t, durableSF, opts...)
	mem := openTPCD(t, durableSF)
	defer mem.Close()
	want := renderAll(t, mem, 6, 14)
	check := func(when string) {
		t.Helper()
		if got := renderAll(t, db, 6, 14); got != want {
			t.Fatalf("%s: durable results\n%s in-memory results\n%s", when, got, want)
		}
	}
	check("after the load's checkpoint")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("after a checkpoint")

	// Rows both queries see: Q6's 1994 window and discount band, Q14's
	// September 1995.
	date := func(s string) dsdb.Value {
		d, err := dsdb.ParseDate(s)
		if err != nil {
			t.Fatal(err)
		}
		return dsdb.NewDate(d)
	}
	for i := 0; i < 200; i++ {
		ship := date("1994-03-15")
		if i%2 == 1 {
			ship = date("1995-09-10")
		}
		row := []dsdb.Value{
			dsdb.NewInt(int64(900000 + i)), dsdb.NewInt(int64(1 + i%50)), dsdb.NewInt(1),
			dsdb.NewInt(1), dsdb.NewFloat(10), dsdb.NewFloat(1000 + float64(i)),
			dsdb.NewFloat(0.06), dsdb.NewFloat(0.02), dsdb.NewStr("R"), dsdb.NewStr("F"),
			ship, ship, ship, dsdb.NewStr("MAIL"), dsdb.NewStr("NONE"),
		}
		for _, target := range []*dsdb.DB{db, mem} {
			if err := target.Insert("lineitem", row...); err != nil {
				t.Fatal(err)
			}
		}
	}
	want = renderAll(t, mem, 6, 14)
	check("after inserts")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openTPCD(t, durableSF, opts...)
	defer db.Close()
	check("after Close and reopen")
}

// TestKeptValuesOutliveEvictionAndCheckpoint keeps varchar columns the
// four ways a caller can — Rows.Values, Rows.Scan into *string and
// *Value, a QueryRow's Row scanned only at the end, and Exec — from a
// data-directory database whose 32 frames view the mapped checkpoint
// generation. Executor strings view pool pages, so everything handed to
// the caller must own its bytes: other queries then evict those pages,
// inserts rewrite pages, and a checkpoint unmaps the generation the
// values were read from. The kept values must still equal, byte for
// byte, what a fresh query returns.
func TestKeptValuesOutliveEvictionAndCheckpoint(t *testing.T) {
	ctx := context.Background()
	db := openTPCD(t, durableSF, dsdb.WithDataDir(filepath.Join(t.TempDir(), "db")), dsdb.WithBufferFrames(32))
	defer db.Close()
	queries := []string{
		"select c_custkey, c_name, c_mktsegment from customer",
		"select p_name, p_type from part",
		"select n_name, r_name from nation, region where n_regionkey = r_regionkey and n_nationkey = 7",
		"select s_name, s_suppkey from supplier",
	}
	kept := make([][][]dsdb.Value, len(queries))

	rows, err := db.Query(ctx, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		kept[0] = append(kept[0], rows.Values())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}

	rows, err = db.Query(ctx, queries[1])
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		var name string
		var typ dsdb.Value
		if err := rows.Scan(&name, &typ); err != nil {
			t.Fatal(err)
		}
		kept[1] = append(kept[1], []dsdb.Value{dsdb.NewStr(name), typ})
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}

	row := db.QueryRow(ctx, queries[2]) // scanned after the churn below

	res, err := db.Exec(ctx, queries[3])
	if err != nil {
		t.Fatal(err)
	}
	kept[3] = res.Rows

	// Churn: every TPC-D query through the 32 frames, inserts, a
	// checkpoint that unmaps the generation, and the queries again.
	renderAll(t, db)
	for i := 0; i < 100; i++ {
		err := db.Insert("lineitem",
			dsdb.NewInt(int64(800000+i)), dsdb.NewInt(1), dsdb.NewInt(1), dsdb.NewInt(1),
			dsdb.NewFloat(1), dsdb.NewFloat(1), dsdb.NewFloat(0), dsdb.NewFloat(0),
			dsdb.NewStr("N"), dsdb.NewStr("O"), dsdb.NewDate(9000), dsdb.NewDate(9000), dsdb.NewDate(9000),
			dsdb.NewStr("RAIL"), dsdb.NewStr(strings.Repeat("overwrite ", 2)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	renderAll(t, db)

	var nation, region string
	if err := row.Scan(&nation, &region); err != nil {
		t.Fatal(err)
	}
	kept[2] = [][]dsdb.Value{{dsdb.NewStr(nation), dsdb.NewStr(region)}}
	for i, q := range queries {
		fresh, err := db.Exec(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%q", kept[i]), fmt.Sprintf("%q", fresh.Rows); got != want || len(fresh.Rows) == 0 {
			t.Errorf("%s: kept values changed (or none):\nkept  %.300s\nfresh %.300s", q, got, want)
		}
	}
}

// TestWarmStartRejectsMismatchedTPCDOptions pins the build stamp: a
// data directory built at one scale factor refuses to warm-start under
// options describing a different database.
func TestWarmStartRejectsMismatchedTPCDOptions(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openTPCD(t, durableSF, dsdb.WithDataDir(dir))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := dsdb.Open(dsdb.WithTPCD(0.001), dsdb.WithDataDir(dir)); err == nil {
		t.Fatal("mismatched scale factor warm-started silently")
	} else if !strings.Contains(err.Error(), "built with") {
		t.Fatalf("mismatch error does not explain itself: %v", err)
	}
	if _, err := dsdb.Open(dsdb.WithTPCD(durableSF), dsdb.WithIndexKind(dsdb.Hash),
		dsdb.WithDataDir(dir)); err == nil {
		t.Fatal("mismatched index kind warm-started silently")
	}
	// Matching options (and plain opens without WithTPCD) still work.
	re := openTPCD(t, durableSF, dsdb.WithDataDir(dir))
	if !re.WarmStarted() {
		t.Fatal("matching options did not warm-start")
	}
	re.Close()
	plain, err := dsdb.Open(dsdb.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if !plain.WarmStarted() {
		t.Fatal("plain open did not warm-start")
	}
}
