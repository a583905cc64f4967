package dsdb_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dsdb"
	"repro/dsdb/obs"
)

// Regenerate the plan goldens after an intentional planner or renderer
// change:
//
//	go test ./dsdb -run TestExplainPlanGoldens -update
//
// (TestQueryAllocBudget's golden takes the same flag.)
var update = flag.Bool("update", false, "rewrite the goldens under testdata/ of the tests selected with -run")

// planSF is the scale factor the plan goldens are pinned at. The
// planner's choices depend only on schema and indexes (not table
// sizes), but the ANALYZE cardinalities in the sibling tests do not —
// keep every test in this file on the same database.
const planSF = 0.005

// planDB loads one shared serial database for all EXPLAIN tests.
var planDB = sync.OnceValues(func() (*dsdb.DB, error) {
	return dsdb.Open(dsdb.WithTPCD(planSF), dsdb.WithSeed(42))
})

func openPlanDB(t *testing.T) *dsdb.DB {
	t.Helper()
	db, err := planDB()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

// runExplain executes an EXPLAIN (or EXPLAIN ANALYZE) statement and
// returns the plan lines.
func runExplain(t *testing.T, db *dsdb.DB, query string) []string {
	t.Helper()
	rows, err := db.Query(context.Background(), query)
	if err != nil {
		t.Fatalf("Query(%q): %v", query, err)
	}
	defer rows.Close()
	if cols := rows.Columns(); len(cols) != 1 || cols[0] != dsdb.ExplainColumn {
		t.Fatalf("EXPLAIN columns = %v, want [%s]", cols, dsdb.ExplainColumn)
	}
	var lines []string
	for rows.Next() {
		lines = append(lines, rows.Values()[0].S)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("EXPLAIN stream: %v", err)
	}
	return lines
}

// TestExplainPlanGoldens pins the plan shape of every TPC-D query the
// repo carries. A planner change that moves a join order, scan kind or
// predicate placement shows up here as a readable plan diff — commit
// it by regenerating with -update.
func TestExplainPlanGoldens(t *testing.T) {
	db := openPlanDB(t)
	for _, qn := range dsdb.TPCDQueryNumbers() {
		t.Run(fmt.Sprintf("Q%d", qn), func(t *testing.T) {
			q, _ := dsdb.TPCDQuery(qn)
			got := strings.Join(runExplain(t, db, "explain "+q), "\n") + "\n"
			path := filepath.Join("testdata", "plans", fmt.Sprintf("q%d.golden", qn))
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("plan for Q%d drifted:\n--- got ---\n%s--- want ---\n%s", qn, got, want)
			}
		})
	}
}

// rootActual parses the "actual rows=N" counter off an ANALYZE plan's
// root line.
func rootActual(t *testing.T, lines []string) int64 {
	t.Helper()
	if len(lines) == 0 {
		t.Fatal("empty ANALYZE plan")
	}
	_, after, ok := strings.Cut(lines[0], "actual rows=")
	if !ok {
		t.Fatalf("root line carries no counters: %q", lines[0])
	}
	num, _, _ := strings.Cut(after, " ")
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		t.Fatalf("unparsable rows counter in %q: %v", lines[0], err)
	}
	return n
}

// TestExplainAnalyzeCardinalities runs every TPC-D query twice — once
// plainly, once under EXPLAIN ANALYZE — and requires the root
// operator's actual-rows counter to equal the real result cardinality.
func TestExplainAnalyzeCardinalities(t *testing.T) {
	db := openPlanDB(t)
	for _, qn := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(qn)
		res, err := db.Exec(context.Background(), q)
		if err != nil {
			t.Fatalf("Q%d: %v", qn, err)
		}
		lines := runExplain(t, db, "explain analyze "+q)
		if got, want := rootActual(t, lines), int64(len(res.Rows)); got != want {
			t.Errorf("Q%d: ANALYZE root reports %d rows, query returned %d\n%s",
				qn, got, want, strings.Join(lines, "\n"))
		}
		// Every operator line (not the indented predicate details)
		// must carry the full counter suffix.
		for _, l := range lines {
			trimmed := strings.TrimLeft(l, " ->")
			if strings.HasPrefix(trimmed, "Filter:") || strings.HasPrefix(trimmed, "Index Cond:") ||
				strings.HasPrefix(trimmed, "Join Filter:") {
				continue
			}
			if !strings.Contains(l, "actual rows=") || !strings.Contains(l, "buf_hits=") {
				t.Errorf("Q%d: operator line missing counters: %q", qn, l)
			}
		}
	}
}

// TestExplainAnalyzeTimeMatchesSpan is the accounting acceptance: the
// root operator's inclusive wall time and the span's exec+io+wal
// stages both measure the same drain, so they must agree within slack.
// Best of a few runs guards against scheduler noise on tiny intervals.
func TestExplainAnalyzeTimeMatchesSpan(t *testing.T) {
	db := openPlanDB(t)
	q, _ := dsdb.TPCDQuery(3)
	ok := false
	var lastDetail string
	for attempt := 0; attempt < 5 && !ok; attempt++ {
		lines := runExplain(t, db, "explain analyze "+q)
		_, after, found := strings.Cut(lines[0], "time=")
		if !found {
			t.Fatalf("root line carries no time: %q", lines[0])
		}
		ms, _, _ := strings.Cut(after, "ms")
		rootMS, err := strconv.ParseFloat(ms, 64)
		if err != nil {
			t.Fatalf("unparsable time in %q: %v", lines[0], err)
		}
		rootWall := time.Duration(rootMS * float64(time.Millisecond))

		// Recent() is newest-first; the ANALYZE just above is the first
		// record carrying a top_op.
		var rec *obs.Record
		for _, r := range db.Obs().Recent() {
			if r.TopOp != "" {
				rec = &r
				break
			}
		}
		if rec == nil {
			t.Fatal("no ANALYZE record with a top_op in the recent ring")
		}
		stages := rec.Stages[obs.StageExec] + rec.Stages[obs.StageIO] + rec.Stages[obs.StageWAL]
		ratio := float64(rootWall) / float64(stages)
		lastDetail = fmt.Sprintf("root=%v stages=%v ratio=%.2f top_op=%q", rootWall, stages, ratio, rec.TopOp)
		// The root wall is inside the timed drain, so it cannot exceed
		// the stages by more than the renderer's 1µs rounding; it must
		// also account for most of them (the drain loop itself is thin).
		ok = ratio >= 0.7 && float64(rootWall) <= float64(stages)*1.05+float64(10*time.Microsecond)
	}
	if !ok {
		t.Fatalf("operator time does not reconcile with the span stages: %s", lastDetail)
	}
}

// TestExplainAnalyzeSetsTopOp: the slow-query attribution rides the
// ANALYZE execution into the recent ring.
func TestExplainAnalyzeSetsTopOp(t *testing.T) {
	db := openPlanDB(t)
	q, _ := dsdb.TPCDQuery(6)
	lines := runExplain(t, db, "explain analyze "+q)
	var rec *obs.Record
	for _, r := range db.Obs().Recent() { // newest first
		if r.TopOp != "" {
			rec = &r
			break
		}
	}
	if rec == nil {
		t.Fatal("ANALYZE left no top_op in the recent ring")
	}
	found := false
	for _, l := range lines {
		if strings.Contains(l, rec.TopOp) {
			found = true
		}
	}
	if !found {
		t.Fatalf("top_op %q is not an operator of the executed plan:\n%s",
			rec.TopOp, strings.Join(lines, "\n"))
	}
	if !strings.Contains(rec.LogLine(), fmt.Sprintf("top_op=%q", rec.TopOp)) {
		t.Fatalf("log line misses top_op: %s", rec.LogLine())
	}
}

// TestExplainPrepareRejected: Instrument rewires plans in place, so
// EXPLAIN must not reach the shared prepared-statement path.
func TestExplainPrepareRejected(t *testing.T) {
	db := openPlanDB(t)
	q, _ := dsdb.TPCDQuery(6)
	for _, stmt := range []string{"explain " + q, "explain analyze " + q} {
		if _, err := db.Prepare(stmt); err == nil {
			t.Fatalf("Prepare(%.30q...) succeeded, want rejection", stmt)
		}
	}
}

// TestExplainBypassesResultCache: EXPLAIN results never come from or
// land in the result cache, while the same query text keeps caching
// normally around them.
func TestExplainBypassesResultCache(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.001), dsdb.WithSeed(42), dsdb.WithResultCache(8<<20))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	q, _ := dsdb.TPCDQuery(6)
	for i := 0; i < 2; i++ {
		rows, err := db.Query(context.Background(), "explain analyze "+q)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if rows.CacheHit() {
			t.Fatal("EXPLAIN ANALYZE served from the result cache")
		}
		rows.Close()
	}
	st, enabled := db.ResultCacheStats()
	if !enabled {
		t.Fatal("result cache unexpectedly disabled")
	}
	if st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("EXPLAIN touched the result cache: %+v", st)
	}
	// The unprefixed query still caches: miss then hit.
	for i := 0; i < 2; i++ {
		if _, err := db.Exec(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	st, _ = db.ResultCacheStats()
	if st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("ordinary caching broken around EXPLAIN: %+v", st)
	}
}
