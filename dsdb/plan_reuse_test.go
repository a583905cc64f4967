package dsdb_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/dsdb"
	"repro/internal/db/probe"
)

// probeLog records every probe event of an execution, in order.
type probeLog []probe.ID

func (l *probeLog) Emit(id probe.ID) { *l = append(*l, id) }

// cancelAfter cancels its context once n probe events have passed, so
// an execution is interrupted wherever its operators happen to be.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Emit(probe.ID) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
}

// tracedRun is one traced execution: its result and its probes.
type tracedRun struct {
	res    *dsdb.Result
	probes probeLog
}

// runOneShot runs q as a one-shot query, the plan pool's path.
func runOneShot(t *testing.T, db *dsdb.DB, q string) tracedRun {
	t.Helper()
	var r tracedRun
	var err error
	if r.res, err = materialize(db.QueryObserved(context.Background(), &r.probes, "", q)); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	assertNoPins(t, db, q)
	return r
}

// runFresh runs q through a statement compiled for this run alone.
func runFresh(t *testing.T, db *dsdb.DB, q string) tracedRun {
	t.Helper()
	var r tracedRun
	stmt, err := db.PrepareTraced(&r.probes, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	defer stmt.Close()
	if r.res, err = materialize(stmt.Query(context.Background())); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	assertNoPins(t, db, q)
	return r
}

// sameRun fails unless got returned and recorded what a fresh plan did.
func sameRun(t *testing.T, what string, got, fresh tracedRun) {
	t.Helper()
	if g, f := benchDigest(got.res), benchDigest(fresh.res); g != f {
		t.Errorf("%s: result %s, a fresh plan's %s", what, g, f)
	}
	if !slices.Equal(got.probes, fresh.probes) {
		at := 0
		for at < min(len(got.probes), len(fresh.probes)) && got.probes[at] == fresh.probes[at] {
			at++
		}
		t.Errorf("%s: %d probe events, a fresh plan's %d, first difference at event %d",
			what, len(got.probes), len(fresh.probes), at)
	}
}

// expectPlans fails unless the pool compiled and reused exactly so many
// statements since before.
func expectPlans(t *testing.T, db *dsdb.DB, what string, before dsdb.PlanStats, compiled, reused uint64) {
	t.Helper()
	now := db.PlanStats()
	if c, r := now.Compiled-before.Compiled, now.Reused-before.Reused; c != compiled || r != reused {
		t.Fatalf("%s: %d compiled and %d reused, want %d and %d", what, c, r, compiled, reused)
	}
}

// TestPlanReusedAfterDisruptedRun cancels a pooled statement's
// execution halfway through its probe events and checks that its next
// run equals a fresh plan's. (TestOracle does the same after a run
// closed after one row.)
func TestPlanReusedAfterDisruptedRun(t *testing.T) {
	for _, kind := range []dsdb.IndexKind{dsdb.BTree, dsdb.Hash} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openTPCD(t, 0.002, dsdb.WithSeed(42), dsdb.WithIndexKind(kind))
			defer db.Close()
			for _, qn := range dsdb.TPCDQueryNumbers() {
				q, _ := dsdb.TPCDQuery(qn)
				fresh := runFresh(t, db, q)
				runOneShot(t, db, q) // compiles the pooled statement

				ctx, cancel := context.WithCancel(context.Background())
				before := db.PlanStats()
				_, err := materialize(db.QueryObserved(ctx, &cancelAfter{n: len(fresh.probes) / 2, cancel: cancel}, "", q))
				cancel()
				if err == nil {
					t.Fatalf("Q%d: cancelled halfway, yet it ran to the end", qn)
				}
				assertNoPins(t, db, fmt.Sprintf("Q%d cancelled", qn))
				sameRun(t, fmt.Sprintf("Q%d after a cancelled run", qn), runOneShot(t, db, q), fresh)
				expectPlans(t, db, fmt.Sprintf("Q%d", qn), before, 0, 2)
			}
		})
	}
}

// TestPlanReusedAfterFailedRun fails a pooled statement's execution
// with a storage read error: each query runs first on a warm-started
// database whose pool is cold, so its first page miss fails. Once reads
// work again and an explicit statement has warmed the pool, the pooled
// statement's next run must equal a fresh plan's.
func TestPlanReusedAfterFailedRun(t *testing.T) {
	for _, kind := range []dsdb.IndexKind{dsdb.BTree, dsdb.Hash} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := []dsdb.Option{dsdb.WithSeed(42), dsdb.WithIndexKind(kind), dsdb.WithDataDir(t.TempDir())}
			if err := openTPCD(t, 0.002, opts...).Close(); err != nil { // checkpoints
				t.Fatal(err)
			}
			for _, qn := range dsdb.TPCDQueryNumbers() {
				q, _ := dsdb.TPCDQuery(qn)
				db := openTPCD(t, 0.002, opts...)
				db.FailStoreReadsForTest()
				if _, err := materialize(db.Query(context.Background(), q)); err == nil {
					t.Fatalf("Q%d ran on a cold pool whose every read fails", qn)
				}
				assertNoPins(t, db, fmt.Sprintf("Q%d failed", qn))
				db.HealStoreReadsForTest()
				runFresh(t, db, q) // warms the pool: the runs below all hit
				fresh := runFresh(t, db, q)
				before := db.PlanStats()
				sameRun(t, fmt.Sprintf("Q%d after a failed run", qn), runOneShot(t, db, q), fresh)
				expectPlans(t, db, fmt.Sprintf("Q%d", qn), before, 0, 1)
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestPlanRecompilesAfterWrite writes to a table a pooled statement
// reads — a CreateIndex that gives a predicate an index, an Insert that
// turns the join order around — and checks that the next one-shot run
// compiles again and equals a fresh plan, while a plan compiled before
// the write (an explicit statement) now runs differently: reusing it
// would have been wrong.
func TestPlanRecompilesAfterWrite(t *testing.T) {
	writes := []struct {
		name, query string
		write       func(db *dsdb.DB, kind dsdb.IndexKind) error
	}{
		{"CreateIndex", "select p_partkey, p_name from part where p_size = 15",
			func(db *dsdb.DB, kind dsdb.IndexKind) error {
				return db.CreateIndex("part", "p_size", kind, false)
			}},
		// region (5 rows) joins nation (25) from the smaller side; at
		// 35 rows region is the larger one.
		{"Insert", "select n_name, r_name from nation, region where n_regionkey = r_regionkey",
			func(db *dsdb.DB, _ dsdb.IndexKind) error {
				for k := int64(100); k < 130; k++ {
					if err := db.Insert("region", dsdb.NewInt(k), dsdb.NewStr(fmt.Sprintf("R%d", k))); err != nil {
						return err
					}
				}
				return nil
			}},
	}
	for _, kind := range []dsdb.IndexKind{dsdb.BTree, dsdb.Hash} {
		for _, w := range writes {
			t.Run(kind.String()+"/"+w.name, func(t *testing.T) {
				db := openTPCD(t, 0.002, dsdb.WithSeed(42), dsdb.WithIndexKind(kind))
				defer db.Close()
				runOneShot(t, db, w.query)
				runOneShot(t, db, w.query) // the pool now holds a used statement
				var staleProbes probeLog
				stale, err := db.PrepareTraced(&staleProbes, w.query)
				if err != nil {
					t.Fatal(err)
				}
				defer stale.Close()
				if err := w.write(db, kind); err != nil {
					t.Fatal(err)
				}
				before := db.PlanStats()
				got := runOneShot(t, db, w.query)
				fresh := runFresh(t, db, w.query)
				sameRun(t, "after "+w.name, got, fresh)
				expectPlans(t, db, w.name, before, 1, 0)
				if _, err := materialize(stale.Query(context.Background())); err != nil {
					t.Fatal(err)
				}
				if slices.Equal(staleProbes, fresh.probes) {
					t.Fatalf("a plan compiled before the %s runs like a fresh one: the write changes no plan, so the test checks nothing", w.name)
				}
			})
		}
	}
}

// TestPlanPoolConcurrentSessions runs the same texts from two sessions
// at once (run it under -race): every result must equal the serial
// one, and since at most two statements per text are ever running, the
// pool compiles each text at most twice.
func TestPlanPoolConcurrentSessions(t *testing.T) {
	for _, kind := range []dsdb.IndexKind{dsdb.BTree, dsdb.Hash} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openTPCD(t, 0.002, dsdb.WithSeed(42), dsdb.WithIndexKind(kind))
			defer db.Close()
			qns := dsdb.TPCDQueryNumbers()
			want := map[int]string{}
			for _, qn := range qns {
				q, _ := dsdb.TPCDQuery(qn)
				want[qn] = benchDigest(runFresh(t, db, q).res)
			}
			const sessions, rounds = 2, 3
			before := db.PlanStats()
			errs := make(chan error, sessions)
			var wg sync.WaitGroup
			for s := range sessions {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := range rounds {
						for i := range qns {
							qn := qns[(i+s*len(qns)/2)%len(qns)] // the sessions start half a mix apart
							if r%2 == 1 {
								qn = qns[i] // and then run in step
							}
							q, _ := dsdb.TPCDQuery(qn)
							res, err := db.Exec(context.Background(), q)
							if err != nil {
								errs <- fmt.Errorf("session %d Q%d: %v", s, qn, err)
								return
							}
							if got := benchDigest(res); got != want[qn] {
								errs <- fmt.Errorf("session %d round %d Q%d: %s, serially %s", s, r, qn, got, want[qn])
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			assertNoPins(t, db, "after both sessions")
			now := db.PlanStats()
			compiled, reused := now.Compiled-before.Compiled, now.Reused-before.Reused
			if total := uint64(sessions * rounds * len(qns)); compiled+reused != total {
				t.Fatalf("%d compiled + %d reused, want %d runs", compiled, reused, total)
			}
			if compiled > uint64(sessions*len(qns)) {
				t.Fatalf("%d compiles for %d texts from %d sessions", compiled, len(qns), sessions)
			}
		})
	}
}

// TestPlanPoolBounded runs more distinct texts than the pool keeps:
// it never holds more than its bound, drops the least recently
// returned statement first, and a text that was dropped compiles again.
func TestPlanPoolBounded(t *testing.T) {
	db := openTPCD(t, 0.0005, dsdb.WithSeed(42))
	defer db.Close()
	text := func(i int) string {
		return fmt.Sprintf("select count(*) from nation where n_nationkey < %d", i)
	}
	run := func(i int) {
		t.Helper()
		if _, err := db.Exec(context.Background(), text(i)); err != nil {
			t.Fatal(err)
		}
		if idle := db.PlanStats().Idle; idle > dsdb.MaxIdlePlans {
			t.Fatalf("%d idle statements, bound %d", idle, dsdb.MaxIdlePlans)
		}
	}
	for i := range dsdb.MaxIdlePlans {
		run(i)
	}
	before := db.PlanStats()
	run(0)                     // reused: text 0 is now the most recently returned
	run(dsdb.MaxIdlePlans)     // evicts text 1, the least recently returned
	run(dsdb.MaxIdlePlans + 1) // evicts text 2
	expectPlans(t, db, "past the bound", before, 2, 1)
	if st := db.PlanStats(); st.Idle != dsdb.MaxIdlePlans || st.Evicted-before.Evicted != 2 {
		t.Fatalf("%d idle and %d evicted, want %d and 2", st.Idle, st.Evicted-before.Evicted, dsdb.MaxIdlePlans)
	}
	before = db.PlanStats()
	run(0) // kept
	expectPlans(t, db, "text 0", before, 0, 1)
	run(1) // evicted, so compiled again
	expectPlans(t, db, "text 1", before, 1, 1)
}
