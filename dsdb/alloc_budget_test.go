package dsdb_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/dsdb"
)

// allocBudgetSlack is how far a query's allocation count or bytes may
// exceed its golden before the test fails. Both repeat to within a few
// objects (pooled spans, map growth), so 5% is room for noise on the
// small queries and far below any real per-row regression.
const allocBudgetSlack = 1.05

// allocBudgetStale is how far below its golden a query may come in: a
// change that removes more than a tenth of a query's allocations or
// bytes has to regenerate the budget, or the win it made is slack the
// next regression can hide in.
const allocBudgetStale = 0.90

// TestQueryAllocBudget pins heap allocations and allocated bytes per
// TPC-D query — the executor's tuple path is meant to allocate per
// retained row (a slab chunk per ~64, string bytes in doubling chunks,
// one exact-size row index per sort) and per result row handed out
// (Rows.Values), never per row passed up the plan nor per decoded
// string (a view of the pinned page); a sort keeps only the columns
// the plan above it reads, which is what the bytes hold to. Unlike a
// latency, both are figures CI can gate on. Each query runs
// single-session at SF 0.01 (the scale of bench/'s tpcd_served
// workload), compiled, executed and materialized. The golden has one
// line per query: name, allocations, bytes. After an intentional
// change regenerate the budget with
//
//	go test ./dsdb -run TestQueryAllocBudget -update
func TestQueryAllocBudget(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.01), dsdb.WithSeed(42))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	path := filepath.Join("testdata", "alloc_budget.golden")
	type cost struct{ allocs, bytes float64 }
	budget := map[string]cost{}
	if !*update {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden (regenerate with -update): %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var name string
			var c cost
			if _, err := fmt.Sscanf(line, "%s %f %f", &name, &c.allocs, &c.bytes); err != nil {
				t.Fatalf("bad golden line %q (want: name allocs bytes): %v", line, err)
			}
			budget[name] = c
		}
	}
	var golden strings.Builder
	for _, qn := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(qn)
		name := fmt.Sprintf("Q%d", qn)
		allocs, bytes := allocsPerRun(func() {
			if _, err := db.Exec(context.Background(), q); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		fmt.Fprintf(&golden, "%s %d %d\n", name, allocs, bytes)
		if *update {
			continue
		}
		want, ok := budget[name]
		if !ok {
			t.Errorf("%s: no budget in %s (regenerate with -update)", name, path)
			continue
		}
		for _, m := range []struct {
			what      string
			got, want float64
		}{{"allocations", float64(allocs), want.allocs}, {"bytes", float64(bytes), want.bytes}} {
			if m.got > m.want*allocBudgetSlack {
				t.Errorf("%s: %.0f %s, budget %.0f (+%.0f%% slack): the tuple path allocates more than it did",
					name, m.got, m.what, m.want, 100*(allocBudgetSlack-1))
			}
			if m.got < m.want*allocBudgetStale {
				t.Errorf("%s: %.0f %s, budget %.0f: stale budget, rerun with -update to lock the win in",
					name, m.got, m.what, m.want)
			}
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun(1, f) that also reports the
// bytes allocated: one warm-up call (which also warms the buffer pool),
// then the heap counters around a second call on one P.
func allocsPerRun(f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
