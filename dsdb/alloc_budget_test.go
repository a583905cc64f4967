package dsdb_test

import (
	"context"
	"fmt"
	"math"
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
// TPC-D query, for compiling it and for running it, each gated on its
// own. A fresh compile (Prepare) parses and plans the text; a reused
// execution (Exec of a text the one-shot plan pool already holds)
// runs that plan again, which is what a repeated query costs. The
// executor's tuple path is meant to allocate per retained row — a
// sort keeps 9 bytes per value (payload and tag) in chunks of up to
// 256 rows, string bytes in doubling chunks, and a 4-byte permutation
// entry per row — and per result row handed out (Rows.Values), never
// per row passed up the plan nor per decoded string (a view of the
// pinned page or of the sort's store); a sort keeps only the columns
// the plan above it reads, which is what the bytes hold to. Unlike a
// latency, both are figures CI can gate on. Each query runs
// single-session at SF 0.01 (the scale of bench/'s tpcd_served
// workload). The golden has one line per query:
// name, then "compile" allocations and bytes, then "exec" allocations
// and bytes. After an intentional change regenerate the budget with
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
	type costs struct{ compile, exec cost }
	budget := map[string]costs{}
	if !*update {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden (regenerate with -update): %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var name string
			var c costs
			if _, err := fmt.Sscanf(line, "%s compile %f %f exec %f %f", &name,
				&c.compile.allocs, &c.compile.bytes, &c.exec.allocs, &c.exec.bytes); err != nil {
				t.Fatalf("bad golden line %q (want: name compile allocs bytes exec allocs bytes): %v", line, err)
			}
			budget[name] = c
		}
	}
	var golden strings.Builder
	for _, qn := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(qn)
		name := fmt.Sprintf("Q%d", qn)
		compileAllocs, compileBytes := allocsPerRun(func() {
			stmt, err := db.Prepare(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			stmt.Close()
		})
		before := db.PlanStats()
		execAllocs, execBytes := allocsPerRun(func() {
			if _, err := db.Exec(context.Background(), q); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		// The warm-up run compiled the text into the pool; the measured
		// ones must have run that plan again.
		if after := db.PlanStats(); after.Compiled-before.Compiled != 1 || after.Reused-before.Reused != allocRuns {
			t.Fatalf("%s: %d compiles and %d reuses over %d Execs, want 1 and %d",
				name, after.Compiled-before.Compiled, after.Reused-before.Reused, 1+allocRuns, allocRuns)
		}
		fmt.Fprintf(&golden, "%s compile %d %d exec %d %d\n", name, compileAllocs, compileBytes, execAllocs, execBytes)
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
		}{
			{"compile allocations", float64(compileAllocs), want.compile.allocs},
			{"compile bytes", float64(compileBytes), want.compile.bytes},
			{"exec allocations", float64(execAllocs), want.exec.allocs},
			{"exec bytes", float64(execBytes), want.exec.bytes},
		} {
			if m.got > m.want*allocBudgetSlack {
				t.Errorf("%s: %.0f %s, budget %.0f (+%.0f%% slack): it allocates more than it did",
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

// allocRuns is how many calls allocsPerRun measures after its warm-up.
const allocRuns = 4

// allocsPerRun reports the allocations and bytes of one call of f: one
// warm-up call (which also warms the buffer pool), then the least of
// each over allocRuns calls on one P, timed by the heap counters. The
// least, because a pooled object (an observability span) is allocated
// again whenever the pool lost it — after a GC, or at random under the
// race detector, which drops a quarter of sync.Pool puts — and no
// other call allocates less than the steady state.
func allocsPerRun(f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	allocs, bytes = math.MaxUint64, math.MaxUint64
	for range allocRuns {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}
