package dsdb_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/dsdb"
)

// allocBudgetSlack is how far a query's allocation count may exceed
// its golden before the test fails. The counts repeat to within a few
// objects (pooled spans, map growth), so 5% is room for noise on the
// small queries and far below any real per-row regression.
const allocBudgetSlack = 1.05

// allocBudgetStale is how far below its golden a query may come in: a
// change that removes more than a tenth of a query's allocations has
// to regenerate the budget, or the win it made is slack the next
// regression can hide in.
const allocBudgetStale = 0.90

// TestQueryAllocBudget pins heap allocations per TPC-D query — the
// executor's tuple path is meant to allocate per retained row (a slab
// chunk per ~64, string bytes in doubling chunks) and per result row
// handed out (Rows.Values), never per row passed up the plan nor per
// decoded string (a view of the pinned page), and unlike a latency
// that is a count CI can gate on. Each query runs single-session at SF 0.01 (the scale of
// bench/'s tpcd_served workload), compiled, executed and materialized.
// After an intentional change regenerate the budget with
//
//	go test ./dsdb -run TestQueryAllocBudget -update
func TestQueryAllocBudget(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.01), dsdb.WithSeed(42))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	path := filepath.Join("testdata", "alloc_budget.golden")
	budget := map[string]float64{}
	if !*update {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden (regenerate with -update): %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var name string
			var n float64
			if _, err := fmt.Sscanf(line, "%s %f", &name, &n); err != nil {
				t.Fatalf("bad golden line %q: %v", line, err)
			}
			budget[name] = n
		}
	}
	var golden strings.Builder
	for _, qn := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(qn)
		name := fmt.Sprintf("Q%d", qn)
		// AllocsPerRun's warm-up run also warms the buffer pool.
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := db.Exec(context.Background(), q); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		fmt.Fprintf(&golden, "%s %.0f\n", name, allocs)
		if *update {
			continue
		}
		want, ok := budget[name]
		if !ok {
			t.Errorf("%s: no budget in %s (regenerate with -update)", name, path)
			continue
		}
		if allocs > want*allocBudgetSlack {
			t.Errorf("%s: %.0f allocations, budget %.0f (+%.0f%% slack): the tuple path allocates more than it did",
				name, allocs, want, 100*(allocBudgetSlack-1))
		}
		if allocs < want*allocBudgetStale {
			t.Errorf("%s: %.0f allocations, budget %.0f: stale budget, rerun with -update to lock the win in",
				name, allocs, want)
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
