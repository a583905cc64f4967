package stcpipe_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/dsdb/stcpipe"
	"repro/internal/fetch"
)

// Regenerate the golden files after an intentional formatting change:
//
//	go test ./dsdb/stcpipe -run 'TestReportGolden|TestLayoutAddrsGolden' -update
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenReport builds one shared Report for all golden checks — the
// expensive part (databases + traces) runs once. The tiny SF and
// fixed seed make every table deterministic.
var goldenReport = sync.OnceValues(func() (*stcpipe.Report, error) {
	train, test, err := stcpipe.PaperTraces(0.0005, 42)
	if err != nil {
		return nil, err
	}
	return stcpipe.ReportOf(train, test), nil
})

// TestReportGolden pins the paper-table formatting: each Report
// accessor's output must match its golden file byte for byte, so the
// table layout the README and EXPERIMENTS commentary rely on cannot
// drift silently.
func TestReportGolden(t *testing.T) {
	r, err := goldenReport()
	if err != nil {
		t.Fatalf("PaperTraces: %v", err)
	}
	sections := []struct {
		name   string
		render func() string
	}{
		{"trace_summary", r.TraceSummary},
		{"table1", r.Table1},
		{"figure2", r.Figure2},
		{"reuse", r.Reuse},
		{"table2", r.Table2},
		{"sequentiality", r.Sequentiality},
		{"table3", r.Table3},
		{"table4", r.Table4},
		{"ablation", r.Ablation},
	}
	// The sections render concurrently: a Report's accessors share its
	// layouts and simulation results.
	for _, s := range sections {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, s.name, s.render())
		})
	}
}

// TestTable4NamesTheMissPenalty: Table 4's header states the miss
// penalty the simulations charge, fetch.MissCycles, not a figure of its
// own.
func TestTable4NamesTheMissPenalty(t *testing.T) {
	r, err := goldenReport()
	if err != nil {
		t.Fatalf("PaperTraces: %v", err)
	}
	head, _, _ := strings.Cut(r.Table4(), "\n")
	if want := fmt.Sprintf("(test set, %d-cycle miss penalty)", fetch.MissCycles); !strings.HasSuffix(head, want) {
		t.Fatalf("Table 4 header %q does not end in %q", head, want)
	}
}

// TestLayoutAddrsGolden pins where every layout puts every block, for
// each configuration the report lays out: a refactor of a mapper must
// leave this file unchanged, and a change of policy lists exactly the
// layouts it moved.
func TestLayoutAddrsGolden(t *testing.T) {
	r, err := goldenReport()
	if err != nil {
		t.Fatalf("PaperTraces: %v", err)
	}
	checkGolden(t, "layout_addrs", r.LayoutAddrs())
}

// TestPaperTracesKeepSeedZero: seed 0 is a generator seed like any
// other, not a request for the default 42 (experiments -seed 0 once
// printed seed 42's traces).
func TestPaperTracesKeepSeedZero(t *testing.T) {
	r42, err := goldenReport()
	if err != nil {
		t.Fatalf("PaperTraces: %v", err)
	}
	train, test, err := stcpipe.PaperTraces(0.0005, 0)
	if err != nil {
		t.Fatalf("PaperTraces(seed 0): %v", err)
	}
	if got := stcpipe.ReportOf(train, test).TraceSummary(); got == r42.TraceSummary() {
		t.Fatalf("seed 0 recorded seed 42's traces: %s", got)
	}
}

// checkGolden compares got with testdata/<name>.golden byte for byte,
// or rewrites the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from %s\n--- got ---\n%s\n--- want ---\n%s", name, path, got, want)
	}
}
