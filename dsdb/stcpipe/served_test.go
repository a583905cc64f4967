package stcpipe_test

import (
	"testing"

	"repro/dsdb"
	"repro/dsdb/stcpipe"
)

// TestProfileServedDeterministic is the acceptance check for the
// served scenario: two Served profiles with the same database
// options, seed and query mix must produce identical trace summaries
// — same event and instruction counts, same footprint, and the same
// fetch-simulation results under a layout trained on the first run.
func TestProfileServedDeterministic(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005), dsdb.WithSeed(42))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	pipe := stcpipe.New(stcpipe.Validate())
	w, err := stcpipe.TPCD("served", 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 3

	pr1, err := pipe.Profile(db, stcpipe.Served(w, sessions))
	if err != nil {
		t.Fatalf("Served #1: %v", err)
	}
	if pr1.Events() == 0 || pr1.Instrs() == 0 {
		t.Fatalf("empty served trace: %d events, %d instrs", pr1.Events(), pr1.Instrs())
	}
	pr2, err := pipe.Profile(db, stcpipe.Served(w, sessions))
	if err != nil {
		t.Fatalf("Served #2: %v", err)
	}
	if pr1.Events() != pr2.Events() || pr1.Instrs() != pr2.Instrs() {
		t.Fatalf("served profile not deterministic: run1 %d events/%d instrs, run2 %d events/%d instrs",
			pr1.Events(), pr1.Instrs(), pr2.Events(), pr2.Instrs())
	}
	if fp1, fp2 := pr1.Footprint(), pr2.Footprint(); fp1 != fp2 {
		t.Fatalf("served footprints differ: %+v vs %+v", fp1, fp2)
	}

	// Layouts train on the served profile and simulate like any other —
	// and the full trace replay must agree between the two runs.
	lay, err := pr1.Layout(stcpipe.STCOps(stcpipe.Params{}))
	if err != nil {
		t.Fatalf("Layout over served profile: %v", err)
	}
	fc := stcpipe.FetchConfig{CacheBytes: 4096}
	res1, err := pr1.Simulate(lay, fc)
	if err != nil {
		t.Fatalf("Simulate #1: %v", err)
	}
	res2, err := pr2.Simulate(lay, fc)
	if err != nil {
		t.Fatalf("Simulate #2: %v", err)
	}
	if res1 != res2 {
		t.Fatalf("served traces replay differently:\nrun1 %+v\nrun2 %+v", res1, res2)
	}
	if res1.IPC() <= 0 {
		t.Fatalf("implausible IPC %v", res1.IPC())
	}
}

// TestProfileServedScalesWithSessions checks the interleaved served
// trace carries roughly sessions× one serial run of the same workload
// on the same (warm) database.
func TestProfileServedScalesWithSessions(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005), dsdb.WithSeed(42))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	pipe := stcpipe.New(stcpipe.Validate())
	w, err := stcpipe.TPCD("served", 6)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 3
	pr, err := pipe.Profile(db, stcpipe.Served(w, sessions))
	if err != nil {
		t.Fatalf("Served: %v", err)
	}
	serial, err := pipe.Profile(db, w)
	if err != nil {
		t.Fatalf("serial Profile: %v", err)
	}
	lo := uint64(float64(serial.Instrs()) * 2.5)
	hi := uint64(float64(serial.Instrs()) * 3.5)
	if pr.Instrs() < lo || pr.Instrs() > hi {
		t.Fatalf("served trace has %d instrs, want within [%d, %d] (~%d× serial %d)",
			pr.Instrs(), lo, hi, sessions, serial.Instrs())
	}

	// Immutable, like Concurrent's merge.
	if err := pr.Run(db, w); err == nil {
		t.Fatal("Run on a served profile must error")
	}
}

// TestProfileServedValidatesArgs covers the argument errors.
func TestProfileServedValidatesArgs(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	pipe := stcpipe.New()
	if _, err := pipe.Profile(db, stcpipe.Served(stcpipe.Training(), 0)); err == nil {
		t.Fatal("0 sessions must error")
	}
	if _, err := pipe.Profile(db, stcpipe.Served(stcpipe.Workload{Name: "empty"}, 2)); err == nil {
		t.Fatal("empty workload must error")
	}
}
