package stcpipe_test

import (
	"testing"
	"time"

	"repro/dsdb"
	"repro/dsdb/stcpipe"
	"repro/dsdb/wcap"
)

// captureFor builds the wcap records a server running workload w over
// `sessions` closed-loop wire clients would capture: session ids from
// 1 in accept order, each session running the whole mix in order.
func captureFor(w stcpipe.Workload, sessions int) []wcap.Record {
	var recs []wcap.Record
	for s := 1; s <= sessions; s++ {
		for qi, q := range w.Queries {
			recs = append(recs, wcap.Record{
				Offset:  time.Duration(qi) * time.Millisecond,
				Session: uint32(s),
				Label:   w.Labels[qi],
				SQL:     q,
				Err:     wcap.OK,
			})
		}
	}
	return recs
}

// TestProfileReplayedMatchesServed is the loop-closing check: a
// capture describing the exact traffic a Served source drives (same
// sessions, same per-session query order) must profile to the same
// instruction trace — the captured workload is a faithful stand-in
// for the served one.
func TestProfileReplayedMatchesServed(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005), dsdb.WithSeed(42))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	w, err := stcpipe.TPCD("served", 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 3
	pipe := stcpipe.New(stcpipe.Validate())
	served, err := pipe.Profile(db, stcpipe.Served(w, sessions))
	if err != nil {
		t.Fatalf("Served: %v", err)
	}
	replayed, err := pipe.Profile(db, stcpipe.Replayed(captureFor(w, sessions)))
	if err != nil {
		t.Fatalf("Replayed: %v", err)
	}
	if served.Events() != replayed.Events() || served.Instrs() != replayed.Instrs() {
		t.Fatalf("replayed profile differs from served: served %d events/%d instrs, replayed %d events/%d instrs",
			served.Events(), served.Instrs(), replayed.Events(), replayed.Instrs())
	}
	if fs, fr := served.Footprint(), replayed.Footprint(); fs != fr {
		t.Fatalf("footprints differ: served %+v, replayed %+v", fs, fr)
	}

	// And the replayed profile is a first-class pipeline citizen:
	// layouts train on it and simulate against it.
	lay, err := replayed.Layout(stcpipe.STCOps(stcpipe.Params{}))
	if err != nil {
		t.Fatalf("Layout over replayed profile: %v", err)
	}
	res, err := replayed.Simulate(lay, stcpipe.FetchConfig{CacheBytes: 4096})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.IPC() <= 0 {
		t.Fatalf("implausible IPC %v", res.IPC())
	}
}

// TestProfileReplayedFiltersAndRagged covers the capture shapes a
// real server produces: errored records and SHOW introspection are
// skipped, and sessions with unequal query counts interleave without
// error.
func TestProfileReplayedFiltersAndRagged(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005), dsdb.WithSeed(42))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	w, err := stcpipe.TPCD("rag", 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	recs := captureFor(w, 2)
	// Session 2 only ran the first query: drop its tail (ragged).
	recs = recs[:len(recs)-1]
	// Noise a real capture carries: a failed query and SHOW traffic.
	recs = append(recs,
		wcap.Record{Session: 3, Label: "bad", SQL: "select bogus", Err: wcap.ErrQuery},
		wcap.Record{Session: 3, Label: "mon", SQL: "show stats", Err: wcap.OK},
	)
	pipe := stcpipe.New(stcpipe.Validate())
	pr, err := pipe.Profile(db, stcpipe.Replayed(recs))
	if err != nil {
		t.Fatalf("Replayed: %v", err)
	}
	if pr.Events() == 0 || pr.Instrs() == 0 {
		t.Fatalf("empty replayed trace: %d events, %d instrs", pr.Events(), pr.Instrs())
	}
	// Immutable, like every merged multi-session profile.
	if err := pr.Run(db, w); err == nil {
		t.Fatal("Run on a replayed profile must error")
	}

	// A capture with nothing replayable errors loudly.
	if _, err := pipe.Profile(db, stcpipe.Replayed([]wcap.Record{
		{Session: 1, SQL: "show stats"},
		{Session: 1, SQL: "select 1", Err: wcap.ErrQuery},
	})); err == nil {
		t.Fatal("all-skipped capture must error")
	}
	if _, err := pipe.Profile(db, stcpipe.Replayed(nil)); err == nil {
		t.Fatal("empty capture must error")
	}
}
