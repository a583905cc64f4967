package stcpipe

import (
	"strings"
	"testing"

	"repro/dsdb"
)

// TestProfileCachedCollapsesRepeats is the cached-profile acceptance
// check: with a result cache, round 1 of the workload executes and
// records a normal trace, and every later round is served from the
// cache — zero block events, zero instructions, nothing for the fetch
// unit to do. The instruction stream of a repeat-heavy DSS mix
// collapses to its first pass.
func TestProfileCachedCollapsesRepeats(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005), dsdb.WithResultCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pipe := New(Validate())
	w, err := TPCD("mix", 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	pr, err := pipe.Profile(db, Cached(w, rounds))
	if err != nil {
		t.Fatal(err)
	}
	marks := pr.MarkStats()
	if len(marks) != rounds*len(w.Queries) {
		t.Fatalf("got %d marks, want %d", len(marks), rounds*len(w.Queries))
	}
	var fill, repeat uint64
	for _, m := range marks {
		switch {
		case strings.HasPrefix(m.Label, "r1-"):
			if m.Blocks == 0 || m.Instrs == 0 {
				t.Fatalf("fill-round mark %s recorded nothing", m.Label)
			}
			fill += m.Instrs
		default:
			if m.Blocks != 0 || m.Instrs != 0 {
				t.Fatalf("repeat mark %s recorded %d blocks / %d instrs, want 0 (hit must emit no kernel trace)",
					m.Label, m.Blocks, m.Instrs)
			}
			repeat += m.Instrs
		}
	}
	if pr.Instrs() != fill+repeat || repeat != 0 {
		t.Fatalf("trace totals inconsistent: profile %d, fill %d, repeat %d", pr.Instrs(), fill, repeat)
	}
	st, ok := db.ResultCacheStats()
	if !ok || st.Hits != uint64((rounds-1)*len(w.Queries)) {
		t.Fatalf("cache stats = %+v (ok=%v), want %d hits", st, ok, (rounds-1)*len(w.Queries))
	}

	// The cached profile stays a first-class pipeline citizen: it can
	// train a layout and be simulated.
	lay, err := pr.Layout(STCOps(Params{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pr.Simulate(lay, FetchConfig{CacheBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC() <= 0 {
		t.Fatalf("degenerate simulation: %+v", res)
	}
}

// TestProfileCachedRejectsMisuse pins the guard rails: no cache, or
// fewer than two rounds, is an error.
func TestProfileCachedRejectsMisuse(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pipe := New()
	if _, err := pipe.Profile(db, Cached(Training(), 2)); err == nil {
		t.Fatal("Cached accepted a cache-less database")
	}
	cdb, err := dsdb.Open(dsdb.WithTPCD(0.0005), dsdb.WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer cdb.Close()
	if _, err := pipe.Profile(cdb, Cached(Training(), 1)); err == nil {
		t.Fatal("Cached accepted rounds < 2")
	}
	if _, err := pipe.Profile(cdb, Cached(Workload{Name: "empty"}, 2)); err == nil {
		t.Fatal("Cached accepted an empty workload")
	}
}
