package stcpipe

import (
	"testing"

	"repro/dsdb"
	"repro/dsdb/wcap"
	"repro/internal/profile/profiletest"
)

// TestAssembledProfileEqualsReference: the weighted CFG a profile
// assembles from its sessions' probe-pair counts is the one a walk over
// its trace counts — block and edge counts, block events and
// instructions — for every kind of source: a Workload extended by Run,
// Concurrent and Served sessions recording on their own goroutines and
// merged at their marks, a Cached run whose hits leave empty segments,
// and a Replayed capture with ragged sessions; with validation on and
// off.
func TestAssembledProfileEqualsReference(t *testing.T) {
	open := func(opts ...dsdb.Option) *dsdb.DB {
		t.Helper()
		db, err := dsdb.Open(append([]dsdb.Option{dsdb.WithTPCD(0.0005), dsdb.WithSeed(42)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	mix, err := TPCD("mix", 3, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	capture := []wcap.Record{
		{Session: 7, Label: mix.Labels[0], SQL: mix.Queries[0]},
		{Session: 7, Label: mix.Labels[1], SQL: mix.Queries[1]},
		{Session: 9, Label: mix.Labels[2], SQL: mix.Queries[2]},
	}
	bt, hs := open(), open(dsdb.WithIndexKind(dsdb.Hash))
	for _, validate := range []bool{false, true} {
		pipe := New()
		if validate {
			pipe = New(Validate())
		}
		check := func(name string, pr *Profile, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d := profiletest.Diff(pr.profileData(), profiletest.FromTrace(pr.tr)); d != "" {
				t.Errorf("%s (validate %v): %s", name, validate, d)
			}
		}
		w, err := pipe.Profile(bt, Training())
		check("Workload", w, err)
		check("Workload + Run", w, w.Run(hs, mix))
		for name, src := range map[string]Source{
			"Concurrent(3)": Concurrent(mix, 3),
			"Served(2)":     Served(mix, 2),
			"Replayed":      Replayed(capture),
		} {
			pr, err := pipe.Profile(bt, src)
			check(name, pr, err)
		}
		// A fresh cache, so the first round executes.
		pr, err := pipe.Profile(open(dsdb.WithResultCache(64<<20)), Cached(mix, 3))
		check("Cached(3)", pr, err)
		if empty := emptySegments(pr); empty != 2*len(mix.Queries) {
			t.Errorf("Cached(3) (validate %v): %d empty segments, want the %d hits'", validate, empty, 2*len(mix.Queries))
		}
	}
}

// emptySegments counts the marks of pr whose segment recorded nothing.
func emptySegments(pr *Profile) int {
	n := 0
	for _, m := range pr.MarkStats() {
		if m.Blocks == 0 {
			n++
		}
	}
	return n
}
