package stcpipe_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/dsdb"
	"repro/dsdb/stcpipe"
	"repro/dsdb/wcap"
)

// digest renders what a profile recorded: sizes, an FNV-64a of the
// block stream and the mark labels in trace order.
func digest(name string, pr *stcpipe.Profile) string {
	marks := pr.MarkStats()
	labels := make([]string, len(marks))
	for i, m := range marks {
		labels[i] = m.Label
	}
	return fmt.Sprintf("%s: events=%d instrs=%d marks=%d blocks-fnv64a=%016x\n  %s\n",
		name, pr.Events(), pr.Instrs(), len(marks), pr.BlockHash(), strings.Join(labels, " "))
}

// TestProfileSourcesGolden records one profile per kind of source at
// SF 0.0005 / seed 42, each over freshly opened databases, and compares
// what was recorded with testdata/profile_sources.golden. That file
// was written by the commit before the recorders were folded into one
// Profile(db, source): it pins what each of them records, and -update
// should rewrite it only when a recorder is meant to record something
// else.
func TestProfileSourcesGolden(t *testing.T) {
	open := func(opts ...dsdb.Option) *dsdb.DB {
		t.Helper()
		db, err := dsdb.Open(append([]dsdb.Option{dsdb.WithTPCD(0.0005), dsdb.WithSeed(42)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	must := func(pr *stcpipe.Profile, err error) *stcpipe.Profile {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	mix, err := stcpipe.TPCD("mix", 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	// A capture as a server writes it: two sessions, the second one
	// query short, a failed query and SHOW traffic in between, records
	// out of offset order.
	capture := []wcap.Record{
		{Offset: 2 * time.Millisecond, Session: 7, Label: mix.Labels[1], SQL: mix.Queries[1]},
		{Offset: 1 * time.Millisecond, Session: 7, Label: mix.Labels[0], SQL: mix.Queries[0]},
		{Offset: 1 * time.Millisecond, Session: 9, SQL: mix.Queries[1]},
		{Offset: 2 * time.Millisecond, Session: 9, Label: "bad", SQL: "select bogus", Err: wcap.ErrQuery},
		{Offset: 3 * time.Millisecond, Session: 4, Label: "mon", SQL: "show stats"},
	}

	pipe := stcpipe.New(stcpipe.Validate())
	var got strings.Builder
	bt := open()
	got.WriteString(digest("local-train", must(pipe.Profile(bt, stcpipe.Training()))))
	test := must(pipe.Profile(bt, stcpipe.Test()))
	if err := test.Run(open(dsdb.WithIndexKind(dsdb.Hash)), stcpipe.Test()); err != nil {
		t.Fatal(err)
	}
	got.WriteString(digest("local-test+hash", test))
	got.WriteString(digest("concurrent-3", must(pipe.Profile(open(), stcpipe.Concurrent(stcpipe.Training(), 3)))))
	got.WriteString(digest("served-3", must(pipe.Profile(open(), stcpipe.Served(stcpipe.Training(), 3)))))
	got.WriteString(digest("cached-2", must(pipe.Profile(open(dsdb.WithResultCache(64<<20)), stcpipe.Cached(mix, 2)))))
	got.WriteString(digest("replayed", must(pipe.Profile(open(), stcpipe.Replayed(capture)))))
	checkGolden(t, "profile_sources", got.String())
}

// TestOneSessionSourcesRecordTheWorkload: every source goes through
// one recording loop, so a single session of the workload — as a
// goroutine, as a wire client, or replayed from a capture of it —
// records exactly the blocks the Workload itself does. Only the mark
// labels tell the profiles apart.
func TestOneSessionSourcesRecordTheWorkload(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005), dsdb.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	w, err := stcpipe.TPCD("w", 3, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	pipe := stcpipe.New(stcpipe.Validate())
	want, err := pipe.Profile(db, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  stcpipe.Source
	}{
		{"Concurrent", stcpipe.Concurrent(w, 1)},
		{"Served", stcpipe.Served(w, 1)},
		{"Replayed", stcpipe.Replayed(captureFor(w, 1))},
	} {
		got, err := pipe.Profile(db, tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Events() != want.Events() || got.Instrs() != want.Instrs() || got.BlockHash() != want.BlockHash() {
			t.Errorf("%s recorded %d events / %d instrs / blocks %016x, the workload %d / %d / %016x",
				tc.name, got.Events(), got.Instrs(), got.BlockHash(), want.Events(), want.Instrs(), want.BlockHash())
		}
		if err := got.Run(db, w); err == nil {
			t.Errorf("%s: Run extended a profile not recorded from a Workload", tc.name)
		}
	}
}
