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
	got.WriteString(digest("concurrent-3", must(pipe.ProfileConcurrent(open(), 3, stcpipe.Training()))))
	got.WriteString(digest("served-3", must(pipe.ProfileServed(open(), 3, stcpipe.Training()))))
	got.WriteString(digest("cached-2", must(pipe.ProfileCached(open(dsdb.WithResultCache(64<<20)), mix, 2))))
	got.WriteString(digest("replayed", must(pipe.ProfileReplayed(open(), capture))))
	checkGolden(t, "profile_sources", got.String())
}
