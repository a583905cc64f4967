package stcpipe

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/dsdb"
	"repro/internal/kernel"
	"repro/internal/profile/profiletest"
	"repro/internal/trace"
)

// sumCounts adds up the probe-pair counts of a profile's sessions.
func sumCounts(pr *Profile) *kernel.Counts {
	var sum kernel.Counts
	for _, c := range pr.counts {
		for from := range c {
			for to, n := range &c[from] {
				sum[from][to] += n
			}
		}
	}
	return &sum
}

// sameRecording fails the test unless got and want hold the same
// trace — events, marks, instruction count — the same summed counts
// and the same assembled profile, and got's trace keeps no growth
// slack.
func sameRecording(t *testing.T, name string, got, want *Profile) {
	t.Helper()
	g, w := got.tr, want.tr
	if g.Instrs != w.Instrs || !slices.Equal(g.Blocks, w.Blocks) || !slices.Equal(g.Marks, w.Marks) {
		t.Fatalf("%s: %d events / %d instrs / %d marks, the serial run %d / %d / %d (or contents differ)",
			name, g.Len(), g.Instrs, len(g.Marks), w.Len(), w.Instrs, len(w.Marks))
	}
	if *sumCounts(got) != *sumCounts(want) {
		t.Fatalf("%s: the sessions' probe-pair counts differ from the serial run's", name)
	}
	if d := profiletest.Diff(got.profileData(), want.profileData()); d != "" {
		t.Fatalf("%s: assembled profile differs from the serial run's: %s", name, d)
	}
	if slack := cap(g.Blocks) - g.Len(); slack >= trace.PathWidth {
		t.Fatalf("%s: the trace keeps %d events of growth slack", name, slack)
	}
}

// TestSplitRecordingEqualsSerial: on a resident database without a
// result cache, Profile records a Workload on one session per core, and
// the paper's sets recorded on one session and on several (more than
// the cores, too) give the same trace, counts and profile — the
// training and test sets on the B-tree and the hash database, and the
// B-tree test set extended by Run over the hash database.
func TestSplitRecordingEqualsSerial(t *testing.T) {
	open := func(opts ...dsdb.Option) *dsdb.DB {
		t.Helper()
		db, err := dsdb.Open(append([]dsdb.Option{dsdb.WithTPCD(0.001), dsdb.WithSeed(42)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	bt, hs := open(), open(dsdb.WithIndexKind(dsdb.Hash))
	if !bt.PoolResident() || !hs.PoolResident() {
		t.Fatal("a freshly loaded database at SF 0.001 is not resident in its pool")
	}
	for _, validate := range []bool{false, true} {
		p := New()
		if validate {
			p = New(Validate())
		}
		record := func(db *dsdb.DB, w Workload, base *Profile, n int) *Profile {
			t.Helper()
			pr, err := p.profileSplit(db, w, base, n)
			if err != nil {
				t.Fatal(err)
			}
			return pr
		}
		for _, c := range []struct {
			name string
			db   *dsdb.DB
			w    Workload
		}{
			{"train/btree", bt, Training()},
			{"train/hash", hs, Training()},
			{"test/btree", bt, Test()},
			{"test/hash", hs, Test()},
		} {
			serial := record(c.db, c.w, nil, 1)
			for _, n := range []int{2, 3} {
				sameRecording(t, c.name, record(c.db, c.w, nil, n), serial)
			}
			pr, err := p.Profile(c.db, c.w)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(runtime.GOMAXPROCS(0), len(c.w.Queries)); len(pr.counts) != want {
				t.Fatalf("%s: Profile recorded on %d sessions, want %d", c.name, len(pr.counts), want)
			}
			sameRecording(t, c.name+" (Profile)", pr, serial)
		}
		serial := record(hs, Test(), record(bt, Test(), nil, 1), 1)
		sameRecording(t, "test/btree+hash", record(hs, Test(), record(bt, Test(), nil, 3), 2), serial)
		pr, err := p.Profile(bt, Test())
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.Run(hs, Test()); err != nil {
			t.Fatal(err)
		}
		sameRecording(t, "test/btree+hash (Profile + Run)", pr, serial)
	}
}

// serialReference records w on db the plain way: one kernel session
// marking and running each query in order.
func serialReference(t *testing.T, p *Pipeline, db *dsdb.DB, w Workload) *Profile {
	t.Helper()
	tr := trace.New(p.img.Prog)
	s := p.img.NewSession(trace.NewRecorder(tr, p.validate))
	for i, q := range w.Queries {
		s.Mark(w.Labels[i])
		if err := drain(db.QueryObserved(context.Background(), s, "", q)); err != nil {
			t.Fatal(err)
		}
	}
	return &Profile{pipe: p, tr: tr, counts: []*kernel.Counts{s.Counts()}}
}

// TestMissableDatabaseRecordsSerially: where one query can change what
// another's trace reads — a pool smaller than the data, or a result
// cache — Profile records a Workload on one session, and the profile
// equals the plain serial run's on an identical database. Forcing
// several sessions on the small pool is an error: their counts show
// buffer misses.
func TestMissableDatabaseRecordsSerially(t *testing.T) {
	repeats, err := TPCD("rep", 6, 3, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opt  dsdb.Option
		w    Workload
	}{
		{"64-frame pool", dsdb.WithBufferFrames(64), Training()},
		{"result cache", dsdb.WithResultCache(64 << 20), repeats},
	} {
		// Two identical databases: the first recording changes the
		// pool's (or the cache's) state that the second one reads.
		var dbs [2]*dsdb.DB
		for i := range dbs {
			db, err := dsdb.Open(dsdb.WithTPCD(0.002), dsdb.WithSeed(42), c.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			dbs[i] = db
		}
		p := New()
		pr, err := p.Profile(dbs[0], c.w)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(pr.counts) != 1 {
			t.Fatalf("%s: Profile recorded on %d sessions, want 1", c.name, len(pr.counts))
		}
		sameRecording(t, c.name, pr, serialReference(t, p, dbs[1], c.w))
	}

	small, err := dsdb.Open(dsdb.WithTPCD(0.002), dsdb.WithSeed(42), dsdb.WithBufferFrames(64))
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if small.PoolResident() {
		t.Fatal("a 64-frame pool holds the SF 0.002 database")
	}
	if _, err := New().profileSplit(small, Training(), nil, 2); err == nil || !strings.Contains(err.Error(), "buffer misses") {
		t.Fatalf("two sessions on a 64-frame pool: err = %v, want the buffer misses named", err)
	}
}
