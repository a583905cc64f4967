package stcpipe_test

import (
	"strings"
	"testing"

	"repro/dsdb"
	"repro/dsdb/stcpipe"
)

// TestPipelineEndToEnd runs the three-call pipeline at a tiny scale
// factor with online trace validation: profile the training workload,
// build every layout algorithm, simulate each — asserting the
// algorithms produce distinct block orderings and sane fetch results.
func TestPipelineEndToEnd(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005), dsdb.WithSeed(42))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	pipe := stcpipe.New(stcpipe.Validate())
	train, err := pipe.Profile(db, stcpipe.Training())
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if train.Instrs() == 0 || train.Events() == 0 {
		t.Fatalf("empty training trace: %d events, %d instrs", train.Events(), train.Instrs())
	}
	fp := train.Footprint()
	if fp.ExecBlocks == 0 || fp.ExecBlocks > fp.TotalBlocks {
		t.Fatalf("implausible footprint: %+v", fp)
	}

	params := stcpipe.Params{CacheBytes: 2048, CFABytes: 512}
	layouts := make(map[string][]uint64)
	for _, alg := range stcpipe.Algorithms(params) {
		lay, err := train.Layout(alg)
		if err != nil {
			t.Fatalf("Layout(%s): %v", alg.Name(), err)
		}
		if lay.Name() != alg.Name() {
			t.Fatalf("layout name %q, want %q", lay.Name(), alg.Name())
		}
		layouts[alg.Name()] = lay.Addresses()

		res, err := train.Simulate(lay, stcpipe.FetchConfig{CacheBytes: 2048})
		if err != nil {
			t.Fatalf("Simulate(%s): %v", alg.Name(), err)
		}
		if res.Instrs != train.Instrs() {
			t.Fatalf("%s: simulated %d instrs, trace has %d", alg.Name(), res.Instrs, train.Instrs())
		}
		if ipc := res.IPC(); ipc <= 0 {
			t.Fatalf("%s: IPC = %v, want > 0", alg.Name(), ipc)
		}
		if seq := train.Sequentiality(lay); seq <= 0 {
			t.Fatalf("%s: sequentiality = %v, want > 0", alg.Name(), seq)
		}
	}

	// Every algorithm must order the code differently.
	names := []string{"orig", "P&H", "Torr", "auto", "ops"}
	for i, a := range names {
		for _, b := range names[i+1:] {
			if sameAddrs(layouts[a], layouts[b]) {
				t.Errorf("algorithms %s and %s produced identical orderings", a, b)
			}
		}
	}
}

// TestTraceCacheSimulation checks the trace-cache path produces hits
// on a recorded trace.
func TestTraceCacheSimulation(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	pipe := stcpipe.New()
	w, err := stcpipe.TPCD("train", 6, 3)
	if err != nil {
		t.Fatalf("TPCD: %v", err)
	}
	train, err := pipe.Profile(db, w)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	lay, err := train.Layout(stcpipe.Original())
	if err != nil {
		t.Fatalf("Layout: %v", err)
	}
	res, err := train.Simulate(lay, stcpipe.FetchConfig{CacheBytes: 2048, TraceCacheEntries: 64})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.TCHits == 0 {
		t.Fatal("trace cache recorded no hits on a repetitive DBMS trace")
	}
}

// q6Profile records Q6 on a tiny database and lays it out in the
// original order: the smallest profile a simulation can run over.
func q6Profile(t *testing.T) (*stcpipe.Profile, *stcpipe.Layout) {
	t.Helper()
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	w, err := stcpipe.TPCD("w", 6)
	if err != nil {
		t.Fatalf("TPCD: %v", err)
	}
	pr, err := stcpipe.New().Profile(db, w)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	lay, err := pr.Layout(stcpipe.Original())
	if err != nil {
		t.Fatalf("Layout: %v", err)
	}
	return pr, lay
}

// TestSimulateRejectsBadFetchConfig: a FetchConfig is flag input
// (examples/layoutcompare -cache, examples/tracecache -entries), and
// one the cache models cannot be built from used to panic with "cache:
// bad geometry". It is an error naming the field, and every shape the
// paper and the tree use still simulates.
func TestSimulateRejectsBadFetchConfig(t *testing.T) {
	pr, lay := q6Profile(t)
	for _, tc := range []struct {
		name  string
		fc    stcpipe.FetchConfig
		field string // "" = must simulate
	}{
		{"not a multiple of the line", stcpipe.FetchConfig{CacheBytes: 1000}, "CacheBytes"},
		{"not a multiple of line x ways", stcpipe.FetchConfig{CacheBytes: 2048, Ways: 3}, "CacheBytes"},
		{"48 sets (-cache 3)", stcpipe.FetchConfig{CacheBytes: 3 * 1024}, "CacheBytes"},
		{"48 sets behind a victim buffer", stcpipe.FetchConfig{CacheBytes: 3 * 1024, VictimEntries: 16}, "CacheBytes"},
		{"3 sets of 2 ways", stcpipe.FetchConfig{CacheBytes: 3 * 2 * 64, Ways: 2}, "CacheBytes"},
		{"100 trace-cache entries", stcpipe.FetchConfig{CacheBytes: 2048, TraceCacheEntries: 100}, "TraceCacheEntries"},
		// Negative sizes used to pass and mean "no such structure": a
		// perfect cache, no trace cache, no victim buffer, direct-mapped.
		{"negative cache", stcpipe.FetchConfig{CacheBytes: -2048}, "CacheBytes"},
		{"negative cache + trace cache", stcpipe.FetchConfig{CacheBytes: -2048, TraceCacheEntries: 64}, "CacheBytes"},
		{"negative trace cache", stcpipe.FetchConfig{CacheBytes: 2048, TraceCacheEntries: -64}, "TraceCacheEntries"},
		{"negative victim buffer", stcpipe.FetchConfig{CacheBytes: 2048, VictimEntries: -16}, "VictimEntries"},
		{"negative Ways", stcpipe.FetchConfig{CacheBytes: 2048, Ways: -2}, "Ways"},
		{"negative Ways, ideal cache", stcpipe.FetchConfig{Ways: -1}, "Ways"},
		// Fields the caches would not use: they used to be dropped.
		{"Ways beside a victim buffer", stcpipe.FetchConfig{CacheBytes: 2048, VictimEntries: 16, Ways: 3}, "Ways"},
		{"Ways, ideal cache", stcpipe.FetchConfig{Ways: 2}, "Ways"},
		{"victim buffer, ideal cache", stcpipe.FetchConfig{VictimEntries: 16}, "VictimEntries"},

		{"zero value", stcpipe.FetchConfig{}, ""},
		{"2KB direct", stcpipe.FetchConfig{CacheBytes: 2048}, ""},
		{"2KB + trace cache", stcpipe.FetchConfig{CacheBytes: 2048, TraceCacheEntries: 64}, ""},
		{"2-way", stcpipe.FetchConfig{CacheBytes: 4096, Ways: 2}, ""},
		{"3 ways of 16 sets", stcpipe.FetchConfig{CacheBytes: 3 * 1024, Ways: 3}, ""},
		{"victim", stcpipe.FetchConfig{CacheBytes: 2048, VictimEntries: 16}, ""},
		{"victim behind one way", stcpipe.FetchConfig{CacheBytes: 2048, VictimEntries: 16, Ways: 1}, ""},
		{"1 way, ideal cache", stcpipe.FetchConfig{Ways: 1}, ""},
	} {
		res, err := pr.Simulate(lay, tc.fc)
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.field == "" && res.Instrs != pr.Instrs():
			t.Errorf("%s: simulated %d instrs of %d", tc.name, res.Instrs, pr.Instrs())
		case tc.field != "" && err == nil:
			t.Errorf("%s: no error", tc.name)
		case tc.field != "" && !strings.Contains(err.Error(), "FetchConfig."+tc.field):
			t.Errorf("%s: error %q does not name FetchConfig.%s", tc.name, err, tc.field)
		}
	}
}

// TestCompareRejectsBadCacheSize is examples/layoutcompare -cache 3:
// 3 KB of 64-byte lines is 48 sets. SimulateGrid checks every cell
// before it simulates any, and its error names the cell and the
// FetchConfig field.
func TestCompareRejectsBadCacheSize(t *testing.T) {
	pr, lay := q6Profile(t)
	res, err := stcpipe.SimulateGrid([]stcpipe.Cell{
		{Test: pr, Layout: lay, Fetch: stcpipe.FetchConfig{CacheBytes: 2 * 1024}},
		{Test: pr, Layout: lay, Fetch: stcpipe.FetchConfig{CacheBytes: 3 * 1024}},
	})
	if err == nil || !strings.Contains(err.Error(), "cell 1: FetchConfig.CacheBytes 3072") || res != nil {
		t.Fatalf("grid with a 3KB cache in cell 1: results %v, err = %v, want none and an error naming cell 1's FetchConfig.CacheBytes", res, err)
	}
}

// TestLayoutRejectsUnmappableParams: Params is flag input too
// (examples/layoutcompare -cache, -cfa), and a geometry the CFA
// mappers cannot honour used to come back as a layout with two blocks
// at one address and a nil error. It is an error naming the field, or,
// for a block too large for the area outside the CFA, the overlap the
// layout would have had.
func TestLayoutRejectsUnmappableParams(t *testing.T) {
	pr, _ := q6Profile(t)
	for _, tc := range []struct {
		name string
		p    stcpipe.Params
		want string // "" = must lay out
	}{
		{"negative CFA", stcpipe.Params{CacheBytes: 1024, CFABytes: -1}, "Params.CFABytes -1 is negative"},
		{"negative cache", stcpipe.Params{CacheBytes: -4096}, "Params.CacheBytes -4096 is negative"},
		{"CFA fills the cache", stcpipe.Params{CacheBytes: 2048, CFABytes: 2048}, "Params.CFABytes 2048"},
		{"default CFA over a smaller cache", stcpipe.Params{CacheBytes: 512}, "Params.CFABytes 1024"},
		{"blocks larger than the non-CFA area", stcpipe.Params{CacheBytes: 16, CFABytes: 8}, "overlap"},

		{"zero value", stcpipe.Params{}, ""},
		{"2KB, 512B CFA", stcpipe.Params{CacheBytes: 2048, CFABytes: 512}, ""},
		{"1KB, 768B CFA", stcpipe.Params{CacheBytes: 1024, CFABytes: 768}, ""},
	} {
		for _, alg := range []stcpipe.Algorithm{stcpipe.Torrellas(tc.p), stcpipe.STCAuto(tc.p), stcpipe.STCOps(tc.p)} {
			lay, err := pr.Layout(alg)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s, %s: %v", tc.name, alg.Name(), err)
			case tc.want != "" && err == nil:
				t.Errorf("%s, %s: no error", tc.name, alg.Name())
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("%s, %s: error %q does not say %q", tc.name, alg.Name(), err, tc.want)
			case tc.want != "" && lay != nil:
				t.Errorf("%s, %s: a layout beside the error", tc.name, alg.Name())
			}
		}
	}
}

// TestProfileRunExtends checks that Run extends an existing profile's
// trace (the test-over-both-databases pattern).
func TestProfileRunExtends(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	hashDB, err := dsdb.Open(dsdb.WithTPCD(0.0005), dsdb.WithIndexKind(dsdb.Hash))
	if err != nil {
		t.Fatalf("Open(hash): %v", err)
	}
	pipe := stcpipe.New()
	w, err := stcpipe.TPCD("w", 6)
	if err != nil {
		t.Fatalf("TPCD: %v", err)
	}
	pr, err := pipe.Profile(db, w)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	before := pr.Instrs()
	w2, err := stcpipe.TPCD("w-hash", 6)
	if err != nil {
		t.Fatalf("TPCD: %v", err)
	}
	if err := pr.Run(hashDB, w2); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if pr.Instrs() <= before {
		t.Fatalf("Run did not extend the trace: %d -> %d instrs", before, pr.Instrs())
	}
}

// TestWorkloadValidation checks that unknown TPC-D query numbers and
// empty workloads are rejected rather than silently ignored.
func TestWorkloadValidation(t *testing.T) {
	if _, err := stcpipe.TPCD("typo", 7); err == nil {
		t.Fatal("TPCD accepted nonexistent query 7")
	}
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := stcpipe.New().Profile(db, stcpipe.Workload{Name: "empty"}); err == nil {
		t.Fatal("Profile accepted an empty workload")
	}
}

func sameAddrs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestProfileConcurrentSessions traces a 3-session workload with
// online CFG validation: each per-session trace must be valid, the
// interleaved merge must carry roughly sessions× one serial run, and
// the result must be a first-class profile (layouts build, simulation
// runs).
func TestProfileConcurrentSessions(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	pipe := stcpipe.New(stcpipe.Validate())
	w := stcpipe.Training()
	const sessions = 3

	pr, err := pipe.Profile(db, stcpipe.Concurrent(w, sessions))
	if err != nil {
		t.Fatalf("Concurrent: %v", err)
	}
	if pr.Events() == 0 || pr.Instrs() == 0 {
		t.Fatalf("empty concurrent trace: %d events, %d instrs", pr.Events(), pr.Instrs())
	}

	// The interleaved trace should hold roughly sessions× the work of
	// one serial run (buffer hit/miss paths may differ slightly).
	serial, err := pipe.Profile(db, w)
	if err != nil {
		t.Fatalf("serial Profile: %v", err)
	}
	lo := uint64(float64(serial.Instrs()) * 2.5)
	hi := uint64(float64(serial.Instrs()) * 3.5)
	if pr.Instrs() < lo || pr.Instrs() > hi {
		t.Fatalf("interleaved trace has %d instrs, want within [%d, %d] (~%d× serial %d)",
			pr.Instrs(), lo, hi, sessions, serial.Instrs())
	}

	// It trains layouts and simulates like any profile.
	lay, err := pr.Layout(stcpipe.STCOps(stcpipe.Params{}))
	if err != nil {
		t.Fatalf("Layout over concurrent profile: %v", err)
	}
	res, err := pr.Simulate(lay, stcpipe.FetchConfig{CacheBytes: 4096})
	if err != nil {
		t.Fatalf("Simulate over concurrent profile: %v", err)
	}
	if res.IPC() <= 0 {
		t.Fatalf("implausible IPC %v", res.IPC())
	}

	// Immutable: Run must refuse to extend a merged profile.
	if err := pr.Run(db, w); err == nil {
		t.Fatal("Run on a concurrent profile must error")
	}
}

// TestProfileConcurrentValidatesArgs covers the argument errors.
func TestProfileConcurrentValidatesArgs(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	pipe := stcpipe.New()
	if _, err := pipe.Profile(db, stcpipe.Concurrent(stcpipe.Training(), 0)); err == nil {
		t.Fatal("0 sessions must error")
	}
	if _, err := pipe.Profile(db, stcpipe.Concurrent(stcpipe.Workload{Name: "empty"}, 2)); err == nil {
		t.Fatal("empty workload must error")
	}
}
