package stcpipe

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/dsdb"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/db/probe"
	"repro/internal/fetch"
	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/profile"
	"repro/internal/profile/profiletest"
	"repro/internal/program"
	"repro/internal/trace"
)

// benchReport records the paper's two traces once, through the
// pipeline, and shares them across the table and layer benchmarks.
var benchReport = sync.OnceValues(func() (*Report, error) {
	train, test, err := PaperTraces(0.001, 42)
	if err != nil {
		return nil, err
	}
	return ReportOf(train, test), nil
})

func setup(b *testing.B) *Report {
	b.Helper()
	r, err := benchReport()
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// benchCell is the representative Table 3/4 cell: 2KB cache, 1KB CFA.
var benchCell = Params{CacheBytes: 2048, CFABytes: 1024}

// BenchmarkTable1 regenerates the paper's Table 1 (static vs executed
// footprint) and reports the executed percentages as metrics.
func BenchmarkTable1(b *testing.B) {
	r := setup(b)
	var fs FootprintStats
	for i := 0; i < b.N; i++ {
		fs = r.train.Footprint()
	}
	b.ReportMetric(fs.PctProcs(), "%procs")
	b.ReportMetric(fs.PctBlocks(), "%blocks")
	b.ReportMetric(fs.PctInstrs(), "%instrs")
}

// BenchmarkFigure2 regenerates the cumulative-reference curve and
// reports the block counts covering 90% and 99% of references.
func BenchmarkFigure2(b *testing.B) {
	prof := setup(b).train.profileData()
	var n90, n99 int
	for i := 0; i < b.N; i++ {
		n90 = prof.BlocksForCoverage(0.90)
		n99 = prof.BlocksForCoverage(0.99)
	}
	b.ReportMetric(float64(n90), "blocks@90%")
	b.ReportMetric(float64(n99), "blocks@99%")
}

// BenchmarkTable2 regenerates the block-type/predictability breakdown
// and reports the overall predictability.
func BenchmarkTable2(b *testing.B) {
	prof := setup(b).train.profileData()
	var st profile.TypeStats
	for i := 0; i < b.N; i++ {
		st = prof.TypeBreakdown()
	}
	b.ReportMetric(st.OverallPct, "%predictable")
}

// BenchmarkReuse regenerates the Section 4.1 temporal-locality numbers.
func BenchmarkReuse(b *testing.B) {
	train := setup(b).train
	var st profile.ReuseStats
	for i := 0; i < b.N; i++ {
		st = profile.Reuse(train.tr, train.profileData().PopularSet(0.75), []uint64{100, 250})
	}
	b.ReportMetric(100*st.Prob[0], "%reuse<100")
	b.ReportMetric(100*st.Prob[1], "%reuse<250")
}

// benchCells is the representative Table 3/4 row: each layout built
// for benchCell on a direct-mapped cache, then orig and ops behind a
// trace cache.
func benchCells(r *Report) []Cell {
	lays := r.layouts(benchCell)
	fc := FetchConfig{CacheBytes: benchCell.CacheBytes}
	var cells []Cell
	for _, l := range lays {
		cells = append(cells, Cell{r.test, l, fc})
	}
	fc.TraceCacheEntries = traceCacheEntries
	return append(cells, Cell{r.test, lays[0], fc}, Cell{r.test, lays[4], fc})
}

// benchGrid simulates cells b.N times and returns the last results.
func benchGrid(b *testing.B, cells []Cell) (res []Result) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = must(SimulateGrid(cells))
	}
	return res
}

// BenchmarkTable3 regenerates one representative Table 3 cell per
// layout and reports the miss rates.
func BenchmarkTable3(b *testing.B) {
	cells := benchCells(setup(b))[:5]
	for i, res := range benchGrid(b, cells) {
		b.ReportMetric(res.MissesPer100Instr(), cells[i].Layout.Name()+"-miss/100")
	}
}

// BenchmarkTable4 regenerates one representative Table 4 row — every
// layout plus the trace-cache combinations — and reports the IPCs.
func BenchmarkTable4(b *testing.B) {
	res := benchGrid(b, benchCells(setup(b)))
	b.ReportMetric(res[0].IPC(), "orig-IPC")
	b.ReportMetric(res[4].IPC(), "ops-IPC")
	b.ReportMetric(res[5].IPC(), "TC-IPC")
	b.ReportMetric(res[6].IPC(), "TC+ops-IPC")
}

// BenchmarkSequentiality reports the headline instructions-between-
// taken-branches metric for orig and ops layouts. The first call on a
// profile assembles its weighted CFG (/first: a copy of the test profile
// without one, under orig); every later one reads the edge counts
// (/layout: the five headline layouts, timed per layout).
func BenchmarkSequentiality(b *testing.B) {
	r := setup(b)
	lays := r.layouts(headline)
	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh := *r.test
			fresh.prof = nil
			fresh.Sequentiality(lays[0])
		}
	})
	b.Run("layout", func(b *testing.B) {
		seq := make([]float64, len(lays))
		for i := 0; i < b.N; i++ {
			for j, l := range lays {
				seq[j] = r.test.Sequentiality(l)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lays)), "ns/layout")
		b.ReportMetric(seq[0], "orig-instr/taken")
		b.ReportMetric(seq[4], "ops-instr/taken")
	})
}

// BenchmarkAblationThresholds sweeps the STC thresholds (the paper's
// future-work item on automated threshold selection).
func BenchmarkAblationThresholds(b *testing.B) {
	r := setup(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = r.Ablation()
	}
	b.ReportMetric(slices.Max(column(b, table, 2, 2)), "best-IPC")
}

// ---- microbenchmarks on the substrates ----

// benchSimulate times fetch.Simulate over the test trace under each of
// the five layouts, one sub-benchmark per layout, and reports ns per
// simulated instruction — the go-test counterpart of the benchmark's
// fetch.simulate_ns_per_instr (ideal), cache.dm_ns_per_instr (2 KB
// direct-mapped) and cache.tracecache_ns_per_instr (2 KB + 64-entry
// trace cache).
func benchSimulate(b *testing.B, cfg fetch.Config) {
	r := setup(b)
	for _, alg := range Algorithms(Params{}) {
		lay, err := r.train.Layout(alg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(alg.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fetch.Simulate(r.test.tr, lay.l, cfg)
			}
			b.SetBytes(int64(r.test.Instrs() * program.InstrBytes))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(r.test.Instrs()), "ns/instr")
		})
	}
}

// BenchmarkFetchSimulator measures raw fetch-simulation throughput.
func BenchmarkFetchSimulator(b *testing.B) {
	benchSimulate(b, fetch.Config{ICache: cache.NewDirectMapped(2048, cache.DefaultLineBytes)})
}

// BenchmarkFetchSimulatorIdeal is the fetch unit alone: no i-cache.
func BenchmarkFetchSimulatorIdeal(b *testing.B) {
	benchSimulate(b, fetch.Config{})
}

// BenchmarkFetchSimulatorTraceCache adds the trace cache's hit test
// and fill unit in front of the 2 KB cache.
func BenchmarkFetchSimulatorTraceCache(b *testing.B) {
	cfg := fetch.Config{ICache: cache.NewDirectMapped(2048, cache.DefaultLineBytes)}
	cfg.TC = cache.NewTraceCache(traceCacheEntries)
	benchSimulate(b, cfg)
}

// BenchmarkProfileAssemble measures assembling the test profile's
// weighted CFG from the probe-pair counts its session took while
// recording (the benchmark's profile.build_ms). ns/event divides by the
// test trace's events, which the assembly does not walk, to compare
// with the trace walk it replaces.
func BenchmarkProfileAssemble(b *testing.B) {
	test := setup(b).test
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		test.pipe.img.Profile(test.tr, test.counts...)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(test.Events()), "ns/event")
}

// probeLog is a probe.Tracer that keeps the probe IDs it is sent.
type probeLog []probe.ID

func (l *probeLog) Emit(id probe.ID) { *l = append(*l, id) }

// testProbes captures, once, the probe-ID sequence the paper's test
// trace is recorded from: the same databases and queries, in the same
// order, as PaperTraces at setup's scale and seed (the training set
// runs untraced first, because it warms the B-tree database's pool).
var testProbes = sync.OnceValues(func() ([]probe.ID, error) {
	var ids probeLog
	run := func(db *dsdb.DB, w Workload, tr dsdb.Tracer) error {
		for _, q := range w.Queries {
			if err := drain(db.QueryObserved(context.Background(), tr, "", q)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, kind := range []dsdb.IndexKind{dsdb.BTree, dsdb.Hash} {
		db, err := dsdb.Open(dsdb.WithTPCD(0.001), dsdb.WithSeed(42), dsdb.WithIndexKind(kind))
		if err != nil {
			return nil, err
		}
		if kind == dsdb.BTree {
			err = run(db, Training(), nil)
		}
		if err == nil {
			err = run(db, Test(), &ids)
		}
		db.Close()
		if err != nil {
			return nil, err
		}
	}
	return ids, nil
})

// BenchmarkRecordPath measures recording alone: the probes the test
// trace was recorded from, replayed into a fresh non-validating
// kernel.Session, so what is timed is Session.Emit — a probe-pair count
// and one fixed-size store per probe path — and the growth of
// Trace.Blocks, not the executor that normally emits the probes. The
// replay emits as the engine does, through the probe.Tracer that
// probe.Resolve returns, so ns/probe includes the interface call the
// engine pays and does not depend on whether Session.Emit inlines into
// a loop over the concrete type. It checks first that the replay
// records the test trace and that its counts assemble the test
// profile. B/event against 2 bytes per event shows how often the
// recording is re-copied as it grows.
func BenchmarkRecordPath(b *testing.B) {
	test := setup(b).test
	ids, err := testProbes()
	if err != nil {
		b.Fatal(err)
	}
	img := test.pipe.img
	replay := func() (*kernel.Session, *trace.Trace) {
		t := trace.New(img.Prog)
		s := img.NewSession(trace.NewRecorder(t, false))
		rec := probe.Resolve(s)
		for _, id := range ids {
			probe.Emit(rec, id)
		}
		return s, t
	}
	s, got := replay()
	if got.Instrs != test.Instrs() || !slices.Equal(got.Blocks, test.tr.Blocks) {
		b.Fatalf("replayed %d probes: %d events / %d instrs, test trace %d / %d (or contents differ)",
			len(ids), got.Len(), got.Instrs, test.Events(), test.Instrs())
	}
	if d := profiletest.Diff(img.Profile(got, s.Counts()), test.profileData()); d != "" {
		b.Fatalf("the replayed session's counts assemble another profile than the test trace's: %s", d)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ids)), "ns/probe")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(test.Events()), "B/event")
}

// BenchmarkSTCLayout measures layout construction.
func BenchmarkSTCLayout(b *testing.B) {
	prof := setup(b).train.profileData()
	params := core.Params{ExecThreshold: 32, BranchThreshold: 0.4,
		CacheBytes: 2048, CFABytes: 512}
	seeds := core.OpsSeeds(prof, kernel.OpsSeedNames)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build("bench", prof, seeds, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPettisHansen measures the baseline layout construction.
func BenchmarkPettisHansen(b *testing.B) {
	prof := setup(b).train.profileData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.PettisHansen(prof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ3Traced measures query execution with trace recording.
func BenchmarkQ3Traced(b *testing.B) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.001))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	q3, err := TPCD("q", 3)
	if err != nil {
		b.Fatal(err)
	}
	pipe := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Profile(db, q3); err != nil {
			b.Fatal(err)
		}
	}
}
