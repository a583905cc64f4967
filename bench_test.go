package repro_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/db/executor"
	"repro/internal/db/sql"
	"repro/internal/experiments"
	"repro/internal/fetch"
	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/tpcd"
	"repro/internal/trace"
)

// benchSetup builds the full experiment setup once and shares it
// across the table/figure benchmarks.
var benchSetup *experiments.Setup

func setup(b *testing.B) *experiments.Setup {
	b.Helper()
	if benchSetup == nil {
		s, err := experiments.NewSetup(experiments.Params{SF: 0.001, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		benchSetup = s
	}
	return benchSetup
}

// BenchmarkTable1 regenerates the paper's Table 1 (static vs executed
// footprint) and reports the executed percentages as metrics.
func BenchmarkTable1(b *testing.B) {
	s := setup(b)
	var fs profile.FootprintStats
	for i := 0; i < b.N; i++ {
		fs = s.Table1()
	}
	b.ReportMetric(fs.PctProcs(), "%procs")
	b.ReportMetric(fs.PctBlocks(), "%blocks")
	b.ReportMetric(fs.PctInstrs(), "%instrs")
}

// BenchmarkFigure2 regenerates the cumulative-reference curve and
// reports the block counts covering 90% and 99% of references.
func BenchmarkFigure2(b *testing.B) {
	s := setup(b)
	var n90, n99 int
	for i := 0; i < b.N; i++ {
		n90 = s.Profile.BlocksForCoverage(0.90)
		n99 = s.Profile.BlocksForCoverage(0.99)
	}
	b.ReportMetric(float64(n90), "blocks@90%")
	b.ReportMetric(float64(n99), "blocks@99%")
}

// BenchmarkTable2 regenerates the block-type/predictability breakdown
// and reports the overall predictability.
func BenchmarkTable2(b *testing.B) {
	s := setup(b)
	var st profile.TypeStats
	for i := 0; i < b.N; i++ {
		st = s.Table2()
	}
	b.ReportMetric(st.OverallPct, "%predictable")
}

// BenchmarkReuse regenerates the Section 4.1 temporal-locality numbers.
func BenchmarkReuse(b *testing.B) {
	s := setup(b)
	var st profile.ReuseStats
	for i := 0; i < b.N; i++ {
		st = s.Reuse()
	}
	b.ReportMetric(100*st.Prob[0], "%reuse<100")
	b.ReportMetric(100*st.Prob[1], "%reuse<250")
}

// BenchmarkTable3 regenerates one representative Table 3 cell per
// layout (2KB cache, 1KB CFA) and reports the miss rates.
func BenchmarkTable3(b *testing.B) {
	s := setup(b)
	cc := experiments.CacheConfig{CacheBytes: 2048, CFABytes: 1024}
	miss := map[string]float64{}
	for i := 0; i < b.N; i++ {
		layouts := s.Layouts(cc)
		for _, name := range experiments.LayoutNames {
			ic := cache.NewDirectMapped(cc.CacheBytes, cache.DefaultLineBytes)
			res := fetch.Simulate(s.TestTrace, layouts[name], fetch.DefaultConfig(ic))
			miss[name] = res.MissesPer100Instr()
		}
	}
	b.ReportMetric(miss["orig"], "orig-miss/100")
	b.ReportMetric(miss["P&H"], "P&H-miss/100")
	b.ReportMetric(miss["Torr"], "Torr-miss/100")
	b.ReportMetric(miss["auto"], "auto-miss/100")
	b.ReportMetric(miss["ops"], "ops-miss/100")
}

// BenchmarkTable4 regenerates one representative Table 4 cell per
// layout plus the trace-cache combination and reports the IPCs.
func BenchmarkTable4(b *testing.B) {
	s := setup(b)
	cc := experiments.CacheConfig{CacheBytes: 2048, CFABytes: 1024}
	ipc := map[string]float64{}
	var tc, tcops float64
	for i := 0; i < b.N; i++ {
		layouts := s.Layouts(cc)
		for _, name := range experiments.LayoutNames {
			ic := cache.NewDirectMapped(cc.CacheBytes, cache.DefaultLineBytes)
			ipc[name] = fetch.Simulate(s.TestTrace, layouts[name], fetch.DefaultConfig(ic)).IPC()
		}
		cfg := fetch.DefaultConfig(cache.NewDirectMapped(cc.CacheBytes, cache.DefaultLineBytes))
		cfg.TC = cache.NewTraceCache(experiments.TraceCacheEntries, 16, 3, 4)
		tc = fetch.Simulate(s.TestTrace, layouts["orig"], cfg).IPC()
		cfg2 := fetch.DefaultConfig(cache.NewDirectMapped(cc.CacheBytes, cache.DefaultLineBytes))
		cfg2.TC = cache.NewTraceCache(experiments.TraceCacheEntries, 16, 3, 4)
		tcops = fetch.Simulate(s.TestTrace, layouts["ops"], cfg2).IPC()
	}
	b.ReportMetric(ipc["orig"], "orig-IPC")
	b.ReportMetric(ipc["ops"], "ops-IPC")
	b.ReportMetric(tc, "TC-IPC")
	b.ReportMetric(tcops, "TC+ops-IPC")
}

// BenchmarkSequentiality reports the headline instructions-between-
// taken-branches metric for orig and ops layouts.
func BenchmarkSequentiality(b *testing.B) {
	s := setup(b)
	var m map[string]float64
	for i := 0; i < b.N; i++ {
		m = s.Sequentiality()
	}
	b.ReportMetric(m["orig"], "orig-instr/taken")
	b.ReportMetric(m["ops"], "ops-instr/taken")
}

// BenchmarkAblationThresholds sweeps the STC thresholds (the paper's
// future-work item on automated threshold selection).
func BenchmarkAblationThresholds(b *testing.B) {
	s := setup(b)
	cc := experiments.CacheConfig{CacheBytes: 4096, CFABytes: 1024}
	var best float64
	for i := 0; i < b.N; i++ {
		best = 0
		for _, pt := range s.AblationThresholds(cc) {
			if pt.IPC > best {
				best = pt.IPC
			}
		}
	}
	b.ReportMetric(best, "best-IPC")
}

// ---- microbenchmarks on the substrates ----

// benchSimulate times fetch.Simulate over the test trace under the
// original layout and reports ns per simulated instruction — the
// go-test counterpart of the benchmark's fetch.simulate_ns_per_instr
// (ideal), cache.dm_ns_per_instr (2 KB direct-mapped) and
// cache.tracecache_ns_per_instr (2 KB + 64-entry trace cache).
func benchSimulate(b *testing.B, cfg fetch.Config) {
	s := setup(b)
	l := program.OriginalLayout(s.Img.Prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch.Simulate(s.TestTrace, l, cfg)
	}
	b.SetBytes(int64(s.TestTrace.Instrs * program.InstrBytes))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.TestTrace.Instrs), "ns/instr")
}

// BenchmarkFetchSimulator measures raw fetch-simulation throughput.
func BenchmarkFetchSimulator(b *testing.B) {
	benchSimulate(b, fetch.DefaultConfig(cache.NewDirectMapped(2048, cache.DefaultLineBytes)))
}

// BenchmarkFetchSimulatorIdeal is the fetch unit alone: no i-cache.
func BenchmarkFetchSimulatorIdeal(b *testing.B) {
	benchSimulate(b, fetch.DefaultConfig(nil))
}

// BenchmarkFetchSimulatorTraceCache adds the trace cache's hit test
// and fill unit in front of the 2 KB cache.
func BenchmarkFetchSimulatorTraceCache(b *testing.B) {
	cfg := fetch.DefaultConfig(cache.NewDirectMapped(2048, cache.DefaultLineBytes))
	cfg.TC = cache.NewTraceCache(experiments.TraceCacheEntries, 16, 3, program.InstrBytes)
	benchSimulate(b, cfg)
}

// BenchmarkProfileFromTrace measures building the weighted CFG from
// the test trace (the benchmark's profile.build_ms).
func BenchmarkProfileFromTrace(b *testing.B) {
	s := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.FromTrace(s.TestTrace)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.TestTrace.Len()), "ns/event")
}

// BenchmarkRecordPath measures recording alone: the test trace's
// events replayed into a fresh, non-validating recorder, so what is
// timed is Recorder.Block and the growth of Trace.Blocks, not the
// executor that normally emits the events. B/op against 4 bytes per
// event shows how often the recording is re-copied as it grows.
func BenchmarkRecordPath(b *testing.B) {
	s := setup(b)
	events := s.TestTrace.Blocks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.NewRecorder(trace.New(s.Img.Prog), false).Path(events)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}

// BenchmarkSTCLayout measures layout construction.
func BenchmarkSTCLayout(b *testing.B) {
	s := setup(b)
	params := core.Params{ExecThreshold: 32, BranchThreshold: 0.4,
		CacheBytes: 2048, CFABytes: 512}
	seeds := core.OpsSeeds(s.Profile, kernel.OpsSeedNames)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Build("bench", s.Profile, seeds, params)
	}
}

// BenchmarkPettisHansen measures the baseline layout construction.
func BenchmarkPettisHansen(b *testing.B) {
	s := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layout.PettisHansen(s.Profile)
	}
}

// BenchmarkQ6 measures end-to-end query execution (untraced).
func BenchmarkQ6(b *testing.B) {
	cfg := tpcd.DefaultConfig()
	cfg.SF = 0.001
	db, err := tpcd.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	q, _ := tpcd.Query(6)
	c := executor.NewCtx(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sql.Exec(db, c, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ3Traced measures query execution with trace recording.
func BenchmarkQ3Traced(b *testing.B) {
	cfg := tpcd.DefaultConfig()
	cfg.SF = 0.001
	db, err := tpcd.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	img := kernel.New(kernel.DefaultConfig())
	q, _ := tpcd.Query(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ses := img.NewSession(false)
		if _, _, err := sql.Exec(db, executor.NewCtx(ses), q); err != nil {
			b.Fatal(err)
		}
	}
}
