// Package experiments reproduces every table and figure of the paper's
// evaluation: the locality characterization of Section 4 (Table 1,
// Figure 2, the reuse-distance statistics, Table 2) and the method
// evaluation of Section 7 (Table 3 miss rates, Table 4 fetch
// bandwidth, and the headline sequentiality numbers).
//
// Cache geometry note: the paper's PostgreSQL binary has a ~300 KB
// executed footprint and is evaluated with 8–64 KB i-caches. This
// reproduction's kernel image is proportionally smaller, so cache and
// CFA sizes are scaled by 1/8 (1–8 KB caches) to preserve the
// footprint-to-cache ratios; the trace cache scales from 256 to 64
// entries for the same reason.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/db/engine"
	"repro/internal/db/executor"
	"repro/internal/db/sql"
	"repro/internal/fetch"
	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/tpcd"
	"repro/internal/trace"
)

// Setup holds everything the experiments need: the kernel image, the
// training profile and the test trace.
type Setup struct {
	Img        *kernel.Image
	TrainTrace *trace.Trace
	TestTrace  *trace.Trace
	Profile    *profile.Profile // from the training trace
	SF         float64
}

// Params configures a full experiment run.
type Params struct {
	SF       float64
	Seed     int64
	Validate bool // validate traces online (slower)
	// Parallelism > 1 runs the workloads with partition-parallel
	// scans: the traces then measure the coordinator's instruction
	// stream, a different fetch scenario from the serial plans.
	Parallelism int
}

// DefaultParams is the laptop-scale default.
func DefaultParams() Params { return Params{SF: 0.002, Seed: 42, Validate: false} }

// NewSetup builds both databases, runs the training set (Q3,4,5,6,9 on
// the Btree database) and the test set (Q2,3,4,6,11,12,13,14,15,17 on
// both databases), and computes the training profile.
func NewSetup(p Params) (*Setup, error) {
	img := kernel.New(kernel.DefaultConfig())

	btreeCfg := tpcd.DefaultConfig()
	btreeCfg.SF = p.SF
	btreeCfg.Seed = p.Seed
	btreeDB, err := tpcd.Build(btreeCfg)
	if err != nil {
		return nil, fmt.Errorf("building btree database: %w", err)
	}
	hashCfg := btreeCfg
	hashCfg.Indexes = 1 // catalog.Hash
	hashDB, err := tpcd.Build(hashCfg)
	if err != nil {
		return nil, fmt.Errorf("building hash database: %w", err)
	}

	runSet := func(db *engine.DB, queries []int, label string, ses *kernel.Session) error {
		c := executor.NewCtx(ses)
		c.Parallelism = p.Parallelism
		for _, qn := range queries {
			q, ok := tpcd.Query(qn)
			if !ok {
				return fmt.Errorf("no query %d", qn)
			}
			ses.Mark(fmt.Sprintf("%s-Q%d", label, qn))
			if _, _, err := sql.Exec(db, c, q); err != nil {
				return fmt.Errorf("%s Q%d: %w", label, qn, err)
			}
			if err := ses.Err(); err != nil {
				return fmt.Errorf("%s Q%d: trace: %w", label, qn, err)
			}
		}
		return nil
	}

	train := img.NewSession(p.Validate)
	if err := runSet(btreeDB, tpcd.TrainingQueries, "train-btree", train); err != nil {
		return nil, err
	}
	test := img.NewSession(p.Validate)
	if err := runSet(btreeDB, tpcd.TestQueries, "test-btree", test); err != nil {
		return nil, err
	}
	if err := runSet(hashDB, tpcd.TestQueries, "test-hash", test); err != nil {
		return nil, err
	}

	return &Setup{
		Img:        img,
		TrainTrace: train.Trace(),
		TestTrace:  test.Trace(),
		Profile:    profile.FromTrace(train.Trace()),
		SF:         p.SF,
	}, nil
}

// ---------- Section 4: locality characterization ----------

// Table1 reproduces the static-vs-executed footprint table.
func (s *Setup) Table1() profile.FootprintStats { return s.Profile.Footprint() }

// FormatTable1 renders Table 1 in the paper's layout.
func FormatTable1(fs profile.FootprintStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: static program elements vs. executed (training set)\n")
	fmt.Fprintf(&b, "%-14s %10s %10s %9s\n", "", "Total", "Executed", "Percent")
	fmt.Fprintf(&b, "%-14s %10d %10d %8.1f%%\n", "Procedures", fs.TotalProcs, fs.ExecProcs, fs.PctProcs())
	fmt.Fprintf(&b, "%-14s %10d %10d %8.1f%%\n", "Basic blocks", fs.TotalBlocks, fs.ExecBlocks, fs.PctBlocks())
	fmt.Fprintf(&b, "%-14s %10d %10d %8.1f%%\n", "Instructions", fs.TotalInstrs, fs.ExecInstrs, fs.PctInstrs())
	return b.String()
}

// Figure2Point is one point of the cumulative-reference curve.
type Figure2Point struct {
	Blocks   int
	CumRefs  float64 // fraction 0..1
	PctTotal float64 // Blocks as % of all static blocks
}

// Figure2 samples the cumulative dynamic-reference curve.
func (s *Setup) Figure2() []Figure2Point {
	cum := s.Profile.CumulativeRefs()
	total := s.Img.Prog.NumBlocks()
	var pts []Figure2Point
	for _, n := range []int{1, 2, 5, 10, 20, 50, 100, 150, 200, 300, 400, 600, 800, 1000, 1500} {
		if n > len(cum) {
			break
		}
		pts = append(pts, Figure2Point{
			Blocks:   n,
			CumRefs:  cum[n-1],
			PctTotal: 100 * float64(n) / float64(total),
		})
	}
	return pts
}

// FormatFigure2 renders the curve plus the paper's two checkpoints.
func (s *Setup) FormatFigure2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: cumulative dynamic references by most-popular static blocks\n")
	fmt.Fprintf(&b, "%8s %12s %12s\n", "blocks", "% of static", "% of refs")
	for _, pt := range s.Figure2() {
		fmt.Fprintf(&b, "%8d %11.2f%% %11.1f%%\n", pt.Blocks, pt.PctTotal, 100*pt.CumRefs)
	}
	n90 := s.Profile.BlocksForCoverage(0.90)
	n99 := s.Profile.BlocksForCoverage(0.99)
	fmt.Fprintf(&b, "90%% of references in %d blocks (%.2f%% of static); 99%% in %d (%.2f%%)\n",
		n90, 100*float64(n90)/float64(s.Img.Prog.NumBlocks()),
		n99, 100*float64(n99)/float64(s.Img.Prog.NumBlocks()))
	return b.String()
}

// Reuse reproduces the Section 4.1 temporal-locality statistics: the
// probability that a block of the 75%-coverage popular set is
// re-executed within 100 and 250 instructions.
func (s *Setup) Reuse() profile.ReuseStats {
	set := s.Profile.PopularSet(0.75)
	return profile.Reuse(s.TrainTrace, set, []uint64{100, 250})
}

// FormatReuse renders the reuse statistics.
func FormatReuse(st profile.ReuseStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Temporal locality of the top-75%% popular blocks (Section 4.1)\n")
	for i, th := range st.Thresholds {
		fmt.Fprintf(&b, "P(re-executed < %3d instructions) = %.0f%%\n", th, 100*st.Prob[i])
	}
	return b.String()
}

// Table2 reproduces the block-type/predictability classification.
func (s *Setup) Table2() profile.TypeStats { return s.Profile.TypeBreakdown() }

// FormatTable2 renders Table 2 in the paper's layout.
func FormatTable2(st profile.TypeStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: basic blocks by type (executed static / dynamic / predictable)\n")
	fmt.Fprintf(&b, "%-18s %8s %8s %12s\n", "BB Type", "Static", "Dynamic", "Predictable")
	for _, r := range st.Rows {
		fmt.Fprintf(&b, "%-18s %7.1f%% %7.1f%% %11.0f%%\n",
			r.Class, r.StaticPct, r.DynamicPct, r.PredictablePct)
	}
	fmt.Fprintf(&b, "Overall predictable transitions: %.0f%%\n", st.OverallPct)
	return b.String()
}

// ---------- Section 7: method evaluation ----------

// CacheConfig is one (cache size, CFA size) row of Tables 3/4.
type CacheConfig struct {
	CacheBytes int
	CFABytes   int
}

// PaperConfigs mirrors the paper's 8/16/32/64 KB rows scaled by 1/8.
func PaperConfigs() []CacheConfig {
	return []CacheConfig{
		{1024, 256}, {1024, 512}, {1024, 768},
		{2048, 512}, {2048, 1024}, {2048, 1536},
		{4096, 512}, {4096, 1024}, {4096, 2048}, {4096, 3072},
		{8192, 1024}, {8192, 2048}, {8192, 3072},
	}
}

// stcParams picks sequence-building thresholds from the profile: the
// exec threshold keeps roughly the paper's "most popular blocks"
// notion; the branch threshold is the paper's example value.
func (s *Setup) stcParams(cc CacheConfig) core.Params {
	execTh := s.Profile.DynBlocks / 20000
	if execTh < 4 {
		execTh = 4
	}
	return core.Params{
		ExecThreshold:   execTh,
		BranchThreshold: 0.4,
		CacheBytes:      cc.CacheBytes,
		CFABytes:        cc.CFABytes,
	}
}

// Layouts builds the five code layouts of the paper for one cache
// configuration: orig, P&H, Torrellas, STC-auto and STC-ops.
func (s *Setup) Layouts(cc CacheConfig) map[string]*program.Layout {
	params := s.stcParams(cc)
	return map[string]*program.Layout{
		"orig": program.OriginalLayout(s.Img.Prog),
		"P&H":  layout.PettisHansen(s.Profile),
		"Torr": layout.Torrellas(s.Profile, params),
		"auto": core.BuildFitted("auto", s.Profile, core.AutoSeeds(s.Profile), params),
		"ops": core.BuildFitted("ops", s.Profile,
			core.OpsSeeds(s.Profile, kernel.OpsSeedNames), params),
	}
}

// LayoutNames is the column order of Tables 3/4.
var LayoutNames = []string{"orig", "P&H", "Torr", "auto", "ops"}

// Table3Row is one row of Table 3: miss rates (per 100 instructions)
// for each layout on a direct-mapped cache, plus the hardware
// alternatives (2-way, victim) on the original layout.
type Table3Row struct {
	Config CacheConfig
	Miss   map[string]float64 // per layout
	TwoWay float64            // orig layout, 2-way cache
	Victim float64            // orig layout, direct + 16-line victim
}

// Table3 reproduces the i-cache miss-rate table over the test trace.
func (s *Setup) Table3() []Table3Row {
	configs := PaperConfigs()
	rows := make([]Table3Row, len(configs))
	var wg sync.WaitGroup
	for i, cc := range configs {
		wg.Add(1)
		go func(i int, cc CacheConfig) {
			defer wg.Done()
			row := Table3Row{Config: cc, Miss: make(map[string]float64)}
			layouts := s.Layouts(cc)
			for _, name := range LayoutNames {
				ic := cache.NewDirectMapped(cc.CacheBytes, cache.DefaultLineBytes)
				res := fetch.Simulate(s.TestTrace, layouts[name], fetch.DefaultConfig(ic))
				row.Miss[name] = res.MissesPer100Instr()
			}
			orig := layouts["orig"]
			res2 := fetch.Simulate(s.TestTrace, orig,
				fetch.DefaultConfig(cache.NewSetAssoc(cc.CacheBytes, cache.DefaultLineBytes, 2)))
			row.TwoWay = res2.MissesPer100Instr()
			resV := fetch.Simulate(s.TestTrace, orig,
				fetch.DefaultConfig(cache.NewVictim(cc.CacheBytes, cache.DefaultLineBytes, 16)))
			row.Victim = resV.MissesPer100Instr()
			rows[i] = row
		}(i, cc)
	}
	wg.Wait()
	return rows
}

// FormatTable3 renders Table 3.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: i-cache misses per 100 instructions (test set)\n")
	fmt.Fprintf(&b, "%-11s", "cache/CFA")
	for _, n := range LayoutNames {
		fmt.Fprintf(&b, " %7s", n)
	}
	fmt.Fprintf(&b, " %7s %7s\n", "2-way", "victim")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4dK/%-5.2gK", r.Config.CacheBytes/1024,
			float64(r.Config.CFABytes)/1024)
		for _, n := range LayoutNames {
			fmt.Fprintf(&b, " %7.3f", r.Miss[n])
		}
		fmt.Fprintf(&b, " %7.3f %7.3f\n", r.TwoWay, r.Victim)
	}
	return b.String()
}

// TraceCacheEntries is the scaled trace-cache size (paper: 256).
const TraceCacheEntries = 64

// Table4Row is one row of Table 4: fetch bandwidth (IPC) per layout,
// plus the trace cache alone and combined with the ops layout.
type Table4Row struct {
	Config CacheConfig
	IPC    map[string]float64
	TC     float64 // trace cache + i-cache, orig layout
	TCOps  float64 // trace cache + i-cache, ops layout
}

// Table4 reproduces the fetch-bandwidth table. The Ideal row uses a
// perfect cache.
func (s *Setup) Table4() (ideal Table4Row, rows []Table4Row) {
	// Ideal row: perfect i-cache.
	idealLayouts := s.Layouts(CacheConfig{CacheBytes: 4096, CFABytes: 1024})
	ideal = Table4Row{IPC: make(map[string]float64)}
	for _, name := range LayoutNames {
		res := fetch.Simulate(s.TestTrace, idealLayouts[name], fetch.DefaultConfig(nil))
		ideal.IPC[name] = res.IPC()
	}
	cfgTC := fetch.DefaultConfig(nil)
	cfgTC.TC = cache.NewTraceCache(TraceCacheEntries, 16, 3, 4)
	resTC := fetch.Simulate(s.TestTrace, idealLayouts["orig"], cfgTC)
	ideal.TC = resTC.IPC()
	cfgTC2 := fetch.DefaultConfig(nil)
	cfgTC2.TC = cache.NewTraceCache(TraceCacheEntries, 16, 3, 4)
	resTC2 := fetch.Simulate(s.TestTrace, idealLayouts["ops"], cfgTC2)
	ideal.TCOps = resTC2.IPC()

	configs := PaperConfigs()
	rows = make([]Table4Row, len(configs))
	var wg sync.WaitGroup
	for i, cc := range configs {
		wg.Add(1)
		go func(i int, cc CacheConfig) {
			defer wg.Done()
			row := Table4Row{Config: cc, IPC: make(map[string]float64)}
			layouts := s.Layouts(cc)
			for _, name := range LayoutNames {
				ic := cache.NewDirectMapped(cc.CacheBytes, cache.DefaultLineBytes)
				res := fetch.Simulate(s.TestTrace, layouts[name], fetch.DefaultConfig(ic))
				row.IPC[name] = res.IPC()
			}
			// Trace cache backed by the real i-cache.
			cfg := fetch.DefaultConfig(cache.NewDirectMapped(cc.CacheBytes, cache.DefaultLineBytes))
			cfg.TC = cache.NewTraceCache(TraceCacheEntries, 16, 3, 4)
			row.TC = fetch.Simulate(s.TestTrace, layouts["orig"], cfg).IPC()
			cfg2 := fetch.DefaultConfig(cache.NewDirectMapped(cc.CacheBytes, cache.DefaultLineBytes))
			cfg2.TC = cache.NewTraceCache(TraceCacheEntries, 16, 3, 4)
			row.TCOps = fetch.Simulate(s.TestTrace, layouts["ops"], cfg2).IPC()
			rows[i] = row
		}(i, cc)
	}
	wg.Wait()
	return ideal, rows
}

// FormatTable4 renders Table 4.
func FormatTable4(ideal Table4Row, rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: fetch bandwidth in instructions per cycle (test set, 5-cycle miss penalty)\n")
	fmt.Fprintf(&b, "%-11s", "cache/CFA")
	for _, n := range LayoutNames {
		fmt.Fprintf(&b, " %6s", n)
	}
	fmt.Fprintf(&b, " %6s %7s\n", "TC", "TC+ops")
	fmt.Fprintf(&b, "%-11s", "Ideal")
	for _, n := range LayoutNames {
		fmt.Fprintf(&b, " %6.2f", ideal.IPC[n])
	}
	fmt.Fprintf(&b, " %6.2f %7.2f\n", ideal.TC, ideal.TCOps)
	for _, r := range rows {
		fmt.Fprintf(&b, "%4dK/%-5.2gK", r.Config.CacheBytes/1024,
			float64(r.Config.CFABytes)/1024)
		for _, n := range LayoutNames {
			fmt.Fprintf(&b, " %6.2f", r.IPC[n])
		}
		fmt.Fprintf(&b, " %6.2f %7.2f\n", r.TC, r.TCOps)
	}
	return b.String()
}

// Sequentiality reports the paper's headline metric — instructions
// executed between taken branches — for every layout.
func (s *Setup) Sequentiality() map[string]float64 {
	layouts := s.Layouts(CacheConfig{CacheBytes: 4096, CFABytes: 1024})
	out := make(map[string]float64)
	for _, name := range LayoutNames {
		st := fetch.Sequentiality(s.TestTrace, layouts[name])
		out[name] = st.InstrPerTaken
	}
	return out
}

// FormatSequentiality renders the headline comparison.
func FormatSequentiality(m map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Instructions between taken branches (paper: 8.9 orig -> 22.4 ops)\n")
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-6s %6.1f\n", n, m[n])
	}
	return b.String()
}

// ThresholdPoint is one cell of the ablation sweep.
type ThresholdPoint struct {
	ExecThreshold   uint64
	BranchThreshold float64
	IPC             float64
	MissPer100      float64
}

// AblationThresholds sweeps the STC thresholds (the paper's Section 8
// future-work item: automating threshold selection).
func (s *Setup) AblationThresholds(cc CacheConfig) []ThresholdPoint {
	var pts []ThresholdPoint
	base := s.Profile.DynBlocks
	for _, execDiv := range []uint64{200000, 20000, 2000} {
		for _, branch := range []float64{0.1, 0.4, 0.7} {
			execTh := base / execDiv
			if execTh < 1 {
				execTh = 1
			}
			params := core.Params{
				ExecThreshold:   execTh,
				BranchThreshold: branch,
				CacheBytes:      cc.CacheBytes,
				CFABytes:        cc.CFABytes,
			}
			l := core.Build("stc", s.Profile,
				core.OpsSeeds(s.Profile, kernel.OpsSeedNames), params)
			ic := cache.NewDirectMapped(cc.CacheBytes, cache.DefaultLineBytes)
			res := fetch.Simulate(s.TestTrace, l, fetch.DefaultConfig(ic))
			pts = append(pts, ThresholdPoint{
				ExecThreshold:   execTh,
				BranchThreshold: branch,
				IPC:             res.IPC(),
				MissPer100:      res.MissesPer100Instr(),
			})
		}
	}
	return pts
}

// FormatAblation renders the threshold sweep.
func FormatAblation(pts []ThresholdPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: STC thresholds (ops seeds, 4K cache / 1K CFA)\n")
	fmt.Fprintf(&b, "%10s %8s %8s %10s\n", "execThresh", "brThresh", "IPC", "miss/100")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10d %8.1f %8.2f %10.3f\n",
			p.ExecThreshold, p.BranchThreshold, p.IPC, p.MissPer100)
	}
	return b.String()
}
