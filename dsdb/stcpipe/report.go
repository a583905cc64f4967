package stcpipe

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/dsdb"
	"repro/internal/profile"
)

// ReportParams configures a full paper-evaluation run.
type ReportParams struct {
	SF       float64 // TPC-D scale factor (default 0.002)
	Seed     int64   // generator seed (default 42)
	Validate bool    // validate traces online against the static CFG
}

// Report regenerates every table and figure of the paper's evaluation
// from one end-to-end run — the locality characterization of Section 4
// (Table 1, Figure 2, the reuse-distance statistics, Table 2) and the
// method evaluation of Section 7 (Table 3 miss rates, Table 4 fetch
// bandwidth, the headline sequentiality numbers): both TPC-D databases
// are built, the training and test workloads are traced, and each
// accessor renders one artifact in the paper's layout. It is the batch
// counterpart to composing Profile/Layout/Simulate by hand, and is
// built from exactly those calls.
type Report struct {
	train, test *Profile
	// sweep simulates the Ideal row and every paperConfigs row once,
	// for Table 3 and Table 4 together.
	sweep func() []paperRow
}

// paperTraces runs the paper's protocol up to the traces: build the
// B-tree and the hash-indexed TPC-D database, trace the training set
// (Q3,4,5,6,9) on the B-tree one and the test set
// (Q2,3,4,6,11,12,13,14,15,17) on both, in one trace.
func paperTraces(sf float64, seed int64, opts ...Option) (train, test *Profile, err error) {
	bt, err := dsdb.Open(dsdb.WithTPCD(sf), dsdb.WithSeed(seed))
	if err != nil {
		return nil, nil, fmt.Errorf("stcpipe: building btree database: %w", err)
	}
	defer bt.Close()
	hs, err := dsdb.Open(dsdb.WithTPCD(sf), dsdb.WithSeed(seed), dsdb.WithIndexKind(dsdb.Hash))
	if err != nil {
		return nil, nil, fmt.Errorf("stcpipe: building hash database: %w", err)
	}
	defer hs.Close()
	pipe := New(opts...)
	if train, err = pipe.Profile(bt, Training()); err != nil {
		return nil, nil, err
	}
	if test, err = pipe.Profile(bt, Test()); err != nil {
		return nil, nil, err
	}
	return train, test, test.Run(hs, Test())
}

// NewReport builds the databases and records the training and test
// traces (the expensive part; the per-table accessors are cheap by
// comparison).
func NewReport(p ReportParams) (*Report, error) {
	if p.SF == 0 {
		p.SF = 0.002
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	var opts []Option
	if p.Validate {
		opts = append(opts, Validate())
	}
	train, test, err := paperTraces(p.SF, p.Seed, opts...)
	if err != nil {
		return nil, err
	}
	return ReportOf(train, test), nil
}

// ReportOf renders the paper's tables for any two profiles recorded by
// one pipeline, whatever their sources: layouts are trained on train
// and simulated against test. The Section 4 artifacts (Table 1,
// Figure 2, Reuse, Table 2, HottestBlocks) read train alone.
func ReportOf(train, test *Profile) *Report {
	// Derived here, once: the sweep's goroutines only read it.
	train.profileData()
	r := &Report{train: train, test: test}
	r.sweep = sync.OnceValue(r.simulateRows)
	return r
}

// must unwraps a Layout or Simulate result. The report only asks for
// the paper's own configurations, which nothing but a bug can make
// fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TraceSummary describes the recorded traces in one line.
func (r *Report) TraceSummary() string {
	return fmt.Sprintf("training trace: %d block events (%d instrs); test trace: %d (%d)",
		r.train.Events(), r.train.Instrs(), r.test.Events(), r.test.Instrs())
}

// ---------- Section 4: locality characterization ----------

// Table1 renders the static-vs-executed footprint table.
func (r *Report) Table1() string {
	fs := r.train.Footprint()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: static program elements vs. executed (training set)\n")
	fmt.Fprintf(&b, "%-14s %10s %10s %9s\n", "", "Total", "Executed", "Percent")
	fmt.Fprintf(&b, "%-14s %10d %10d %8.1f%%\n", "Procedures", fs.TotalProcs, fs.ExecProcs, fs.PctProcs())
	fmt.Fprintf(&b, "%-14s %10d %10d %8.1f%%\n", "Basic blocks", fs.TotalBlocks, fs.ExecBlocks, fs.PctBlocks())
	fmt.Fprintf(&b, "%-14s %10d %10d %8.1f%%\n", "Instructions", fs.TotalInstrs, fs.ExecInstrs, fs.PctInstrs())
	return b.String()
}

// Figure2 renders the cumulative dynamic-reference curve plus the
// paper's two checkpoints.
func (r *Report) Figure2() string {
	prof := r.train.profileData()
	cum := prof.CumulativeRefs()
	total := float64(r.train.pipe.img.Prog.NumBlocks())
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: cumulative dynamic references by most-popular static blocks\n")
	fmt.Fprintf(&b, "%8s %12s %12s\n", "blocks", "% of static", "% of refs")
	for _, n := range []int{1, 2, 5, 10, 20, 50, 100, 150, 200, 300, 400, 600, 800, 1000, 1500} {
		if n > len(cum) {
			break
		}
		fmt.Fprintf(&b, "%8d %11.2f%% %11.1f%%\n", n, 100*float64(n)/total, 100*cum[n-1])
	}
	n90 := prof.BlocksForCoverage(0.90)
	n99 := prof.BlocksForCoverage(0.99)
	fmt.Fprintf(&b, "90%% of references in %d blocks (%.2f%% of static); 99%% in %d (%.2f%%)\n",
		n90, 100*float64(n90)/total, n99, 100*float64(n99)/total)
	return b.String()
}

// Reuse renders the Section 4.1 temporal-locality statistics: the
// probability that a block of the 75%-coverage popular set is
// re-executed within 100 and 250 instructions.
func (r *Report) Reuse() string {
	st := profile.Reuse(r.train.tr, r.train.profileData().PopularSet(0.75), []uint64{100, 250})
	var b strings.Builder
	fmt.Fprintf(&b, "Temporal locality of the top-75%% popular blocks (Section 4.1)\n")
	for i, th := range st.Thresholds {
		fmt.Fprintf(&b, "P(re-executed < %3d instructions) = %.0f%%\n", th, 100*st.Prob[i])
	}
	return b.String()
}

// Table2 renders the block-type/predictability classification.
func (r *Report) Table2() string {
	st := r.train.profileData().TypeBreakdown()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: basic blocks by type (executed static / dynamic / predictable)\n")
	fmt.Fprintf(&b, "%-18s %8s %8s %12s\n", "BB Type", "Static", "Dynamic", "Predictable")
	for _, row := range st.Rows {
		fmt.Fprintf(&b, "%-18s %7.1f%% %7.1f%% %11.0f%%\n",
			row.Class, row.StaticPct, row.DynamicPct, row.PredictablePct)
	}
	fmt.Fprintf(&b, "Overall predictable transitions: %.0f%%\n", st.OverallPct)
	return b.String()
}

// HottestBlocks lists the n most-executed basic blocks of the
// training set.
func (r *Report) HottestBlocks(n int) []BlockStat { return r.train.HottestBlocks(n) }

// ---------- Section 7: method evaluation ----------

// Cache geometry note: the paper's PostgreSQL binary has a ~300 KB
// executed footprint and is evaluated with 8–64 KB i-caches. This
// reproduction's kernel image is proportionally smaller, so cache and
// CFA sizes are scaled by 1/8 (1–8 KB caches) to preserve the
// footprint-to-cache ratios; the trace cache scales from 256 to 64
// entries for the same reason.

// paperConfigs are the (cache, CFA) rows of Tables 3 and 4: the
// paper's 8/16/32/64 KB rows scaled by 1/8.
var paperConfigs = []Params{
	{CacheBytes: 1024, CFABytes: 256}, {CacheBytes: 1024, CFABytes: 512}, {CacheBytes: 1024, CFABytes: 768},
	{CacheBytes: 2048, CFABytes: 512}, {CacheBytes: 2048, CFABytes: 1024}, {CacheBytes: 2048, CFABytes: 1536},
	{CacheBytes: 4096, CFABytes: 512}, {CacheBytes: 4096, CFABytes: 1024}, {CacheBytes: 4096, CFABytes: 2048}, {CacheBytes: 4096, CFABytes: 3072},
	{CacheBytes: 8192, CFABytes: 1024}, {CacheBytes: 8192, CFABytes: 2048}, {CacheBytes: 8192, CFABytes: 3072},
}

// headline is the configuration the single-layout numbers (the Ideal
// row, sequentiality, the ablation) are quoted for.
var headline = Params{CacheBytes: 4096, CFABytes: 1024}

// traceCacheEntries is the scaled trace-cache size (paper: 256).
const traceCacheEntries = 64

// layouts builds the paper's five layouts from the training profile,
// in Algorithms order: orig, P&H, Torr, auto, ops.
func (r *Report) layouts(p Params) []*Layout {
	var out []*Layout
	for _, alg := range Algorithms(p) {
		out = append(out, must(r.train.Layout(alg)))
	}
	return out
}

// paperRow is one row of Tables 3 and 4: the test trace simulated
// under the layouts built for p.
type paperRow struct {
	p Params
	// direct is one result per layout on a direct-mapped cache; Table 3
	// reads its miss rate, Table 4 its IPC.
	direct []Result
	// The hardware alternatives on the original layout: a 2-way cache
	// and a 16-line victim buffer (Table 3), a trace cache (Table 4);
	// tcOps is the trace cache combined with the ops layout.
	twoWay, victim, tc, tcOps Result
}

// simulateRow fills one row for a cache of cacheBytes; 0 is the
// perfect cache of Table 4's Ideal row.
func (r *Report) simulateRow(p Params, cacheBytes int) paperRow {
	lays := r.layouts(p)
	orig, ops := lays[0], lays[len(lays)-1]
	sim := func(l *Layout, fc FetchConfig) Result {
		fc.CacheBytes = cacheBytes
		return must(r.test.Simulate(l, fc))
	}
	row := paperRow{
		p:      p,
		twoWay: sim(orig, FetchConfig{Ways: 2}),
		victim: sim(orig, FetchConfig{VictimEntries: 16}),
		tc:     sim(orig, FetchConfig{TraceCacheEntries: traceCacheEntries}),
		tcOps:  sim(ops, FetchConfig{TraceCacheEntries: traceCacheEntries}),
	}
	for _, l := range lays {
		row.direct = append(row.direct, sim(l, FetchConfig{}))
	}
	return row
}

// simulateRows is the sweep behind Tables 3 and 4, one goroutine per
// row: the Ideal row first, then one row per paperConfigs entry. Each
// Simulate also splits its trace across the cores, but whole rows in
// parallel are cheaper still: no chunk boundary to resolve, and traces
// too short to split keep both cores busy.
func (r *Report) simulateRows() []paperRow {
	rows := make([]paperRow, 1+len(paperConfigs))
	var wg sync.WaitGroup
	for i := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 0 {
				rows[0] = r.simulateRow(headline, 0)
			} else {
				rows[i] = r.simulateRow(paperConfigs[i-1], paperConfigs[i-1].CacheBytes)
			}
		}()
	}
	wg.Wait()
	return rows
}

// tableHead starts Table 3 or 4: the title, then "cache/CFA" and one
// column per layout, each name formatted by nameFmt.
func tableHead(b *strings.Builder, title, nameFmt string) {
	b.WriteString(title)
	fmt.Fprintf(b, "%-11s", "cache/CFA")
	for _, alg := range Algorithms(Params{}) {
		fmt.Fprintf(b, nameFmt, alg.Name())
	}
}

// rowHead labels a table row with its cache and CFA sizes in KB.
func rowHead(b *strings.Builder, p Params) {
	fmt.Fprintf(b, "%4dK/%-5.2gK", p.CacheBytes/1024, float64(p.CFABytes)/1024)
}

// Table3 renders the i-cache miss-rate table over the test trace:
// misses per 100 instructions for each layout on a direct-mapped
// cache, plus the hardware alternatives (2-way, victim) on the
// original layout.
func (r *Report) Table3() string {
	var b strings.Builder
	tableHead(&b, "Table 3: i-cache misses per 100 instructions (test set)\n", " %7s")
	fmt.Fprintf(&b, " %7s %7s\n", "2-way", "victim")
	for _, row := range r.sweep()[1:] {
		rowHead(&b, row.p)
		for _, res := range row.direct {
			fmt.Fprintf(&b, " %7.3f", res.MissesPer100Instr())
		}
		fmt.Fprintf(&b, " %7.3f %7.3f\n", row.twoWay.MissesPer100Instr(), row.victim.MissesPer100Instr())
	}
	return b.String()
}

// Table4 renders the fetch-bandwidth (IPC) table: each layout, plus
// the trace cache alone and combined with the ops layout. The Ideal
// row uses a perfect cache.
func (r *Report) Table4() string {
	var b strings.Builder
	tableHead(&b, "Table 4: fetch bandwidth in instructions per cycle (test set, 5-cycle miss penalty)\n", " %6s")
	fmt.Fprintf(&b, " %6s %7s\n", "TC", "TC+ops")
	for i, row := range r.sweep() {
		if i == 0 {
			fmt.Fprintf(&b, "%-11s", "Ideal")
		} else {
			rowHead(&b, row.p)
		}
		for _, res := range row.direct {
			fmt.Fprintf(&b, " %6.2f", res.IPC())
		}
		fmt.Fprintf(&b, " %6.2f %7.2f\n", row.tc.IPC(), row.tcOps.IPC())
	}
	return b.String()
}

// Sequentiality renders the paper's headline metric — instructions
// executed between taken branches over the test trace — for every
// layout.
func (r *Report) Sequentiality() string {
	lays := r.layouts(headline)
	sort.Slice(lays, func(a, b int) bool { return lays[a].Name() < lays[b].Name() })
	var b strings.Builder
	fmt.Fprintf(&b, "Instructions between taken branches (paper: 8.9 orig -> 22.4 ops)\n")
	for _, l := range lays {
		fmt.Fprintf(&b, "%-6s %6.1f\n", l.Name(), r.test.Sequentiality(l))
	}
	return b.String()
}

// Ablation renders the STC threshold sweep (4KB cache, 1KB CFA) — the
// paper's Section 8 future-work item: automating threshold selection.
func (r *Report) Ablation() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: STC thresholds (ops seeds, 4K cache / 1K CFA)\n")
	fmt.Fprintf(&b, "%10s %8s %8s %10s\n", "execThresh", "brThresh", "IPC", "miss/100")
	for _, execDiv := range []uint64{200000, 20000, 2000} {
		for _, branch := range []float64{0.1, 0.4, 0.7} {
			p := headline
			p.ExecThreshold = max(1, uint64(r.train.Events())/execDiv)
			p.BranchThreshold = branch
			res := must(r.test.Simulate(must(r.train.Layout(STCOps(p))), FetchConfig{CacheBytes: p.CacheBytes}))
			fmt.Fprintf(&b, "%10d %8.1f %8.2f %10.3f\n",
				p.ExecThreshold, p.BranchThreshold, res.IPC(), res.MissesPer100Instr())
		}
	}
	return b.String()
}
