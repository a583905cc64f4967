package stcpipe

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/dsdb"
	"repro/internal/fetch"
	"repro/internal/profile"
)

// Report renders the paper's evaluation from one pair of traces:
// Tables 1 and 2, Figure 2 and the reuse-distance statistics of
// Section 4's locality characterization, and Tables 3 and 4 and the
// sequentiality of Section 7's method evaluation, plus an STC
// threshold ablation. Each accessor renders one artifact in the
// paper's layout. The Section 7 artifacts are renderings of simulation
// grids (SimulateGrid): layouts trained on one profile, replayed over
// the other.
type Report struct {
	train, test *Profile
	// shared holds orig and P&H, the layouts that read no Params.
	shared []*Layout

	mu sync.Mutex
	// lays holds the five layouts built for each Params, in Algorithms
	// order.
	lays map[Params][]*Layout
	// results holds every cell simulated so far: Tables 3 and 4 share
	// their direct-mapped cells.
	results map[Cell]Result
}

// PaperTraces runs the paper's protocol up to the traces: build the
// B-tree and the hash-indexed TPC-D database, trace the training set
// (Q3,4,5,6,9) on the B-tree one and the test set
// (Q2,3,4,6,11,12,13,14,15,17) on both, in one trace. It is the
// expensive part of a Report; ReportOf renders the tables from its two
// profiles.
func PaperTraces(sf float64, seed int64, opts ...Option) (train, test *Profile, err error) {
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

// ReportOf renders the paper's tables for any two profiles recorded by
// one pipeline, whatever their sources: layouts are trained on train
// and simulated against test. The Section 4 artifacts (Table 1,
// Figure 2, Reuse, Table 2, HottestBlocks) read train alone.
func ReportOf(train, test *Profile) *Report {
	// Derived here, once: the accessors only read them (Sequentiality
	// reads test's).
	train.profileData()
	test.profileData()
	return &Report{
		train:   train,
		test:    test,
		shared:  []*Layout{must(train.Layout(Original())), must(train.Layout(PettisHansen()))},
		lays:    map[Params][]*Layout{},
		results: map[Cell]Result{},
	}
}

// must unwraps a Layout or SimulateGrid result. The report only asks
// for the paper's own configurations, which nothing but a bug can make
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

// layouts returns the paper's five layouts for p, in Algorithms order,
// each built once per report.
func (r *Report) layouts(p Params) []*Layout {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ls, ok := r.lays[p]; ok {
		return ls
	}
	ls := slices.Clone(r.shared)
	for _, alg := range Algorithms(p)[len(ls):] {
		ls = append(ls, must(r.train.Layout(alg)))
	}
	r.lays[p] = ls
	return ls
}

// simulate runs cells as one grid and returns their results in cell
// order. A cell this report has simulated before is not simulated
// again.
func (r *Report) simulate(cells []Cell) []Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	var todo []Cell
	for _, c := range cells {
		if _, ok := r.results[c]; !ok {
			todo = append(todo, c)
		}
	}
	for i, res := range must(SimulateGrid(todo)) {
		r.results[todo[i]] = res
	}
	out := make([]Result, len(cells))
	for i, c := range cells {
		out[i] = r.results[c]
	}
	return out
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
	var cells []Cell
	for _, p := range paperConfigs {
		lays := r.layouts(p)
		for _, l := range lays {
			cells = append(cells, Cell{r.test, l, FetchConfig{CacheBytes: p.CacheBytes}})
		}
		cells = append(cells,
			Cell{r.test, lays[0], FetchConfig{CacheBytes: p.CacheBytes, Ways: 2}},
			Cell{r.test, lays[0], FetchConfig{CacheBytes: p.CacheBytes, VictimEntries: 16}})
	}
	res := r.simulate(cells)
	cols := len(res) / len(paperConfigs)
	var b strings.Builder
	tableHead(&b, "Table 3: i-cache misses per 100 instructions (test set)\n", " %7s")
	fmt.Fprintf(&b, " %7s %7s\n", "2-way", "victim")
	for i, p := range paperConfigs {
		rowHead(&b, p)
		for _, x := range res[i*cols : (i+1)*cols] {
			fmt.Fprintf(&b, " %7.3f", x.MissesPer100Instr())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table4 renders the fetch-bandwidth (IPC) table: each layout, plus
// the trace cache alone and combined with the ops layout. The Ideal
// row lays out for the headline configuration and uses a perfect
// cache; the others are Table 3's rows.
func (r *Report) Table4() string {
	rows := append([]Params{headline}, paperConfigs...)
	var cells []Cell
	for i, p := range rows {
		fc := FetchConfig{CacheBytes: p.CacheBytes}
		if i == 0 {
			fc.CacheBytes = 0
		}
		lays := r.layouts(p)
		for _, l := range lays {
			cells = append(cells, Cell{r.test, l, fc})
		}
		fc.TraceCacheEntries = traceCacheEntries
		cells = append(cells, Cell{r.test, lays[0], fc}, Cell{r.test, lays[len(lays)-1], fc})
	}
	res := r.simulate(cells)
	cols := len(res) / len(rows)
	var b strings.Builder
	tableHead(&b, fmt.Sprintf("Table 4: fetch bandwidth in instructions per cycle (test set, %d-cycle miss penalty)\n", fetch.MissCycles), " %6s")
	fmt.Fprintf(&b, " %6s %7s\n", "TC", "TC+ops")
	for i, p := range rows {
		if i == 0 {
			fmt.Fprintf(&b, "%-11s", "Ideal")
		} else {
			rowHead(&b, p)
		}
		row := res[i*cols : (i+1)*cols]
		for _, x := range row[:cols-1] {
			fmt.Fprintf(&b, " %6.2f", x.IPC())
		}
		fmt.Fprintf(&b, " %7.2f\n", row[cols-1].IPC())
	}
	return b.String()
}

// Sequentiality renders the paper's headline metric — instructions
// executed between taken branches over the test trace — for every
// layout.
func (r *Report) Sequentiality() string {
	lays := slices.Clone(r.layouts(headline))
	slices.SortFunc(lays, func(a, b *Layout) int { return strings.Compare(a.Name(), b.Name()) })
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
	var ps []Params
	var cells []Cell
	for _, execDiv := range []uint64{200000, 20000, 2000} {
		for _, branch := range []float64{0.1, 0.4, 0.7} {
			p := headline
			p.ExecThreshold = max(1, uint64(r.train.Events())/execDiv)
			p.BranchThreshold = branch
			ps = append(ps, p)
			cells = append(cells, Cell{r.test, must(r.train.Layout(STCOps(p))), FetchConfig{CacheBytes: p.CacheBytes}})
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: STC thresholds (ops seeds, 4K cache / 1K CFA)\n")
	fmt.Fprintf(&b, "%10s %8s %8s %10s\n", "execThresh", "brThresh", "IPC", "miss/100")
	for i, res := range must(SimulateGrid(cells)) {
		fmt.Fprintf(&b, "%10d %8.1f %8.2f %10.3f\n",
			ps[i].ExecThreshold, ps[i].BranchThreshold, res.IPC(), res.MissesPer100Instr())
	}
	return b.String()
}
