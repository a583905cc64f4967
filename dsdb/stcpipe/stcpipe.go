// Package stcpipe wraps the paper's Software Trace Cache toolchain as
// one composable pipeline over the public dsdb API:
//
//	pipe := stcpipe.New()
//	train, _ := pipe.Profile(db, stcpipe.Training()) // traced workload → profile
//	test, _ := pipe.Profile(db, stcpipe.Test())
//	lay, _ := train.Layout(stcpipe.STCOps(stcpipe.Params{CacheBytes: 4096, CFABytes: 1024}))
//	res, _ := test.Simulate(lay, stcpipe.FetchConfig{CacheBytes: 4096})
//
// Profile runs an instrumented workload and records the dynamic
// basic-block trace (the role ATOM instrumentation plays in the
// paper); Layout applies a pluggable code-reordering algorithm — STC,
// Pettis & Hansen, Torrellas et al., or the original layout — and
// Simulate replays a trace through the SEQ.3 fetch unit with a
// configurable i-cache and optional trace cache. An experiment over
// many layouts and caches is one SimulateGrid call over a slice of
// cells; Report renders the paper's tables from such grids.
package stcpipe

import (
	"fmt"
	"sync"

	"repro/dsdb"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fetch"
	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/tpcd"
	"repro/internal/trace"
)

// Pipeline holds the instrumented kernel image shared by every
// profile it produces: layouts built from one profile can be
// simulated against any trace recorded by the same pipeline.
type Pipeline struct {
	img      *kernel.Image
	validate bool
	// store holds the chunks sessions record into, kept across
	// profiles; a profile's trace is its own copy at its exact length.
	store trace.Storage
}

// Option configures New.
type Option func(*Pipeline)

// Validate makes every recorded trace validate online against the
// static control-flow graph (slower; used by tests).
func Validate() Option {
	return func(p *Pipeline) { p.validate = true }
}

// New creates a pipeline over a fresh kernel image.
func New(opts ...Option) *Pipeline {
	p := &Pipeline{img: kernel.New()}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Workload is a named list of SQL queries to run while tracing.
type Workload struct {
	Name    string
	Labels  []string // one per query; used as trace marks
	Queries []string
}

// SQL builds a workload from ad-hoc query text.
func SQL(name string, queries ...string) Workload {
	w := Workload{Name: name, Queries: queries}
	for i := range queries {
		w.Labels = append(w.Labels, fmt.Sprintf("%s-%d", name, i+1))
	}
	return w
}

// tpcdWorkload builds a workload from TPC-D query numbers.
func tpcdWorkload(name string, nums []int) (Workload, error) {
	w := Workload{Name: name}
	for _, n := range nums {
		q, ok := dsdb.TPCDQuery(n)
		if !ok {
			return Workload{}, fmt.Errorf("stcpipe: no TPC-D query %d (have %v)", n, dsdb.TPCDQueryNumbers())
		}
		w.Labels = append(w.Labels, fmt.Sprintf("%s-Q%d", name, n))
		w.Queries = append(w.Queries, q)
	}
	return w, nil
}

// mustTPCDWorkload backs the fixed paper sets, whose numbers are
// known-good by construction.
func mustTPCDWorkload(name string, nums []int) Workload {
	w, err := tpcdWorkload(name, nums)
	if err != nil {
		panic(err)
	}
	return w
}

// Training returns the paper's training query set (Q3,4,5,6,9).
func Training() Workload { return mustTPCDWorkload("train", tpcd.TrainingQueries) }

// Test returns the paper's test query set (Q2,3,4,6,11,12,13,14,15,17).
func Test() Workload { return mustTPCDWorkload("test", tpcd.TestQueries) }

// TPCD builds a workload from explicit TPC-D query numbers, erroring
// on numbers outside the paper's query set.
func TPCD(name string, nums ...int) (Workload, error) { return tpcdWorkload(name, nums) }

// Profile is a recorded execution: the dynamic basic-block trace of
// one or more traced workload runs, and the weighted CFG profile
// assembled from the counts its sessions took while recording it. It
// is both the input to Layout (training role) and the trace replayed
// by Simulate (test role).
type Profile struct {
	pipe *Pipeline
	// extends is set on a Workload's profile, the one Run can extend;
	// every other source's trace is immutable.
	extends bool
	tr      *trace.Trace
	// counts are the probe-pair counts of the sessions tr was recorded
	// and merged from, which the weighted CFG is assembled from.
	counts []*kernel.Counts
	prof   *profile.Profile // lazily assembled from counts
}

// Profile records src on db — every traced query runs under a tracer
// bound to that call, so the database's own tracer is never touched —
// and returns the recorded profile. A Workload is the paper's serial
// run; see Concurrent, Served, Cached and Replayed for the rest. A
// Workload's queries are recorded on one session per core when no
// query can change what another's trace reads (every page of db in its
// buffer pool, no result cache), otherwise on one; the trace is the
// serial run's either way.
func (p *Pipeline) Profile(db *dsdb.DB, src Source) (*Profile, error) {
	pl, err := src.plan(db)
	if err != nil {
		return nil, err
	}
	tr, counts, err := p.record(db, pl, nil)
	if err != nil {
		return nil, err
	}
	_, extends := src.(Workload)
	return &Profile{pipe: p, extends: extends, tr: tr, counts: counts}, nil
}

// Run traces another workload into the same profile — the paper's
// test set, for example, runs over both the B-tree and the
// hash-indexed database within one trace. A run that fails leaves the
// profile as it was.
func (pr *Profile) Run(db *dsdb.DB, w Workload) error {
	if !pr.extends {
		return fmt.Errorf("stcpipe: only a profile recorded from a Workload can be extended; this one is immutable")
	}
	pl, err := w.plan(db)
	if err != nil {
		return err
	}
	tr, counts, err := pr.pipe.record(db, pl, pr.tr)
	if err != nil {
		return err
	}
	pr.tr, pr.counts, pr.prof = tr, append(pr.counts, counts...), nil
	return nil
}

// profileData assembles (and caches) the weighted CFG profile from the
// counts the sessions took while recording; no trace is walked.
func (pr *Profile) profileData() *profile.Profile {
	if pr.prof == nil {
		pr.prof = pr.pipe.img.Profile(pr.tr, pr.counts...)
	}
	return pr.prof
}

// Events returns the number of recorded basic-block events.
func (pr *Profile) Events() int { return pr.tr.Len() }

// Instrs returns the number of dynamic instructions in the trace.
func (pr *Profile) Instrs() uint64 { return pr.tr.Instrs }

// FootprintStats is the static-vs-executed footprint (paper Table 1).
type FootprintStats = profile.FootprintStats

// Footprint computes the static-vs-executed footprint statistics.
func (pr *Profile) Footprint() FootprintStats { return pr.profileData().Footprint() }

// BlockStat describes one basic block of the executed footprint.
type BlockStat struct {
	Name       string
	Executions uint64
	Instrs     int
}

// HottestBlocks lists the n most-executed basic blocks.
func (pr *Profile) HottestBlocks(n int) []BlockStat {
	p := pr.profileData()
	blocks := p.ExecutedBlocks()
	n = max(0, min(n, len(blocks)))
	out := make([]BlockStat, 0, n)
	for _, b := range blocks[:n] {
		blk := pr.pipe.img.Prog.Block(b)
		out = append(out, BlockStat{Name: blk.Name, Executions: p.Weight(b), Instrs: blk.Size})
	}
	return out
}

// Layout is a code layout: an address for every basic block of the
// kernel image, as produced by one of the reordering algorithms.
type Layout struct {
	l *program.Layout
}

// Name returns the layout's algorithm name.
func (l *Layout) Name() string { return l.l.Name }

// Addresses returns a copy of the per-block start addresses (indexed
// by block ID) — useful for comparing what different algorithms did.
func (l *Layout) Addresses() []uint64 {
	return append([]uint64(nil), l.l.Addr...)
}

// Algorithm is a code-layout strategy: one of the paper's five,
// returned by Original, PettisHansen, Torrellas, STCAuto and STCOps.
// The zero Algorithm is none of them: Layout panics on it.
type Algorithm struct {
	name  string
	build func(pr *Profile) (*program.Layout, error)
}

// Name identifies the algorithm in reports.
func (a Algorithm) Name() string { return a.name }

// Layout applies an algorithm to this (training) profile. A layout is
// checked where it is made (program.NewLayoutFromAddrs and
// NewLayoutFromOrder): every block once, no two overlapping.
func (pr *Profile) Layout(alg Algorithm) (*Layout, error) {
	l, err := alg.build(pr)
	if err != nil {
		return nil, fmt.Errorf("stcpipe: %w", err)
	}
	return &Layout{l: l}, nil
}

// Params configures the greedy sequence-building algorithms (STC and
// the Torrellas baseline). Zero values select the paper defaults:
// BranchThreshold 0.4, a 4KB cache with a 1KB conflict-free area, and
// an execution threshold fitted from the profile. Layout fails on
// Params it cannot map: a negative size, a conflict-free area no
// smaller than the cache, or a block too large for the area outside it.
type Params struct {
	ExecThreshold   uint64
	BranchThreshold float64
	CacheBytes      int
	CFABytes        int
}

// check rejects a geometry no layout can be mapped into — a negative
// size, or a conflict-free area that leaves no room for other code —
// naming the field at fault. p has its defaults applied.
func (p Params) check() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"CacheBytes", p.CacheBytes}, {"CFABytes", p.CFABytes}} {
		if f.v < 0 {
			return fmt.Errorf("Params.%s %d is negative", f.name, f.v)
		}
	}
	if p.CFABytes >= p.CacheBytes {
		return fmt.Errorf("Params.CFABytes %d leaves no room outside the CFA in CacheBytes %d", p.CFABytes, p.CacheBytes)
	}
	return nil
}

// coreParams resolves defaults against a profile and checks the
// result.
func (p Params) coreParams(pr *Profile) (cp core.Params, fitted bool, err error) {
	if p.BranchThreshold == 0 {
		p.BranchThreshold = 0.4
	}
	if p.CacheBytes == 0 {
		p.CacheBytes = 4096
	}
	if p.CFABytes == 0 {
		p.CFABytes = 1024
	}
	if err := p.check(); err != nil {
		return core.Params{}, false, err
	}
	cp = core.Params(p)
	fitted = cp.ExecThreshold == 0
	if fitted {
		// The paper's "most popular blocks" notion, scaled to the
		// trace length; STC refines it against the CFA budget
		// (core.FitExecThreshold).
		cp.ExecThreshold = max(pr.profileData().DynBlocks/20000, 4)
	}
	return cp, fitted, nil
}

// Original returns the identity layout (the compiler's block order).
func Original() Algorithm {
	return Algorithm{name: "orig", build: func(pr *Profile) (*program.Layout, error) {
		return program.OriginalLayout(pr.pipe.img.Prog), nil
	}}
}

// PettisHansen returns the Pettis & Hansen basic-block chaining and
// procedure-ordering baseline.
func PettisHansen() Algorithm {
	return Algorithm{name: "P&H", build: func(pr *Profile) (*program.Layout, error) {
		return layout.PettisHansen(pr.profileData())
	}}
}

// Torrellas returns the Torrellas et al. cache-mapping baseline.
func Torrellas(p Params) Algorithm {
	return Algorithm{name: "Torr", build: func(pr *Profile) (*program.Layout, error) {
		cp, _, err := p.coreParams(pr)
		if err != nil {
			return nil, err
		}
		return layout.Torrellas(pr.profileData(), cp)
	}}
}

// stc builds the Software Trace Cache layout from a seed set.
func stc(name string, p Params, seeds func(pr *Profile) []program.BlockID) Algorithm {
	return Algorithm{name: name, build: func(pr *Profile) (*program.Layout, error) {
		cp, fitted, err := p.coreParams(pr)
		if err != nil {
			return nil, err
		}
		prof, s := pr.profileData(), seeds(pr)
		if fitted {
			cp.ExecThreshold = core.FitExecThreshold(prof, s, cp)
		}
		return core.Build(name, prof, s, cp)
	}}
}

// STCAuto returns the Software Trace Cache with automatically
// selected seeds (the hottest loop-free entry blocks).
func STCAuto(p Params) Algorithm {
	return stc("auto", p, func(pr *Profile) []program.BlockID {
		return core.AutoSeeds(pr.profileData())
	})
}

// STCOps returns the Software Trace Cache seeded at the kernel's
// per-tuple operation entry points, the paper's best variant.
func STCOps(p Params) Algorithm {
	return stc("ops", p, func(pr *Profile) []program.BlockID {
		return core.OpsSeeds(pr.profileData(), kernel.OpsSeedNames)
	})
}

// Algorithms returns the paper's five layouts in table order: orig,
// P&H, Torrellas, STC-auto, STC-ops.
func Algorithms(p Params) []Algorithm {
	return []Algorithm{Original(), PettisHansen(), Torrellas(p), STCAuto(p), STCOps(p)}
}

// FetchConfig selects the caches of the SEQ.3 fetch-unit simulation,
// whose lines are 64 bytes (cache.DefaultLineBytes). The zero value is
// an ideal (always-hit) i-cache. No field may be negative, and a field
// the caches would not use is an error.
type FetchConfig struct {
	// CacheBytes sizes the i-cache; 0 simulates a perfect cache.
	CacheBytes int
	// Ways selects set associativity; 0 or 1 is direct-mapped. More
	// ways need CacheBytes and no victim buffer.
	Ways int
	// VictimEntries adds a fully associative victim cache of that many
	// lines behind a direct-mapped main cache of CacheBytes.
	VictimEntries int
	// TraceCacheEntries adds a hardware trace cache in front of the
	// i-cache (paper Section 7.3); 0 disables it.
	TraceCacheEntries int
}

// Result aggregates one fetch simulation (IPC, miss rates, trace
// cache statistics).
type Result = fetch.Result

// check rejects a configuration the cache models cannot be built from
// — a negative size or count, or a shape they cannot index by shift
// and mask: set count and trace-cache entries must be powers of two —
// and one with a field build would drop: Ways or VictimEntries without
// an i-cache, or Ways beside a victim buffer, which backs a
// direct-mapped cache. The error names the field at fault.
func (fc FetchConfig) check() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"CacheBytes", fc.CacheBytes}, {"Ways", fc.Ways}, {"VictimEntries", fc.VictimEntries}, {"TraceCacheEntries", fc.TraceCacheEntries}} {
		if f.v < 0 {
			return fmt.Errorf("FetchConfig.%s %d is negative", f.name, f.v)
		}
	}
	switch {
	case fc.Ways > 1 && fc.VictimEntries > 0:
		return fmt.Errorf("FetchConfig.Ways %d with VictimEntries %d: a victim buffer backs a direct-mapped cache", fc.Ways, fc.VictimEntries)
	case fc.Ways > 1 && fc.CacheBytes == 0:
		return fmt.Errorf("FetchConfig.Ways %d without CacheBytes: the ideal cache has no sets", fc.Ways)
	case fc.VictimEntries > 0 && fc.CacheBytes == 0:
		return fmt.Errorf("FetchConfig.VictimEntries %d without CacheBytes: the ideal cache evicts nothing", fc.VictimEntries)
	}
	if fc.CacheBytes > 0 {
		if err := cache.CheckGeometry(fc.CacheBytes, cache.DefaultLineBytes, max(fc.Ways, 1)); err != nil {
			return fmt.Errorf("FetchConfig.CacheBytes %d: %w", fc.CacheBytes, err)
		}
	}
	if fc.TraceCacheEntries > 0 {
		if err := cache.CheckTraceCache(fc.TraceCacheEntries); err != nil {
			return fmt.Errorf("FetchConfig.TraceCacheEntries: %w", err)
		}
	}
	return nil
}

// build returns the fetch unit with fc's caches. A FetchConfig check
// rejects is an error. Every pipeline builds the same kernel image
// (kernel.New), so the unit replays any profile under a layout from
// any pipeline.
func (fc FetchConfig) build() (fetch.Config, error) {
	if err := fc.check(); err != nil {
		return fetch.Config{}, err
	}
	var cfg fetch.Config
	switch line := cache.DefaultLineBytes; {
	case fc.CacheBytes == 0:
	case fc.VictimEntries > 0:
		cfg.ICache = cache.NewVictim(fc.CacheBytes, line, fc.VictimEntries)
	case fc.Ways > 1:
		cfg.ICache = cache.NewSetAssoc(fc.CacheBytes, line, fc.Ways)
	default:
		cfg.ICache = cache.NewDirectMapped(fc.CacheBytes, line)
	}
	if fc.TraceCacheEntries > 0 {
		cfg.TC = cache.NewTraceCache(fc.TraceCacheEntries)
	}
	return cfg, nil
}

// Simulate replays this profile's trace under a layout through the
// fetch unit. A FetchConfig no cache can be built from is an error.
func (pr *Profile) Simulate(l *Layout, fc FetchConfig) (Result, error) {
	cfg, err := fc.build()
	if err != nil {
		return Result{}, fmt.Errorf("stcpipe: %w", err)
	}
	return fetch.Simulate(pr.tr, l.l, cfg), nil
}

// Cell is one simulation of a grid: Test's trace replayed under Layout
// through the fetch unit that Fetch configures.
type Cell struct {
	Test   *Profile
	Layout *Layout
	Fetch  FetchConfig
}

// SimulateGrid simulates every cell, one goroutine per cell, and
// returns the results in cell order: each is the cell's own
// Test.Simulate(Layout, Fetch). Every cell is checked before any is
// simulated; the first that cannot be is an error naming its index.
// The cells already keep every core busy, so each walks its trace
// serially (fetch.SimulateSerial) rather than splitting it across the
// cores as Simulate does: no chunk boundary to resolve.
func SimulateGrid(cells []Cell) ([]Result, error) {
	cfgs := make([]fetch.Config, len(cells))
	for i, c := range cells {
		cfg, err := c.Fetch.build()
		if err != nil {
			return nil, fmt.Errorf("stcpipe: cell %d: %w", i, err)
		}
		cfgs[i] = cfg
	}
	out := make([]Result, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = fetch.SimulateSerial(c.Test.tr, c.Layout.l, cfgs[i])
		}()
	}
	wg.Wait()
	return out, nil
}

// Sequentiality returns the paper's headline metric under a layout:
// dynamic instructions executed between taken branches. It reads the
// edge counts of the weighted CFG, built on the first call that needs
// it, so a further layout costs one look-up per distinct edge.
func (pr *Profile) Sequentiality(l *Layout) float64 {
	return fetch.Sequentiality(pr.profileData(), l.l).InstrPerTaken
}
