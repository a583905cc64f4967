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
	p := &Pipeline{img: kernel.New(kernel.DefaultConfig())}
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
// derived from it. It is both the input to Layout (training role) and
// the trace replayed by Simulate (test role).
type Profile struct {
	pipe *Pipeline
	// ses is the recorder Run extends. Only a Workload's profile has
	// one; every other source's trace is immutable.
	ses  *kernel.Session
	tr   *trace.Trace
	prof *profile.Profile // lazily derived from the trace
}

// Profile records src on db — every traced query runs under a tracer
// bound to that call, so the database's own tracer is never touched —
// and returns the recorded profile. A Workload is the paper's serial
// run; see Concurrent, Served, Cached and Replayed for the rest.
func (p *Pipeline) Profile(db *dsdb.DB, src Source) (*Profile, error) {
	pl, err := src.plan(db)
	if err != nil {
		return nil, err
	}
	sess := make([]*kernel.Session, len(pl.sessions))
	for i := range sess {
		sess[i] = p.img.NewSession(p.validate)
	}
	if err := record(db, pl, sess); err != nil {
		return nil, err
	}
	pr := &Profile{pipe: p, tr: interleave(p.img.Prog, sess)}
	if _, ok := src.(Workload); ok {
		pr.ses = sess[0]
	}
	return pr, nil
}

// Run traces another workload into the same profile — the paper's
// test set, for example, runs over both the B-tree and the
// hash-indexed database within one trace.
func (pr *Profile) Run(db *dsdb.DB, w Workload) error {
	if pr.ses == nil {
		return fmt.Errorf("stcpipe: only a profile recorded from a Workload can be extended; this one is immutable")
	}
	pl, err := w.plan(db)
	if err != nil {
		return err
	}
	// Invalidate the cached derived profile up front: even a run that
	// fails partway has grown the trace.
	pr.prof = nil
	return record(db, pl, []*kernel.Session{pr.ses})
}

// profileData derives (and caches) the weighted CFG profile.
func (pr *Profile) profileData() *profile.Profile {
	if pr.prof == nil {
		pr.prof = profile.FromTrace(pr.tr)
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
	name string
	l    *program.Layout
}

// Name returns the layout's algorithm name.
func (l *Layout) Name() string { return l.name }

// Addresses returns a copy of the per-block start addresses (indexed
// by block ID) — useful for comparing what different algorithms did.
func (l *Layout) Addresses() []uint64 {
	return append([]uint64(nil), l.l.Addr...)
}

// Algorithm is a pluggable code-layout strategy.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Build produces a layout from a training profile.
	Build(pr *Profile) (*Layout, error)
}

// Layout applies an algorithm to this (training) profile.
func (pr *Profile) Layout(alg Algorithm) (*Layout, error) {
	return alg.Build(pr)
}

// Params configures the greedy sequence-building algorithms (STC and
// the Torrellas baseline). Zero values select the paper defaults:
// BranchThreshold 0.4, a 4KB cache with a 1KB conflict-free area, and
// an execution threshold fitted from the profile.
type Params struct {
	ExecThreshold   uint64
	BranchThreshold float64
	CacheBytes      int
	CFABytes        int
}

// coreParams resolves defaults against a profile.
func (p Params) coreParams(pr *Profile) (core.Params, bool) {
	cp := core.Params{
		ExecThreshold:   p.ExecThreshold,
		BranchThreshold: p.BranchThreshold,
		CacheBytes:      p.CacheBytes,
		CFABytes:        p.CFABytes,
	}
	if cp.BranchThreshold == 0 {
		cp.BranchThreshold = 0.4
	}
	if cp.CacheBytes == 0 {
		cp.CacheBytes = 4096
	}
	if cp.CFABytes == 0 {
		cp.CFABytes = 1024
	}
	fitted := cp.ExecThreshold == 0
	if fitted {
		// The paper's "most popular blocks" notion, scaled to the
		// trace length; BuildFitted refines it against the CFA budget.
		cp.ExecThreshold = pr.profileData().DynBlocks / 20000
		if cp.ExecThreshold < 4 {
			cp.ExecThreshold = 4
		}
	}
	return cp, fitted
}

// algorithm implements Algorithm via a closure.
type algorithm struct {
	name  string
	build func(pr *Profile) (*program.Layout, error)
}

func (a algorithm) Name() string { return a.name }

func (a algorithm) Build(pr *Profile) (*Layout, error) {
	l, err := a.build(pr)
	if err != nil {
		return nil, err
	}
	return &Layout{name: a.name, l: l}, nil
}

// Original returns the identity layout (the compiler's block order).
func Original() Algorithm {
	return algorithm{name: "orig", build: func(pr *Profile) (*program.Layout, error) {
		return program.OriginalLayout(pr.pipe.img.Prog), nil
	}}
}

// PettisHansen returns the Pettis & Hansen basic-block chaining and
// procedure-ordering baseline.
func PettisHansen() Algorithm {
	return algorithm{name: "P&H", build: func(pr *Profile) (*program.Layout, error) {
		return layout.PettisHansen(pr.profileData()), nil
	}}
}

// Torrellas returns the Torrellas et al. cache-mapping baseline.
func Torrellas(p Params) Algorithm {
	return algorithm{name: "Torr", build: func(pr *Profile) (*program.Layout, error) {
		cp, _ := p.coreParams(pr)
		return layout.Torrellas(pr.profileData(), cp), nil
	}}
}

// stc builds the Software Trace Cache layout from a seed set.
func stc(name string, p Params, seeds func(pr *Profile) []program.BlockID) Algorithm {
	return algorithm{name: name, build: func(pr *Profile) (*program.Layout, error) {
		cp, fitted := p.coreParams(pr)
		prof := pr.profileData()
		if fitted {
			return core.BuildFitted(name, prof, seeds(pr), cp), nil
		}
		return core.Build(name, prof, seeds(pr), cp), nil
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

// FetchConfig parameterizes the SEQ.3 fetch-unit simulation. The zero
// value is an ideal (always-hit) i-cache with 64-byte lines; no field
// may be negative.
type FetchConfig struct {
	// CacheBytes sizes the i-cache; 0 simulates a perfect cache.
	CacheBytes int
	// LineBytes is the cache line size (default 64).
	LineBytes int
	// Ways selects set associativity; 0 or 1 is direct-mapped.
	Ways int
	// VictimEntries adds a fully associative victim cache of that many
	// lines behind a direct-mapped main cache.
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
// and mask: line size, set count and trace-cache entries must be
// powers of two — naming the field at fault, and returns the line size
// with its default applied.
func (fc FetchConfig) check() (lineBytes int, err error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"CacheBytes", fc.CacheBytes}, {"Ways", fc.Ways}, {"VictimEntries", fc.VictimEntries}, {"TraceCacheEntries", fc.TraceCacheEntries}} {
		if f.v < 0 {
			return 0, fmt.Errorf("FetchConfig.%s %d is negative", f.name, f.v)
		}
	}
	lineBytes = fc.LineBytes
	if lineBytes == 0 {
		lineBytes = cache.DefaultLineBytes
	}
	if !cache.IsPowerOfTwo(lineBytes) {
		return 0, fmt.Errorf("FetchConfig.LineBytes %d is not a power of two", fc.LineBytes)
	}
	if fc.CacheBytes > 0 {
		if err := cache.CheckGeometry(fc.CacheBytes, lineBytes, fc.ways()); err != nil {
			return 0, fmt.Errorf("FetchConfig.CacheBytes %d with LineBytes %d, Ways %d: %w",
				fc.CacheBytes, lineBytes, fc.ways(), err)
		}
	}
	if fc.TraceCacheEntries > 0 {
		if err := cache.CheckTraceCache(fc.TraceCacheEntries, program.InstrBytes); err != nil {
			return 0, fmt.Errorf("FetchConfig.TraceCacheEntries: %w", err)
		}
	}
	return lineBytes, nil
}

// ways is the associativity the i-cache is built with: a victim buffer
// sits behind a direct-mapped cache whatever Ways says.
func (fc FetchConfig) ways() int {
	if fc.VictimEntries > 0 || fc.Ways == 0 {
		return 1
	}
	return fc.Ways
}

// fetchConfig builds the fetch unit that replays this profile's trace
// under l with fc's caches. A layout built for another kernel image,
// or a FetchConfig no cache can be built from, is an error.
func (pr *Profile) fetchConfig(l *Layout, fc FetchConfig) (fetch.Config, error) {
	if len(l.l.Addr) != pr.pipe.img.Prog.NumBlocks() {
		return fetch.Config{}, fmt.Errorf("layout %q was built for a different kernel image", l.name)
	}
	lineBytes, err := fc.check()
	if err != nil {
		return fetch.Config{}, err
	}
	var ic cache.ICache
	if fc.CacheBytes > 0 {
		switch ways := fc.ways(); {
		case fc.VictimEntries > 0:
			ic = cache.NewVictim(fc.CacheBytes, lineBytes, fc.VictimEntries)
		case ways > 1:
			ic = cache.NewSetAssoc(fc.CacheBytes, lineBytes, ways)
		default:
			ic = cache.NewDirectMapped(fc.CacheBytes, lineBytes)
		}
	}
	cfg := fetch.DefaultConfig(ic)
	cfg.LineBytes = lineBytes
	if fc.TraceCacheEntries > 0 {
		cfg.TC = cache.NewTraceCache(fc.TraceCacheEntries, 16, 3, program.InstrBytes)
	}
	return cfg, nil
}

// Simulate replays this profile's trace under a layout through the
// fetch unit. A FetchConfig no cache can be built from is an error.
func (pr *Profile) Simulate(l *Layout, fc FetchConfig) (Result, error) {
	cfg, err := pr.fetchConfig(l, fc)
	if err != nil {
		return Result{}, fmt.Errorf("stcpipe: %w", err)
	}
	return fetch.Simulate(pr.tr, l.l, cfg), nil
}

// Cell is one simulation of a grid: Test's trace replayed under Layout
// through the fetch unit that Fetch configures. A layout is built from
// a training profile and an algorithm's Params, so the cell names
// those too.
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
		cfg, err := c.Test.fetchConfig(c.Layout, c.Fetch)
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
// dynamic instructions executed between taken branches.
func (pr *Profile) Sequentiality(l *Layout) float64 {
	return fetch.Sequentiality(pr.tr, l.l).InstrPerTaken
}
