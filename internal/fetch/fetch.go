// Package fetch simulates the instruction-fetch front end used in the
// paper's evaluation (Section 7): the SEQ.3 sequential fetch unit of
// Rotenberg et al. — which delivers, per cycle, the instructions from
// the fetch address up to the first taken branch, up to three
// branches, up to 16 instructions, from at most two consecutive cache
// lines — with perfect branch prediction, a fixed i-cache miss penalty,
// and an optional trace cache in front.
//
// The simulator consumes a dynamic basic-block trace (package trace)
// and a code layout (package program): the same trace replayed under
// different layouts yields the paper's per-layout miss rates (Table 3)
// and fetch bandwidths (Table 4).
//
// # Parallel walks, exactly
//
// Simulate and Sequentiality split the trace into one chunk per core
// (GOMAXPROCS), each at least minChunk block events; a shorter trace,
// or GOMAXPROCS 1, is one chunk and the plain serial loop. Sequentiality
// is a sum: each chunk counts its blocks and the taken transition out
// of its last one.
//
// Simulate is speculation, verified. The fetch unit is a deterministic
// state machine over the stream position (block event and offset) and
// the cache state, so two runs that start a fetch at the same position
// in the same state take the same path from there and gather the same
// counters. Phase 1 walks every chunk concurrently: the first from the
// configured caches, reset, every later one from empty caches of the
// same geometry. Phase 2 joins the chunks in order. The true run —
// the first chunk's, carried on — walks into the next chunk beside a
// fresh cold re-run of that chunk's phase-1 walk, the one behind always
// advancing, until both start a fetch at one position in states from
// which the phase-1 walk's path is provably the true one. The true run
// then takes the phase-1 end state and its counters are the true prefix
// plus the phase-1 total less the re-run's prefix. Provably the same
// path means equal i-caches (cache.ICache.Equal), or a cold cache that
// agrees with the true one wherever it holds anything (cache.Partial),
// the true contents filling in the rest and the first accesses they
// turn into hits counted back; a trace-cache line that differs and is
// looked up again may change the path, so the join then stops at the
// last phase-1 snapshot before that lookup and goes on from there. If
// the states do not converge within a sixteenth of the chunk, the true
// run walks the rest of the chunk itself: the result is still exact,
// and only that chunk loses its speed-up. The direct-mapped cache is
// a cache.Partial and joins within a few fetches; the set-associative
// and victim caches join only when Equal, which one LRU set the chunk
// rarely visits can put off past the budget.
//
// The split serves one simulation at a time: without it a seed-42
// stc_pipeline benchmark run loses about a third of its throughput. A
// caller that already runs one simulation per core gains nothing from
// it and pays for the joins, so SimulateSerial is the one-chunk walk,
// and stcpipe.SimulateGrid runs every cell through it. Over `go run
// ./cmd/experiments` (SF 0.002, seed 42, 2-core Xeon, 12 alternating
// pairs) that took the median wall time from 5.22 s to 4.41 s
// (quartiles 4.62–5.40 s → 4.08–4.70 s, faster in 11 of 12 pairs),
// with byte-identical output.
//
// # Runs
//
// A fetch never crosses a taken transfer, so without a trace cache a
// walk goes one sequential run at a time: the block events from one
// taken transfer's target up to the next taken transfer. Under a layout
// in which no two blocks start at one address (every valid layout),
// each later block of a run is the one laid out where the previous one
// ends, so a run is fixed by its key, its first block and its length in
// blocks, and its SEQ.3 fetches are the same on every occurrence. The
// first time a walker meets a key it fetches the run with seq3 and
// keeps its counters and its line accesses, less every access to the
// line the access just before it touched: that one hits and changes no
// state (see cache.ICache), and LineAccesses still counts it. Every
// later occurrence adds the counters and replays only the kept
// accesses. A walk that starts or stops inside a run — a chunk start, a
// join's stride or lockstep stop, an offset within a block — fetches
// that run one fetch at a time. The trace cache steers the path by what
// it holds, so a walk with one keeps the per-fetch loop throughout.
package fetch

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/program"
	"repro/internal/trace"
)

// Config parameterizes one simulation. Width, MaxBranches and MaxLines
// mean their SEQ.3 value (in parentheses) when not positive.
type Config struct {
	// Width is the maximum instructions delivered per fetch (16).
	Width int
	// MaxBranches is the per-fetch branch limit (3). All branch kinds
	// count: conditional, unconditional, calls and returns.
	MaxBranches int
	// MaxLines is the number of consecutive cache lines a fetch may
	// span (2).
	MaxLines int
	// MissPenalty is the extra cycles charged per missing line (5).
	MissPenalty uint64
	// ICache is the instruction cache; nil simulates a perfect cache
	// (the paper's "Ideal" rows).
	ICache cache.ICache
	// TC is an optional trace cache consulted before the i-cache; a
	// trace-cache hit delivers its whole trace in one cycle with no
	// miss penalty.
	TC *cache.TraceCache
	// LineBytes is the cache line size; defaulted from ICache, or 64.
	LineBytes int
}

// DefaultConfig returns the paper's SEQ.3 setup over the given cache.
func DefaultConfig(ic cache.ICache) Config {
	return Config{
		Width:       16,
		MaxBranches: 3,
		MaxLines:    2,
		MissPenalty: 5,
		ICache:      ic,
	}
}

func (c *Config) lineBytes() uint64 {
	if c.LineBytes > 0 {
		return uint64(c.LineBytes)
	}
	if c.ICache != nil {
		return uint64(c.ICache.LineBytes())
	}
	return cache.DefaultLineBytes
}

// Result aggregates one simulation run.
type Result struct {
	Instrs       uint64 // dynamic instructions delivered
	Fetches      uint64 // fetch requests (cycles without penalties)
	Cycles       uint64 // total cycles including miss penalties
	LineAccesses uint64 // i-cache line accesses
	LineMisses   uint64 // i-cache line misses
	TCHits       uint64 // trace-cache hits
	TCMisses     uint64 // trace-cache misses
	TCInstrs     uint64 // instructions delivered by the trace cache
}

// IPC is the fetch bandwidth in instructions per cycle (Table 4).
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Cycles)
}

// IdealIPC is the bandwidth assuming every access hits (instructions
// per fetch request).
func (r Result) IdealIPC() float64 {
	if r.Fetches == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Fetches)
}

// MissesPer100Instr is the paper's Table 3 metric: i-cache misses per
// instruction executed, in percent.
func (r Result) MissesPer100Instr() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return 100 * float64(r.LineMisses) / float64(r.Instrs)
}

// blockInfo is what the simulator needs of one basic block under one
// layout, packed so that a block event costs one load.
type blockInfo struct {
	addr   uint64 // start address (layout)
	size   int32  // instruction count, >= 1
	branch bool   // ends in a branch (any kind but fall-through)
}

// end is the first address past the block.
func (b *blockInfo) end() uint64 { return b.addr + uint64(b.size)*program.InstrBytes }

// stream is a cursor over a dynamic trace under a given layout. A
// block's instructions are contiguous, so everything that consumes the
// stream — the SEQ.3 fetch, the trace-cache hit test and its fill unit
// — moves over it a run of instructions at a time, never one by one.
type stream struct {
	blocks []program.BlockID
	info   []blockInfo // indexed by BlockID
	idx    int         // current block index within blocks
	off    int32       // instruction offset within the current block
}

func newStream(t *trace.Trace, l *program.Layout) *stream {
	p := t.Program()
	s := &stream{blocks: t.Blocks, info: make([]blockInfo, p.NumBlocks())}
	for i := range s.info {
		b := p.Block(program.BlockID(i))
		s.info[i] = blockInfo{
			addr:   l.Addr[i],
			size:   int32(b.Size),
			branch: b.Kind != program.KindFallThrough,
		}
	}
	return s
}

// done reports whether the stream is exhausted.
func (s *stream) done() bool { return s.idx >= len(s.blocks) }

// cur returns the address of the current instruction.
func (s *stream) cur() uint64 {
	return s.info[s.blocks[s.idx]].addr + uint64(s.off)*program.InstrBytes
}

// Simulate runs the fetch engine over the whole trace under the given
// layout and configuration. Width, MaxBranches and MaxLines take the
// SEQ.3 defaults when not positive, as LineBytes does; the line size
// must be a power of two. The trace is split into one chunk per core
// (see the package comment); the result is the serial walk's, exactly.
func Simulate(t *trace.Trace, l *program.Layout, cfg Config) Result {
	return simulate(t, l, cfg, chunkCount(t.Len()))
}

// SimulateSerial is Simulate as one walk on the calling goroutine: no
// chunks, no join, the same Result. It is for callers that already run
// one simulation per core, as stcpipe.SimulateGrid does (see the
// package comment).
func SimulateSerial(t *trace.Trace, l *program.Layout, cfg Config) Result {
	return simulate(t, l, cfg, 1)
}

// minChunk is the fewest block events a chunk of a parallel walk
// covers: a shorter chunk would not repay its goroutine and the fetches
// its boundary takes to resolve.
const minChunk = 1 << 16

// chunkCount is the number of chunks a walk over that many block events
// is split into: one per core the scheduler may use, each at least
// minChunk long.
func chunkCount(events int) int {
	return max(1, min(runtime.GOMAXPROCS(0), events/minChunk))
}

// chunkStart is the first block event of chunk k of n over events.
func chunkStart(k, n, events int) int { return k * events / n }

// parallel calls f(0) through f(n-1) concurrently, f(0) on the calling
// goroutine, and returns when all have.
func parallel(n int, f func(k int)) {
	var wg sync.WaitGroup
	for k := 1; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(k)
		}()
	}
	f(0)
	wg.Wait()
}

// simulate is Simulate over a given number of chunks (capped at one
// per block event). Phase 1 walks every chunk concurrently, the first
// from cfg's reset caches, every later one from empty clones. Phase 2
// joins the chunks in order onto the first one's true run.
func simulate(t *trace.Trace, l *program.Layout, cfg Config, chunks int) Result {
	def := DefaultConfig(nil)
	if cfg.Width <= 0 {
		cfg.Width = def.Width
	}
	if cfg.MaxBranches <= 0 {
		cfg.MaxBranches = def.MaxBranches
	}
	if cfg.MaxLines <= 0 {
		cfg.MaxLines = def.MaxLines
	}
	lineBytes := cfg.lineBytes()
	if lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("fetch: line size %d is not a power of two", lineBytes))
	}
	s := newStream(t, l)
	u := unit{cfg: &cfg, lineShift: uint(bits.TrailingZeros64(lineBytes)),
		runs: cfg.TC == nil && startsDistinct(s.info)}
	events := len(s.blocks)
	chunks = max(1, min(chunks, events))
	start := func(k int) pos { return pos{chunkStart(k, chunks, events), 0} }
	if cfg.ICache != nil {
		cfg.ICache.Reset()
	}
	if cfg.TC != nil {
		cfg.TC.Reset()
	}
	ws := make([]walker, chunks)
	snaps := make([][]walker, chunks)
	ws[0] = walker{stream: *s, ic: cfg.ICache, tc: cfg.TC}
	// Each chunk's caches are made on the goroutine that walks them: the
	// allocator serves each P from its own spans, so two walkers' small
	// cache arrays do not share a cache line that both keep writing.
	parallel(chunks, func(k int) {
		if k > 0 {
			ws[k] = u.cold(s, start(k))
		}
		snaps[k] = u.speculate(&ws[k], start(k+1), k > 0 && cfg.TC != nil)
	})
	for k := 1; k < chunks; k++ {
		u.join(&ws[0], &ws[k], snaps[k], s, start(k), start(k+1))
	}
	return ws[0].r
}

// unit is the fetch unit a simulation runs: its configuration, with
// the defaults applied, the line size as a shift, and whether its walks
// go a run at a time (see the package comment).
type unit struct {
	cfg       *Config
	lineShift uint
	runs      bool
}

// startsDistinct reports whether no two blocks start at one address, as
// under every valid layout: then the block a fall-through leads to is
// the one laid out at the previous block's end.
func startsDistinct(info []blockInfo) bool {
	addrs := make([]uint64, len(info))
	for i := range info {
		addrs[i] = info[i].addr
	}
	slices.Sort(addrs)
	for i := 1; i < len(addrs); i++ {
		if addrs[i] == addrs[i-1] {
			return false
		}
	}
	return true
}

// pos is a position in the stream: a block event and an instruction
// offset within it. Fetches start at positions in increasing order.
type pos struct {
	idx int
	off int32
}

func (p pos) less(q pos) bool { return p.idx < q.idx || p.idx == q.idx && p.off < q.off }

// walker is one run of the fetch unit: its own cursor over the shared
// stream, the caches it fills and the counters it has gathered.
type walker struct {
	stream
	ic   cache.ICache
	tc   *cache.TraceCache
	r    Result
	fill []cache.Run // trace-cache fill buffer
	memo *runMemo    // the runs this walker has fetched, made on first use
}

func (w *walker) at() pos { return pos{w.idx, w.off} }

// copy returns w with caches of its own in the same state.
func (w *walker) copy() walker {
	c := walker{stream: w.stream, r: w.r}
	if w.ic != nil {
		c.ic = w.ic.Copy()
	}
	if w.tc != nil {
		c.tc = w.tc.Copy()
	}
	return c
}

// cold returns a walker at p with empty caches of the unit's geometry.
func (u unit) cold(s *stream, p pos) walker {
	w := walker{stream: *s}
	w.idx, w.off = p.idx, p.off
	if u.cfg.ICache != nil {
		w.ic = u.cfg.ICache.Clone()
	}
	if u.cfg.TC != nil {
		w.tc = u.cfg.TC.Clone()
	}
	return w
}

// run fetches until the next fetch would start at or after stop, which
// must not lie past the end of the stream: a run at a time if the unit
// walks runs, else one fetch at a time.
func (u unit) run(w *walker, stop pos) {
	if !u.runs {
		u.fetches(w, stop)
		return
	}
	if w.memo == nil {
		w.memo = newRunMemo(len(w.info))
	}
	s, m, ic := &w.stream, w.memo, w.ic
	dm, _ := ic.(*cache.DirectMapped)
	// The replayed runs are summed apart: a run fetched one fetch at a
	// time adds to w.r itself.
	var instrs, fetches, accesses, misses uint64
	for (pos{s.idx, s.off}).less(stop) {
		end := pos{s.runEnd(s.idx), 0}
		if stop.less(end) {
			u.fetches(w, stop) // the walk ends inside this run
			break
		}
		if s.off != 0 {
			u.fetches(w, end)
			continue
		}
		first, n := s.blocks[s.idx], end.idx-s.idx
		k := int32(0)
		if n <= runTable {
			k = m.table[int(first)*runTable+n-1]
		}
		if k == 0 {
			k = m.add(u, s, end.idx, ic)
		}
		f := &m.runs[k-1]
		instrs += f.instrs
		fetches += f.fetches
		accesses += f.accesses
		switch lines := m.lines[f.from:f.to]; {
		case dm != nil:
			for _, a := range lines {
				if !dm.Access(a) {
					misses++
				}
			}
		case ic != nil:
			for _, a := range lines {
				if !ic.Access(a) {
					misses++
				}
			}
		}
		s.idx = end.idx
	}
	r := &w.r
	r.Instrs += instrs
	r.Fetches += fetches
	r.Cycles += fetches + misses*u.cfg.MissPenalty
	r.LineAccesses += accesses
	r.LineMisses += misses
}

// runEnd is the block event after the run that event i lies in: the
// target of the next taken transfer, or the end of the stream.
func (s *stream) runEnd(i int) int {
	blocks, info := s.blocks, s.info
	at := info[blocks[i]].end()
	for i++; i < len(blocks); i++ {
		bi := &info[blocks[i]]
		if bi.addr != at {
			break
		}
		at = bi.end()
	}
	return i
}

// runTable is the longest run, in blocks, that a runMemo's flat table
// holds; longer ones go through its overflow map.
const runTable = 16

// runMemo is what one walker keeps of the runs it has fetched. A run is
// found by its key: through a flat table for up to runTable blocks,
// through a map beyond. Everything is appended to a few slices, so a
// walk makes a handful of allocations however many runs it meets.
type runMemo struct {
	table []int32          // [first*runTable + n-1]: 1 + index into runs, or 0
	long  map[runKey]int32 // the same for runs longer than runTable
	runs  []runFetches
	lines []uint64 // the runs' kept line accesses, back to back
}

// runKey is a run's first block and its length in block events.
type runKey struct {
	first program.BlockID
	n     int
}

// runFetches is one run's SEQ.3 fetches: its counters, and the
// addresses of the line accesses to replay, lines[from:to].
type runFetches struct {
	instrs, fetches, accesses uint64
	from, to                  int
}

func newRunMemo(blocks int) *runMemo {
	return &runMemo{table: make([]int32, blocks*runTable),
		runs: make([]runFetches, 0, 32), lines: make([]uint64, 0, 128)}
}

// add finds the run from the stream's current block event, at offset
// 0, to event end when the table does not hold it: in the overflow map,
// or, the first time the walker meets it, by fetching it. It returns 1
// + the run's index in runs. The stream does not move.
func (m *runMemo) add(u unit, s *stream, end int, ic cache.ICache) int32 {
	key := runKey{s.blocks[s.idx], end - s.idx}
	if k, ok := m.long[key]; ok {
		return k
	}
	m.runs = append(m.runs, m.fetch(u, *s, end, ic))
	k := int32(len(m.runs))
	if key.n <= runTable {
		m.table[int(key.first)*runTable+key.n-1] = k
	} else {
		if m.long == nil {
			m.long = make(map[runKey]int32)
		}
		m.long[key] = k
	}
	return k
}

// fetch walks s, a copy of the walker's cursor, through the run that
// ends at block event end with seq3, and keeps the line accesses the
// per-fetch loop would make, less each one to the cache line of the
// access just before it. The i-cache is not touched.
func (m *runMemo) fetch(u unit, s stream, end int, ic cache.ICache) runFetches {
	f := runFetches{from: len(m.lines), to: len(m.lines)}
	var lineBytes uint64
	if ic != nil {
		lineBytes = uint64(max(1, ic.LineBytes()))
	}
	keep := func(a uint64) {
		f.accesses++
		if f.to == f.from || m.lines[f.to-1]/lineBytes != a/lineBytes {
			m.lines = append(m.lines, a)
			f.to++
		}
	}
	for s.idx < end {
		fetchAddr := s.cur()
		n, lastAddr := s.seq3(u.cfg, fetchAddr, u.lineShift)
		f.instrs += uint64(n)
		f.fetches++
		if ic != nil {
			keep(fetchAddr)
			if lastAddr>>u.lineShift != fetchAddr>>u.lineShift {
				keep(lastAddr)
			}
		}
	}
	return f
}

// fetches is run one fetch at a time, the trace cache first if there is
// one.
func (u unit) fetches(w *walker, stop pos) {
	cfg, lineShift := u.cfg, u.lineShift
	s := &w.stream
	ic, tc := w.ic, w.tc
	r, tcFill := w.r, w.fill
	for (pos{s.idx, s.off}).less(stop) {
		fetchAddr := s.cur()
		// Trace cache first: a hit delivers the stored trace in one
		// cycle, bypassing the i-cache.
		if tc != nil {
			if n, hit := s.takeTrace(tc.Lookup(fetchAddr)); hit {
				r.Instrs += uint64(n)
				r.TCInstrs += uint64(n)
				r.TCHits++
				r.Fetches++
				r.Cycles++
				continue
			}
			r.TCMisses++
			// Fill the trace cache from the actual dynamic stream:
			// up to MaxInstrs instructions / MaxBranches branches.
			tcFill = s.traceFill(tc, tcFill[:0])
		}
		// SEQ.3 i-cache fetch.
		n, lastAddr := s.seq3(cfg, fetchAddr, lineShift)
		r.Instrs += uint64(n)
		r.Fetches++
		r.Cycles++
		if ic != nil {
			misses := uint64(0)
			r.LineAccesses++
			if !ic.Access(fetchAddr) {
				misses++
			}
			if lastAddr>>lineShift != fetchAddr>>lineShift {
				r.LineAccesses++
				if !ic.Access(lastAddr) {
					misses++
				}
			}
			r.LineMisses += misses
			r.Cycles += misses * cfg.MissPenalty
		}
		if tc != nil {
			tc.Fill(fetchAddr, tcFill)
		}
	}
	w.r, w.fill = r, tcFill
}

// snapshots is how many copies of its state a phase-1 walk keeps, at
// evenly spaced block events, when a trace cache is simulated: a join
// whose true state may still steer the walk's path further ahead jumps
// to the last one before that point (see converge).
const snapshots = 32

// speculate walks w to stop, which must not lie past the end of the
// stream, and returns the copies of its state it kept on the way, in
// stream order, if keep is set.
func (u unit) speculate(w *walker, stop pos, keep bool) []walker {
	snaps := make([]walker, 0, snapshots)
	for j, from, last := 1, w.idx, w.at(); keep && j <= snapshots; j++ {
		u.run(w, pos{from + j*(stop.idx-from)/(snapshots+1), 0})
		if last.less(w.at()) && w.at().less(stop) {
			snaps, last = append(snaps, w.copy()), w.at()
		}
	}
	u.run(w, stop)
	return snaps
}

// firstCheck is how many fetches a join's cold run makes before the
// join first tries to converge; the interval doubles after every try
// that fails, up to maxCheck, so a join that could converge at fetch F
// tries O(log F + F/maxCheck) times and succeeds by fetch
// F + min(F, maxCheck) + 16.
const (
	firstCheck = 16
	maxCheck   = 4096
)

// stride is how many block events the true run of a join takes at a
// time while the cold run keeps pace with it.
const stride = 64

// join carries the true run w, which ended at the first fetch start at
// or after chunk boundary start, through the chunk [start, stop) that
// spec walked from empty caches in phase 1, keeping snaps. A fresh cold
// run c retraces spec's steps beside w, the one behind always
// advancing, until the two start a fetch at the same position in
// states from which spec's path is provably w's: to the end of the
// chunk, or to a snapshot, from which c goes on (see converge). If c
// walks a sixteenth of the chunk without converging, w walks the rest
// of the chunk itself.
func (u unit) join(w, spec *walker, snaps []walker, s *stream, start, stop pos) {
	c := u.cold(s, start)
	c.memo = spec.memo // spec's walk is over: the runs it met are c's

	budget, from := (stop.idx-start.idx)/16, start.idx
	check, gap := uint64(0), uint64(firstCheck)
	for w.at().less(stop) {
		switch wp, cp := w.at(), c.at(); {
		case cp.idx-from >= budget:
			u.run(w, stop)
		case wp.less(cp):
			u.run(w, cp)
		case cp.less(wp):
			u.run(&c, wp)
		case c.r.Fetches >= check && u.converge(w, &c, spec, &snaps):
			from, check, gap = c.idx, c.r.Fetches+firstCheck, 2*firstCheck
		default:
			if c.r.Fetches >= check {
				check, gap = c.r.Fetches+gap, min(2*gap, maxCheck)
			}
			u.run(w, pos{min(wp.idx+stride, stop.idx), 0})
		}
	}
}

// converge moves the true run w onto spec's, at a position where w and
// the cold re-run c of spec both start a fetch, if spec's path from
// here is provably w's: w takes spec's end state and the counters spec
// gathered from here on (spec's total less c's), and converge reports
// true.
//
// For the i-cache that holds when the caches are Equal, and for a
// cache.Partial also when c's Covers w's: c differs from w only in the
// entries c has not touched yet, and spec touches each of them for the
// first time after this point. A first access that w's state turns
// into a hit changes a counter, not the path, and is counted here
// (FirstHits); the entries spec never touched keep w's content.
//
// A trace-cache line in which c and w differ may steer the path at its
// next lookup (Hazard). While one of them is looked up ahead, w moves
// only to the last snapshot before that lookup, and c goes on from
// that snapshot. The lines not touched on the way keep w's traces.
func (u unit) converge(w, c, spec *walker, snaps *[]walker) bool {
	if p, ok := c.ic.(cache.Partial); ok && !p.Covers(w.ic) || !ok && w.ic != nil && !c.ic.Equal(w.ic) {
		return false
	}
	to, next := spec, len(*snaps)
	if w.tc != nil {
		rest := *snaps
		// state(j) is spec's state at snapshot j, or at its end.
		state := func(j int) *walker {
			if j == len(rest) {
				return spec
			}
			return &rest[j]
		}
		for i := range w.tc.Entries() {
			if !spec.tc.Hazard(c.tc, w.tc, i) {
				continue
			}
			next = min(next, sort.Search(len(rest)+1, func(j int) bool { return state(j).tc.Touched(c.tc, i) })-1)
		}
		if next < len(rest) {
			if next < 0 || !c.at().less(rest[next].at()) {
				return false
			}
			cp := rest[next].copy()
			to = &cp
		}
	}
	hits := uint64(0)
	if p, ok := to.ic.(cache.Partial); ok {
		hits = uint64(p.FirstHits(c.ic, w.ic))
		p.Underlay(w.ic)
	}
	if w.tc != nil {
		to.tc.Underlay(c.tc, w.tc)
	}
	r := w.r.plus(to.r).minus(c.r)
	r.LineMisses -= hits
	r.Cycles -= hits * u.cfg.MissPenalty
	*w = walker{stream: to.stream, ic: to.ic, tc: to.tc, r: r, fill: w.fill, memo: w.memo}
	if to != spec {
		*c = (*snaps)[next]
		*snaps = (*snaps)[next+1:]
	}
	return true
}

// plus returns r + o, counter by counter.
func (r Result) plus(o Result) Result {
	return Result{r.Instrs + o.Instrs, r.Fetches + o.Fetches, r.Cycles + o.Cycles,
		r.LineAccesses + o.LineAccesses, r.LineMisses + o.LineMisses,
		r.TCHits + o.TCHits, r.TCMisses + o.TCMisses, r.TCInstrs + o.TCInstrs}
}

// minus returns r - o, counter by counter; o is a prefix of r's run,
// so no counter goes negative.
func (r Result) minus(o Result) Result {
	return Result{r.Instrs - o.Instrs, r.Fetches - o.Fetches, r.Cycles - o.Cycles,
		r.LineAccesses - o.LineAccesses, r.LineMisses - o.LineMisses,
		r.TCHits - o.TCHits, r.TCMisses - o.TCMisses, r.TCInstrs - o.TCInstrs}
}

// seq3 performs one SEQ.3 fetch from the current stream position,
// whose address is fetchAddr, advancing the stream. It returns the
// number of instructions delivered and the address of the last one.
// Each step takes what is left of the current block, of the fetch
// width, or of the lines the fetch may span, whichever is least.
func (s *stream) seq3(cfg *Config, fetchAddr uint64, lineShift uint) (int, uint64) {
	// limit is the first address past the lines the fetch may span.
	limit := (fetchAddr>>lineShift + uint64(cfg.MaxLines)) << lineShift
	width := int32(min(cfg.Width, math.MaxInt32))
	blocks, info := s.blocks, s.info
	idx, off := s.idx, s.off
	n := int32(0)
	branches := 0
	lastAddr := fetchAddr
	for idx < len(blocks) && n < width {
		bi := &info[blocks[idx]]
		a := bi.addr + uint64(off)*program.InstrBytes
		if a >= limit {
			break // would leave the consecutive lines
		}
		rest := bi.size - off
		step := min(rest, width-n)
		// Instructions of this block that start below limit.
		if room := (limit - a + program.InstrBytes - 1) / program.InstrBytes; uint64(step) > room {
			step = int32(room)
		}
		n += step
		lastAddr = a + uint64(step-1)*program.InstrBytes
		if step < rest {
			off += step // out of width or of lines
			break
		}
		// Block terminator delivered: classify the transition.
		idx++
		off = 0
		if bi.branch {
			branches++
		}
		if idx == len(blocks) {
			break
		}
		if info[blocks[idx]].addr != lastAddr+program.InstrBytes {
			break // fetch stops at the first taken control transfer
		}
		if branches >= cfg.MaxBranches {
			break
		}
	}
	s.idx, s.off = idx, off
	return int(n), lastAddr
}

// takeTrace is the trace-cache hit test: if the stored runs are
// exactly what the stream executes next it consumes them and returns
// their instruction count; otherwise (stored branch outcomes diverge
// from the actual path, the trace ends first, or there is no stored
// trace) the stream is left where it was.
func (s *stream) takeTrace(runs []cache.Run) (int, bool) {
	if len(runs) == 0 {
		return 0, false
	}
	idx, off := s.idx, s.off
	n := int32(0)
	for _, r := range runs {
		a, need := r.Addr, r.N
		for need > 0 {
			if idx == len(s.blocks) {
				return 0, false
			}
			bi := &s.info[s.blocks[idx]]
			if bi.addr+uint64(off)*program.InstrBytes != a {
				return 0, false
			}
			step := min(need, bi.size-off)
			need -= step
			a += uint64(step) * program.InstrBytes
			if off += step; off == bi.size {
				idx++
				off = 0
			}
		}
		n += r.N
	}
	s.idx, s.off = idx, off
	return int(n), true
}

// traceFill collects the trace-cache line starting at the current
// stream position: up to MaxInstrs instructions and MaxBranches branch
// instructions, following the actual dynamic path (taken branches
// included — that is the point of a trace cache), one run per block
// entered.
func (s *stream) traceFill(tc *cache.TraceCache, buf []cache.Run) []cache.Run {
	idx, off := s.idx, s.off
	room := int32(tc.MaxInstrs())
	branches := 0
	for room > 0 && idx < len(s.blocks) {
		bi := &s.info[s.blocks[idx]]
		rest := bi.size - off
		step := min(rest, room)
		buf = append(buf, cache.Run{Addr: bi.addr + uint64(off)*program.InstrBytes, N: step})
		room -= step
		if step < rest {
			break
		}
		if bi.branch {
			if branches++; branches >= tc.MaxBranches() {
				break
			}
		}
		idx++
		off = 0
	}
	return buf
}

// SequentialityStats summarizes how sequential a layout renders the
// dynamic instruction stream: the number of taken control transfers
// (address discontinuities) and the paper's headline metric,
// instructions executed between taken branches (8.9 for the original
// PostgreSQL layout, 22.4 after STC reordering).
type SequentialityStats struct {
	Instrs        uint64
	Taken         uint64
	Transitions   uint64
	InstrPerTaken float64
}

// Sequentiality computes SequentialityStats for a trace under a layout,
// summing one chunk per core.
func Sequentiality(t *trace.Trace, l *program.Layout) SequentialityStats {
	return sequentiality(t, l, chunkCount(t.Len()))
}

// sequentiality is Sequentiality over a given number of chunks. Each
// chunk counts its blocks' instructions and the taken transitions out
// of them, the one into the next chunk's first block included.
func sequentiality(t *trace.Trace, l *program.Layout, chunks int) SequentialityStats {
	info := newStream(t, l).info
	blocks := t.Blocks
	chunks = max(1, min(chunks, len(blocks)))
	parts := make([]SequentialityStats, chunks)
	parallel(chunks, func(k int) {
		var instrs, taken uint64
		for i, end := chunkStart(k, chunks, len(blocks)), chunkStart(k+1, chunks, len(blocks)); i < end; i++ {
			bi := &info[blocks[i]]
			instrs += uint64(bi.size)
			if i+1 < len(blocks) && info[blocks[i+1]].addr != bi.end() {
				taken++
			}
		}
		parts[k] = SequentialityStats{Instrs: instrs, Taken: taken}
	})
	var st SequentialityStats
	for _, p := range parts {
		st.Instrs += p.Instrs
		st.Taken += p.Taken
	}
	if len(blocks) > 1 {
		st.Transitions = uint64(len(blocks) - 1)
	}
	if st.Taken > 0 {
		st.InstrPerTaken = float64(st.Instrs) / float64(st.Taken)
	} else {
		st.InstrPerTaken = float64(st.Instrs)
	}
	return st
}
