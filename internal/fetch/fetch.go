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
// Simulate splits the trace into one chunk per core (GOMAXPROCS), each
// at least 64 K block events (chunkCount), when the i-cache is ideal or
// direct-mapped (split); a shorter trace, GOMAXPROCS 1, or any other
// i-cache is one chunk and the plain serial loop. Sequentiality walks
// no trace: whether a transition is taken depends only on its two
// blocks, so it reads the edge counts of a profile, which the kernel
// assembles from the probe-pair counts taken while recording
// (kernel.Image.Profile), and a layout costs one fall-through look-up
// per distinct edge.
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
// path means an ideal i-cache, or a cold direct-mapped one that agrees
// with the true one wherever it holds anything (cache.DirectMapped's
// Covers), the true contents filling in the rest (Underlay) and the
// first accesses they turn into hits counted back (FirstHits); a
// trace-cache line that differs and is looked up again may change the
// path, so the join then stops at the last phase-1 snapshot before
// that lookup and goes on from there. A
// phase-1 walk with a trace cache keeps 128 snapshots, one every 1/129
// of its chunk: each line that differs costs the join a walk from the
// snapshot before its next lookup to that lookup, so the spacing bounds
// the join; a layout whose trace cache holds many rarely looked-up
// lines needs the dense spacing. A line holds block IDs and the copies'
// storage comes in blocks (cache.TraceCache.Copy), so a snapshot is a
// few kilobytes and well under one allocation. If the states do not
// converge within a sixteenth of the chunk after the last convergence,
// the true run walks the rest of the chunk itself: the result is still
// exact, and only that chunk loses its speed-up. The direct-mapped
// cache joins within a few fetches. A set-associative or victim cache
// could join only once its state equalled the true one, which one LRU
// set the chunk rarely visits can put off past the budget; on the paper
// trace such walks fell through at about serial speed, so they are not
// split at all.
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
// A layout places every block once and no two blocks overlap;
// program's layout constructors refuse any other. So a block's follow,
// the block laid out where it ends, can only be the next block in the
// layout's address order (Layout.Order), and the follow table is one
// pass over that order. A transition from b to c is not taken exactly
// when c is b's follow.
//
// A fetch never crosses a taken transfer, so without a trace cache a
// walk goes one sequential run at a time: the block events from one
// taken transfer's target up to the next taken transfer. Each later
// block of a run is its predecessor's follow, so a run is fixed by its
// key, its first block and its length in blocks, and its SEQ.3 fetches
// are the same on every occurrence. The first time a walker meets a key
// it fetches the run with seq3 and keeps its counters and its line
// accesses, less every access to the line the access just before it
// touched: that one hits and changes no state (see cache.ICache), and
// LineAccesses still counts it. Every later occurrence is counted and
// replays only the kept accesses, in order; a call of unit.run adds
// each run's counters once, times its count. A walk that starts or
// stops inside a run — a chunk start, a join's stride or lockstep stop,
// an offset within a block — fetches that run one fetch at a time.
//
// The trace cache steers the path by what it holds, so a walk with one
// goes a fetch at a time. A trace-cache line holds the block IDs its
// trace enters, so a hit compares IDs and moves the cursor past the
// trace in one step. On a miss the fill unit's line and the SEQ.3 fetch
// read only the block events from the fetch position on, up to where
// they stop, so the walker keeps each miss keyed by its position and
// those events (missMemo) and replays the next one that matches.
package fetch

import (
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/trace"
)

// The SEQ.3 fetch unit, the one the paper evaluates: a fetch delivers
// up to width instructions and maxBranches branches (all kinds count:
// conditional, unconditional, calls and returns) from at most maxLines
// consecutive cache lines, and each missing line costs MissCycles
// extra cycles.
const (
	width       = 16
	maxBranches = 3
	maxLines    = 2
)

// MissCycles is the extra cycles a fetch pays for each i-cache line it
// misses: the miss penalty every simulation charges and the paper's
// Table 4 names.
const MissCycles = 5

// Config is the caches one simulation runs the SEQ.3 unit over.
type Config struct {
	// ICache is the instruction cache; nil simulates a perfect cache
	// (the paper's "Ideal" rows) with cache.DefaultLineBytes lines.
	ICache cache.ICache
	// TC is an optional trace cache consulted before the i-cache; a
	// trace-cache hit delivers its whole trace in one cycle with no
	// miss penalty.
	TC *cache.TraceCache
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
	addr uint64 // start address (layout)
	size int32  // instruction count, >= 1
	// follow is the block laid out where this one ends, or NoBlock: a
	// transition to block c is not taken exactly when c == follow.
	follow program.BlockID
	branch bool // ends in a branch (any kind but fall-through)
}

// end is the first address past the block.
func (b *blockInfo) end() uint64 { return b.addr + uint64(b.size)*program.InstrBytes }

// stream is a cursor over a dynamic trace under a given layout. A
// block's instructions are contiguous, so everything that consumes the
// stream — the SEQ.3 fetch and the trace-cache fill unit — moves over it
// a run of instructions at a time, never one by one, and a trace-cache
// hit moves it in one step.
type stream struct {
	blocks []program.BlockID
	info   []blockInfo // indexed by BlockID: the layout and fall-through table
	idx    int         // current block index within blocks
	off    int32       // instruction offset within the current block
}

// newStream returns a cursor at the start of t under l.
func newStream(t *trace.Trace, l *program.Layout) *stream {
	return &stream{blocks: t.Blocks, info: blockTable(t.Program(), l)}
}

// blockTable returns the layout and fall-through table of p's blocks
// under l, indexed by BlockID. l.Order is in address order and no two
// blocks overlap, so a block's follow can only be the next block in it.
func blockTable(p *program.Program, l *program.Layout) []blockInfo {
	info := make([]blockInfo, p.NumBlocks())
	for i := range info {
		b := p.Block(program.BlockID(i))
		info[i] = blockInfo{
			addr:   l.Addr[i],
			size:   int32(b.Size),
			follow: program.NoBlock,
			branch: b.Kind != program.KindFallThrough,
		}
	}
	for j := 1; j < len(l.Order); j++ {
		if prev, next := l.Order[j-1], l.Order[j]; info[prev].end() == info[next].addr {
			info[prev].follow = next
		}
	}
	return info
}

// done reports whether the stream is exhausted.
func (s *stream) done() bool { return s.idx >= len(s.blocks) }

// cur returns the address of the current instruction.
func (s *stream) cur() uint64 {
	return s.info[s.blocks[s.idx]].addr + uint64(s.off)*program.InstrBytes
}

// Simulate runs the fetch engine over the whole trace under the given
// layout and caches. With an ideal or direct-mapped i-cache the trace
// is split into one chunk per core (see the package comment); the
// result is the serial walk's, exactly.
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

// simulate is Simulate over a given number of chunks (capped at one
// per block event, and at one unless split allows more). Phase 1 walks
// every chunk concurrently, the first from cfg's reset caches, every
// later one from empty clones. Phase 2 joins the chunks in order onto
// the first one's true run.
func simulate(t *trace.Trace, l *program.Layout, cfg Config, chunks int) Result {
	lineBytes := cache.DefaultLineBytes
	if cfg.ICache != nil {
		lineBytes = cfg.ICache.LineBytes()
	}
	s := newStream(t, l)
	u := unit{cfg: &cfg, lineShift: uint(bits.TrailingZeros(uint(lineBytes)))}
	events := len(s.blocks)
	chunks = max(1, min(split(cfg.ICache, chunks), events))
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

// minChunk is the fewest block events a chunk of a parallel walk over
// a trace covers: a shorter chunk would not repay its goroutine and the
// work its boundary takes to resolve.
const minChunk = 1 << 16

// chunkCount is the number of chunks Simulate splits a walk over that
// many block events into: one per core the scheduler may use, each at
// least minChunk long.
func chunkCount(events int) int {
	return max(1, min(runtime.GOMAXPROCS(0), events/minChunk))
}

// split is the number of chunks a walk over i-cache ic may be split
// into, of the chunks asked for: as many with an ideal or direct-mapped
// cache, whose cold copies join (see the package comment), one with any
// other.
func split(ic cache.ICache, chunks int) int {
	if _, ok := ic.(*cache.DirectMapped); ic != nil && !ok {
		return 1
	}
	return chunks
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

// unit is the fetch unit a simulation runs: its caches, and the line
// size as a shift.
type unit struct {
	cfg       *Config
	lineShift uint
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
	ic     cache.ICache
	tc     *cache.TraceCache
	r      Result
	fill   []program.BlockID // trace-cache fill buffer
	memo   *runMemo          // the runs this walker has fetched, made on first use
	misses *missMemo         // its trace-cache misses, made on first use
}

func (w *walker) at() pos { return pos{w.idx, w.off} }

// dm is the walker's i-cache as the direct-mapped cache a chunked walk
// has, or nil for the ideal cache.
func (w *walker) dm() *cache.DirectMapped {
	dm, _ := w.ic.(*cache.DirectMapped)
	return dm
}

// copy returns w, a walker of a chunked walk, with caches of its own in
// the same state.
func (w *walker) copy() walker {
	c := walker{stream: w.stream, r: w.r}
	if dm := w.dm(); dm != nil {
		c.ic = dm.Copy()
	}
	if w.tc != nil {
		c.tc = w.tc.Copy()
	}
	return c
}

// cold returns a walker of a chunked walk at p, with empty caches of
// the unit's geometry.
func (u unit) cold(s *stream, p pos) walker {
	w := walker{stream: *s}
	w.idx, w.off = p.idx, p.off
	if dm, _ := u.cfg.ICache.(*cache.DirectMapped); dm != nil {
		w.ic = dm.Clone()
	}
	if u.cfg.TC != nil {
		w.tc = u.cfg.TC.Clone()
	}
	return w
}

// run fetches until the next fetch would start at or after stop, which
// must not lie past the end of the stream: a run at a time without a
// trace cache, else one fetch at a time.
func (u unit) run(w *walker, stop pos) {
	if w.tc != nil {
		u.fetches(w, stop)
		return
	}
	s := &w.stream
	if s.off != 0 {
		// A walk that starts inside a block goes to the end of its run
		// one fetch at a time: the last fetch of a run ends with it.
		end := pos{s.runEnd(s.idx), 0}
		if stop.less(end) {
			end = stop
		}
		u.fetches(w, end)
		if !(pos{s.idx, s.off}).less(stop) {
			return
		}
	}
	if w.memo == nil {
		w.memo = newRunMemo(len(w.info))
	}
	m, ic := w.memo, w.ic
	dm, _ := ic.(*cache.DirectMapped)
	blocks, table := s.blocks, m.table
	var misses uint64
	i := s.idx
	for i < stop.idx {
		j := s.runEnd(i)
		if j > stop.idx {
			break // the walk ends inside this run
		}
		k := int32(0)
		if n := j - i; n <= runTable {
			k = table[int(blocks[i])*runTable+n-1]
		}
		if k == 0 {
			s.idx = i
			k = m.add(u, s, j, ic != nil)
		}
		f := &m.runs[k-1]
		if f.count++; f.count == 1 {
			m.met = append(m.met, k-1)
		}
		switch lines := f.lines; {
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
		i = j
	}
	s.idx = i
	// The replayed runs' counters are added once per run met, times its
	// count.
	r := &w.r
	for _, k := range m.met {
		f := &m.runs[k]
		r.Instrs += f.count * f.instrs
		r.Fetches += f.count * f.fetches
		r.Cycles += f.count * f.fetches
		r.LineAccesses += f.count * f.accesses
		f.count = 0
	}
	m.met = m.met[:0]
	r.Cycles += misses * MissCycles
	r.LineMisses += misses
	if (pos{s.idx, 0}).less(stop) {
		u.fetches(w, stop) // the walk ends inside a run
	}
}

// runEnd is the block event after the run that event i lies in: the
// target of the next taken transfer, or the end of the stream.
func (s *stream) runEnd(i int) int {
	blocks, info := s.blocks, s.info
	next := info[blocks[i]].follow
	for i++; i < len(blocks); i++ {
		b := blocks[i]
		if b != next {
			break
		}
		next = info[b].follow
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
	met   []int32  // indexes into runs of those the current unit.run call met
}

// runKey is a run's first block and its length in block events.
type runKey struct {
	first program.BlockID
	n     int
}

// runFetches is one run's SEQ.3 fetches: its counters, the addresses of
// the line accesses to replay, and how often the current call of
// unit.run has met it.
type runFetches struct {
	instrs, fetches, accesses uint64
	lines                     []uint64 // a piece of runMemo.lines
	count                     uint64
}

func newRunMemo(blocks int) *runMemo {
	return &runMemo{table: make([]int32, blocks*runTable), runs: make([]runFetches, 0, 64),
		lines: make([]uint64, 0, 256), met: make([]int32, 0, 64)}
}

// add finds the run from the stream's current block event, at offset
// 0, to event end when the table does not hold it: in the overflow map,
// or, the first time the walker meets it, by fetching it (keeping its
// line accesses if ic, the walker has an i-cache). It returns 1 + the
// run's index in runs. The stream does not move.
func (m *runMemo) add(u unit, s *stream, end int, ic bool) int32 {
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
// per-fetch loop would make if ic, less each one to the cache line of
// the access just before it. The i-cache is not touched.
func (m *runMemo) fetch(u unit, s stream, end int, ic bool) runFetches {
	var f runFetches
	from := len(m.lines)
	keep := func(a uint64) {
		f.accesses++
		if len(m.lines) == from || m.lines[len(m.lines)-1]>>u.lineShift != a>>u.lineShift {
			m.lines = append(m.lines, a)
		}
	}
	for s.idx < end {
		fetchAddr := s.cur()
		n, lastAddr := s.seq3(fetchAddr, u.lineShift)
		f.instrs += uint64(n)
		f.fetches++
		if ic {
			keep(fetchAddr)
			if lastAddr>>u.lineShift != fetchAddr>>u.lineShift {
				keep(lastAddr)
			}
		}
	}
	// The slice keeps its lines when m.lines grows: appends never
	// change what is already there.
	f.lines = m.lines[from:len(m.lines):len(m.lines)]
	return f
}

// fetches is run one fetch at a time, the trace cache first if there is
// one.
func (u unit) fetches(w *walker, stop pos) {
	lineShift := u.lineShift
	s := &w.stream
	ic, tc := w.ic, w.tc
	if tc != nil && w.misses == nil {
		w.misses = newMissMemo(len(s.info))
	}
	r, buf := w.r, w.fill
	for (pos{s.idx, s.off}).less(stop) {
		fetchAddr := s.cur()
		var n int
		var lastAddr uint64
		var fill cache.Trace
		if tc == nil {
			n, lastAddr = s.seq3(fetchAddr, lineShift)
		} else {
			// Trace cache first: a hit delivers the stored trace in one
			// cycle, bypassing the i-cache.
			if t, ok := tc.Lookup(fetchAddr); ok && s.take(t) {
				r.Instrs += uint64(t.Instrs)
				r.TCInstrs += uint64(t.Instrs)
				r.TCHits++
				r.Fetches++
				r.Cycles++
				continue
			}
			r.TCMisses++
			// Fill the trace cache from the actual dynamic stream (up to
			// a line's instructions and branches) and fetch from the
			// i-cache; what the walker met before, it replays.
			if f := w.misses.find(s); f != nil {
				fill, n, lastAddr = f.line, int(f.n), f.lastAddr
				s.idx, s.off = s.idx+int(f.adv), f.end
			} else {
				at := pos{s.idx, s.off}
				fill = s.traceLine(buf[:0])
				buf = fill.Blocks
				n, lastAddr = s.seq3(fetchAddr, lineShift)
				w.misses.add(s, at, fill, n, lastAddr)
			}
		}
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
			r.Cycles += misses * MissCycles
		}
		if tc != nil {
			tc.Fill(fetchAddr, fill)
		}
	}
	w.r, w.fill = r, buf
}

// missMemo is what one walker keeps of its trace-cache misses. On a miss
// at a position the fill unit builds a line and the SEQ.3 unit fetches,
// and both read nothing but the block events from that position on, up
// to where they stop: the position and those events fix the line and
// the fetch. So a miss is found by the position's block, its offset and
// the events that follow, as a trace-cache line is, in a chain per
// block, and replayed.
type missMemo struct {
	head []*missFetch      // indexed by BlockID
	free []missFetch       // in chunks that never move: the chains point into them
	keys []program.BlockID // the misses' keys, back to back
}

// missFetch is one miss: the block events key the line and the fetch
// read, from the position's own on, the line, and the fetch's counters
// and where it leaves the stream.
type missFetch struct {
	off      int32
	key      []program.BlockID
	line     cache.Trace // line.Blocks is a prefix of key: the events it enters
	n        int32
	lastAddr uint64
	adv, end int32 // block events the fetch moves the stream past, and its offset after
	next     *missFetch
}

// missChunk is how many misses a missMemo allocates room for at a time.
const missChunk = 64

func newMissMemo(blocks int) *missMemo {
	return &missMemo{head: make([]*missFetch, blocks), free: make([]missFetch, 0, missChunk),
		keys: make([]program.BlockID, 0, 16*missChunk)}
}

// find returns the miss at the stream's position, if the walker has met
// it with the same block events ahead.
func (m *missMemo) find(s *stream) *missFetch {
	head := &m.head[s.blocks[s.idx]]
	for p := head; *p != nil; p = &(*p).next {
		if f := *p; f.off == s.off && s.idx+len(f.key) <= len(s.blocks) && slices.Equal(f.key[1:], s.blocks[s.idx+1:s.idx+len(f.key)]) {
			if p != head { // to the front: the path taken last is the likeliest
				*p, f.next, *head = f.next, *head, f
			}
			return f
		}
	}
	return nil
}

// add keeps the miss at position at, after which the fill unit built
// line and the SEQ.3 unit fetched n instructions, the last at lastAddr,
// leaving s where it is now. A miss whose walks reached the end of the
// stream is not kept: elsewhere the same events may go on.
func (m *missMemo) add(s *stream, at pos, line cache.Trace, n int, lastAddr uint64) {
	// The fetch read the events up to the one it stopped in or tested.
	k := max(len(line.Blocks), s.idx-at.idx+1)
	if at.idx+k >= len(s.blocks) {
		return
	}
	if len(m.free) == cap(m.free) {
		m.free = make([]missFetch, 0, missChunk)
	}
	if len(m.keys)+k > cap(m.keys) {
		m.keys = make([]program.BlockID, 0, max(16*missChunk, k))
	}
	m.keys = append(m.keys, s.blocks[at.idx:at.idx+k]...)
	key := m.keys[len(m.keys)-k : len(m.keys) : len(m.keys)]
	line.Blocks = key[:len(line.Blocks):len(line.Blocks)]
	b := key[0]
	m.free = append(m.free, missFetch{off: at.off, key: key, line: line,
		n: int32(n), lastAddr: lastAddr, adv: int32(s.idx - at.idx), end: s.off, next: m.head[b]})
	m.head[b] = &m.free[len(m.free)-1]
}

// snapshots is how many copies of its state a phase-1 walk keeps, at
// evenly spaced block events, when a trace cache is simulated: a join
// whose true state may still steer the walk's path further ahead jumps
// to the last one before that point (see converge).
const snapshots = 128

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
	c.memo, c.misses = spec.memo, spec.misses // spec's walk is over: what it met is c's

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
// For the i-cache, ideal or direct-mapped, that holds when c's Covers
// w's: c differs from w only in the sets c has not touched yet, and
// spec touches each of them for the first time after this point. A
// first access that w's state turns into a hit changes a counter, not
// the path, and is counted here (FirstHits); the sets spec never
// touched keep w's content.
//
// A trace-cache line in which c and w differ may steer the path at its
// next lookup (Hazard). While one of them is looked up ahead, w moves
// only to the last snapshot before that lookup, and c goes on from
// that snapshot. The lines not touched on the way keep w's traces.
func (u unit) converge(w, c, spec *walker, snaps *[]walker) bool {
	cd, wd := c.dm(), w.dm()
	if cd != nil && !cd.Covers(wd) {
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
	if td := to.dm(); td != nil {
		hits = uint64(td.FirstHits(cd, wd))
		td.Underlay(wd)
	}
	if w.tc != nil {
		to.tc.Underlay(c.tc, w.tc)
	}
	r := w.r.plus(to.r).minus(c.r)
	r.LineMisses -= hits
	r.Cycles -= hits * MissCycles
	*w = walker{stream: to.stream, ic: to.ic, tc: to.tc, r: r, fill: w.fill, memo: w.memo, misses: w.misses}
	if to != spec {
		memo, misses := c.memo, c.misses
		*c = (*snaps)[next]
		c.memo, c.misses = memo, misses
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
func (s *stream) seq3(fetchAddr uint64, lineShift uint) (int, uint64) {
	// limit is the first address past the lines the fetch may span.
	limit := (fetchAddr>>lineShift + maxLines) << lineShift
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
		if blocks[idx] != bi.follow {
			break // fetch stops at the first taken control transfer
		}
		if branches >= maxBranches {
			break
		}
	}
	s.idx, s.off = idx, off
	return int(n), lastAddr
}

// take is the trace-cache hit test: if t, the trace stored under the
// current fetch address, is exactly what the stream executes next, it
// moves the stream past it and reports true; otherwise (stored branch
// outcomes diverge from the actual path, or the trace runs past the end
// of the stream) the stream stays where it is. The tag matched, and no
// two blocks of a layout overlap, so the trace starts where the stream
// is, and it is what the stream executes next exactly when the next
// block IDs are its blocks.
func (s *stream) take(t cache.Trace) bool {
	k := len(t.Blocks)
	if s.idx+k > len(s.blocks) || !slices.Equal(s.blocks[s.idx:s.idx+k], t.Blocks) {
		return false
	}
	s.idx, s.off = s.idx+k, 0
	if t.End != 0 {
		s.idx, s.off = s.idx-1, t.End
	}
	return true
}

// traceLine is the trace-cache fill unit: the line for the trace that
// starts at the current stream position, following the actual dynamic
// path (taken branches included — that is the point of a trace cache)
// up to cache.TraceInstrs instructions and cache.TraceBranches branch
// instructions, one block ID per block entered, appended to buf.
func (s *stream) traceLine(buf []program.BlockID) cache.Trace {
	idx, off := s.idx, s.off
	room := int32(cache.TraceInstrs)
	branches, end := 0, int32(0)
	for room > 0 && idx < len(s.blocks) {
		b := s.blocks[idx]
		bi := &s.info[b]
		rest := bi.size - off
		step := min(rest, room)
		buf = append(buf, b)
		room -= step
		if step < rest {
			end = off + step
			break
		}
		if bi.branch {
			if branches++; branches >= cache.TraceBranches {
				break
			}
		}
		idx++
		off = 0
	}
	return cache.Trace{Blocks: buf, Instrs: cache.TraceInstrs - room, End: end}
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

// Sequentiality computes SequentialityStats for a profile under a
// layout from its edge counts: a transition is taken unless its target
// is laid out where its source ends, so each distinct edge is looked up
// once in the fall-through table, however often it ran.
func Sequentiality(p *profile.Profile, l *program.Layout) SequentialityStats {
	info := blockTable(p.Prog, l)
	st := SequentialityStats{Instrs: p.DynInstrs}
	for e, c := range p.EdgeCount {
		st.Transitions += c
		if e.To != info[e.From].follow {
			st.Taken += c
		}
	}
	if st.Taken > 0 {
		st.InstrPerTaken = float64(st.Instrs) / float64(st.Taken)
	} else {
		st.InstrPerTaken = float64(st.Instrs)
	}
	return st
}
