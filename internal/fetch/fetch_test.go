package fetch

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/profile/profiletest"
	"repro/internal/program"
	"repro/internal/trace"
)

// straightProgram is a single procedure with one 40-instruction block
// ending in a return.
func straightProgram(t *testing.T) (*program.Program, *trace.Trace) {
	t.Helper()
	b := program.NewBuilder()
	b.Proc("f", "m").Ret("entry", 40)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(p)
	r := trace.NewRecorder(tr, true)
	r.Block(p.MustBlock("f.entry"))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return p, tr
}

func TestSeq3WidthLimit(t *testing.T) {
	p, tr := straightProgram(t)
	l := program.OriginalLayout(p)
	res := Simulate(tr, l, Config{})
	// 40 instructions, 16-wide: 16+16+8 = 3 fetches.
	if res.Instrs != 40 {
		t.Fatalf("instrs = %d, want 40", res.Instrs)
	}
	if res.Fetches != 3 {
		t.Fatalf("fetches = %d, want 3", res.Fetches)
	}
	if res.Cycles != 3 {
		t.Fatalf("cycles = %d, want 3 (ideal cache)", res.Cycles)
	}
	if got := res.IPC(); math.Abs(got-40.0/3) > 1e-9 {
		t.Fatalf("IPC = %v", got)
	}
}

// takenProgram builds: a (cond, taken to c) | b (never runs) | c (ret),
// with c laid out away from a.
func takenProgram(t *testing.T) (*program.Program, *trace.Trace) {
	t.Helper()
	b := program.NewBuilder()
	f := b.Proc("f", "m")
	f.Cond("a", 4, "c")
	f.Jump("b", 20, "c")
	f.Ret("c", 4)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(p)
	r := trace.NewRecorder(tr, true)
	r.Block(p.MustBlock("f.a"))
	r.Block(p.MustBlock("f.c"))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return p, tr
}

func TestSeq3StopsAtTakenBranch(t *testing.T) {
	p, tr := takenProgram(t)
	l := program.OriginalLayout(p)
	res := Simulate(tr, l, Config{})
	// Fetch 1: block a (4 instrs), stops at the taken branch.
	// Fetch 2: block c (4 instrs).
	if res.Fetches != 2 {
		t.Fatalf("fetches = %d, want 2", res.Fetches)
	}
	if res.Instrs != 8 {
		t.Fatalf("instrs = %d, want 8", res.Instrs)
	}
}

func TestSeq3MergesAdjacentBlocks(t *testing.T) {
	p, tr := takenProgram(t)
	// Layout placing c directly after a: the branch becomes
	// effectively not-taken and one fetch suffices.
	order := []program.BlockID{
		p.MustBlock("f.a"),
		p.MustBlock("f.c"),
		p.MustBlock("f.b"),
	}
	l := must(program.NewLayoutFromOrder("opt", p, order))
	res := Simulate(tr, l, Config{})
	if res.Fetches != 1 {
		t.Fatalf("fetches = %d, want 1", res.Fetches)
	}
	if res.Instrs != 8 {
		t.Fatalf("instrs = %d, want 8", res.Instrs)
	}
}

// branchChain builds 5 adjacent 2-instruction cond blocks that all
// fall through, ending in a return.
func branchChain(t *testing.T) (*program.Program, *trace.Trace) {
	t.Helper()
	b := program.NewBuilder()
	f := b.Proc("f", "m")
	f.Cond("b0", 2, "end")
	f.Cond("b1", 2, "end")
	f.Cond("b2", 2, "end")
	f.Cond("b3", 2, "end")
	f.Ret("end", 2)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(p)
	r := trace.NewRecorder(tr, true)
	for _, n := range []string{"f.b0", "f.b1", "f.b2", "f.b3", "f.end"} {
		r.Block(p.MustBlock(n))
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return p, tr
}

func TestSeq3BranchLimit(t *testing.T) {
	p, tr := branchChain(t)
	l := program.OriginalLayout(p)
	res := Simulate(tr, l, Config{})
	// All blocks are adjacent (no taken branches), but each cond block
	// ends in a branch: fetch 1 delivers b0,b1,b2 (3 branches = limit,
	// 6 instrs); fetch 2 delivers b3 and the return's first... the
	// return block 'end' ends in a branch too but it's the 2nd branch
	// of fetch 2 and the trace ends: fetch 2 delivers b3+end = 4.
	if res.Fetches != 2 {
		t.Fatalf("fetches = %d, want 2", res.Fetches)
	}
	if res.Instrs != 10 {
		t.Fatalf("instrs = %d, want 10", res.Instrs)
	}
}

func TestSeq3TwoLineLimit(t *testing.T) {
	// One 40-instruction block starting at line 0. At 64-byte lines two
	// lines hold 32 instructions and width 16 binds first; at 16-byte
	// lines a fetch from address 0 may span lines 0 and 1 only
	// (instructions 0..7), and the line limit binds.
	p, tr := straightProgram(t)
	l := program.OriginalLayout(p)
	res := Simulate(tr, l, Config{ICache: cache.NewDirectMapped(1024, 16)})
	// Five fetches of 8 instructions, each touching two lines.
	if res.Fetches != 5 {
		t.Fatalf("fetches = %d, want 5", res.Fetches)
	}
	if res.Instrs != 40 {
		t.Fatalf("instrs = %d, want 40", res.Instrs)
	}
	if res.LineAccesses != 10 {
		t.Fatalf("line accesses = %d, want 10", res.LineAccesses)
	}
}

func TestMissPenaltyAccounting(t *testing.T) {
	p, tr := straightProgram(t)
	l := program.OriginalLayout(p)
	cfg := Config{ICache: cache.NewDirectMapped(1024, 64)}
	res := Simulate(tr, l, cfg)
	// 3 fetches; fetch 1 touches lines 0 (instr 0..15): miss.
	// fetch 2 touches line 1: miss. fetch 3 touches line 2: miss.
	if res.LineMisses != 3 {
		t.Fatalf("line misses = %d, want 3", res.LineMisses)
	}
	if res.Cycles != 3+3*5 {
		t.Fatalf("cycles = %d, want 18", res.Cycles)
	}
	// Re-simulating re-resets the cache: same result.
	res2 := Simulate(tr, l, cfg)
	if res2 != res {
		t.Fatal("simulation is not deterministic across runs")
	}
}

func TestFetchSpanningTwoLinesAccessesBoth(t *testing.T) {
	// Block of 20 instructions starting at instruction 8 of a line:
	// place a 8-instr block before it.
	b := program.NewBuilder()
	f := b.Proc("f", "m")
	f.Fall("pad", 8)
	f.Ret("body", 20)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(p)
	r := trace.NewRecorder(tr, true)
	r.Block(p.MustBlock("f.pad"))
	r.Block(p.MustBlock("f.body"))
	l := program.OriginalLayout(p)
	res := Simulate(tr, l, Config{ICache: cache.NewDirectMapped(1024, 64)})
	// Fetch 1 at addr 0: pad(8) + body[0..7] = 16 instrs, line 0 only.
	// Fetch 2 at instr 16 (addr 64): 12 instrs in line 1 only.
	// All three... two lines accessed, both miss.
	if res.Fetches != 2 {
		t.Fatalf("fetches = %d, want 2", res.Fetches)
	}
	if res.LineAccesses != 2 {
		t.Fatalf("line accesses = %d, want 2", res.LineAccesses)
	}
	if res.LineMisses != 2 {
		t.Fatalf("line misses = %d, want 2", res.LineMisses)
	}
	if got := res.MissesPer100Instr(); math.Abs(got-100*2.0/28) > 1e-9 {
		t.Fatalf("miss rate = %v", got)
	}
}

// loopTrace builds a trace of n iterations of a 3-block loop with a
// taken back edge under the original layout.
func loopTrace(t *testing.T, n int) (*program.Program, *trace.Trace) {
	t.Helper()
	b := program.NewBuilder()
	f := b.Proc("f", "m")
	f.Fall("head", 4)
	f.Cond("body", 6, "head") // taken back edge
	f.Ret("exit", 2)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(p)
	r := trace.NewRecorder(tr, true)
	for i := 0; i < n; i++ {
		r.Block(p.MustBlock("f.head"))
		r.Block(p.MustBlock("f.body"))
	}
	r.Block(p.MustBlock("f.head"))
	r.Block(p.MustBlock("f.body"))
	r.Block(p.MustBlock("f.exit"))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return p, tr
}

func TestTraceCacheCapturesLoop(t *testing.T) {
	p, tr := loopTrace(t, 50)
	l := program.OriginalLayout(p)
	plain := Simulate(tr, l, Config{})

	withTC := Simulate(tr, l, Config{TC: cache.NewTraceCache(256)})
	if withTC.TCHits == 0 {
		t.Fatal("trace cache never hit on a hot loop")
	}
	if withTC.IPC() <= plain.IPC() {
		t.Fatalf("TC IPC %v should beat plain %v on a loop with a taken back edge",
			withTC.IPC(), plain.IPC())
	}
	if withTC.Instrs != plain.Instrs {
		t.Fatalf("instruction counts differ: %d vs %d", withTC.Instrs, plain.Instrs)
	}
}

func TestTraceCacheHitsBypassICache(t *testing.T) {
	p, tr := loopTrace(t, 50)
	l := program.OriginalLayout(p)
	cfg := Config{ICache: cache.NewDirectMapped(8192, 64), TC: cache.NewTraceCache(256)}
	res := Simulate(tr, l, cfg)
	// Line accesses only happen on TC misses.
	if res.LineAccesses >= res.Fetches {
		t.Fatalf("line accesses %d should be fewer than fetches %d",
			res.LineAccesses, res.Fetches)
	}
	if res.TCInstrs == 0 || res.TCInstrs >= res.Instrs {
		t.Fatalf("TC delivered %d of %d instrs", res.TCInstrs, res.Instrs)
	}
}

func TestSequentiality(t *testing.T) {
	p, tr := loopTrace(t, 9) // 10 head+body pairs, 10 taken back edges... 9 back edges + exit
	l := program.OriginalLayout(p)
	st := Sequentiality(profiletest.FromTrace(tr), l)
	// Trace: (head body) x10 + exit. Transitions: 21-1 = 20.
	// head->body adjacent (not taken) x10; body->head taken x9;
	// body->exit adjacent (not taken) x1.
	if st.Transitions != 20 {
		t.Fatalf("transitions = %d, want 20", st.Transitions)
	}
	if st.Taken != 9 {
		t.Fatalf("taken = %d, want 9", st.Taken)
	}
	wantInstr := uint64(10*(4+6) + 2)
	if st.Instrs != wantInstr {
		t.Fatalf("instrs = %d, want %d", st.Instrs, wantInstr)
	}
	if math.Abs(st.InstrPerTaken-float64(wantInstr)/9) > 1e-9 {
		t.Fatalf("instr/taken = %v", st.InstrPerTaken)
	}
}

func TestSequentialityNoTaken(t *testing.T) {
	p, tr := straightProgram(t)
	l := program.OriginalLayout(p)
	st := Sequentiality(profiletest.FromTrace(tr), l)
	if st.Taken != 0 {
		t.Fatalf("taken = %d, want 0", st.Taken)
	}
	if st.InstrPerTaken != 40 {
		t.Fatalf("instr/taken fallback = %v, want 40", st.InstrPerTaken)
	}
}

func TestStreamPeekAcrossBlocks(t *testing.T) {
	p, tr := loopTrace(t, 2)
	l := program.OriginalLayout(p)
	s := newRefStream(tr, l)
	// head starts at 0 (4 instrs), body at 16 (6 instrs).
	if a, ok := s.peek(0); !ok || a != 0 {
		t.Fatalf("peek(0) = %d,%v", a, ok)
	}
	if a, ok := s.peek(4); !ok || a != 16 {
		t.Fatalf("peek(4) = %d,%v, want body start 16", a, ok)
	}
	if a, ok := s.peek(9); !ok || a != 16+5*4 {
		t.Fatalf("peek(9) = %d,%v, want last body instr", a, ok)
	}
	if a, ok := s.peek(10); !ok || a != 0 {
		t.Fatalf("peek(10) = %d,%v, want head again", a, ok)
	}
	total := 0
	for _, b := range tr.Blocks {
		total += p.Block(b).Size
	}
	if _, ok := s.peek(total); ok {
		t.Fatal("peek past end must report false")
	}
	s.advance(total - 1)
	if s.done() {
		t.Fatal("stream should have one instruction left")
	}
	s.advance(1)
	if !s.done() {
		t.Fatal("stream should be exhausted")
	}
}

// TestTakeTrace: the trace-cache hit test takes a stored trace only
// when its blocks are exactly what the stream executes next, and then
// moves the cursor past it in one step.
func TestTakeTrace(t *testing.T) {
	p, tr := loopTrace(t, 2)
	l := program.OriginalLayout(p)
	// head at 0 (4 instrs), body at 16 (6), exit at 40 (2); the trace
	// is head body head body head body exit.
	head, body, exit := p.MustBlock("f.head"), p.MustBlock("f.body"), p.MustBlock("f.exit")
	ids := func(b ...program.BlockID) []program.BlockID { return b }
	for _, tc := range []struct {
		name string
		t    cache.Trace
		n    int
	}{
		{"exact path", cache.Trace{Blocks: ids(head, body, head), Instrs: 14}, 14},
		{"ends inside its last block", cache.Trace{Blocks: ids(head, body, head), Instrs: 11, End: 1}, 11},
		{"ends inside its only block", cache.Trace{Blocks: ids(head), Instrs: 3, End: 3}, 3},
		{"diverges in the third block", cache.Trace{Blocks: ids(head, body, exit), Instrs: 12}, 0},
		{"other first block", cache.Trace{Blocks: ids(body), Instrs: 6}, 0},
	} {
		s := newStream(tr, l)
		hit := s.take(tc.t)
		if hit != (tc.n > 0) {
			t.Errorf("%s: take = %v, want %v", tc.name, hit, tc.n > 0)
		}
		rs := newRefStream(tr, l)
		rs.advance(tc.n)
		if s.idx != rs.idx || s.off != rs.off {
			t.Errorf("%s: cursor at (%d,%d), want (%d,%d)", tc.name, s.idx, s.off, rs.idx, rs.off)
		}
	}
	// A stored trace longer than what is left of the stream misses.
	s := newStream(tr, l)
	s.idx = len(tr.Blocks) - 2 // body exit
	if s.take(cache.Trace{Blocks: ids(body, exit, head), Instrs: 9}) {
		t.Fatal("trace running past the end of the stream must miss")
	}
	if !s.take(cache.Trace{Blocks: ids(body, exit), Instrs: 8}) || !s.done() {
		t.Fatalf("take to the end: done=%v", s.done())
	}
}

// ---- the per-instruction simulator, kept as the reference ----
//
// This is the fetch engine as it was before it moved to block
// granularity: seq3, the trace-cache lookup and the trace-cache fill
// each loop once per instruction, the lookup through a peek callback
// that re-walks the stream, the trace cache stores one address per
// instruction and indexes by divide and modulo. Slow and obviously
// right; TestSimulateEqualsReference and FuzzSimulate require the
// shipped simulator to produce the same Result, field by field.

type refStream struct {
	blocks []program.BlockID
	addr   []uint64 // per-block start address (layout)
	size   []int32  // per-block instruction count
	kind   []program.BlockKind
	idx    int   // current block index within blocks
	off    int32 // instruction offset within current block
}

func newRefStream(t *trace.Trace, l *program.Layout) *refStream {
	p := t.Program()
	n := p.NumBlocks()
	s := &refStream{
		blocks: t.Blocks,
		addr:   l.Addr,
		size:   make([]int32, n),
		kind:   make([]program.BlockKind, n),
	}
	for i := 0; i < n; i++ {
		b := p.Block(program.BlockID(i))
		s.size[i] = int32(b.Size)
		s.kind[i] = b.Kind
	}
	return s
}

func (s *refStream) done() bool { return s.idx >= len(s.blocks) }

func (s *refStream) cur() uint64 {
	b := s.blocks[s.idx]
	return s.addr[b] + uint64(s.off)*program.InstrBytes
}

// peek returns the address of the k-th upcoming instruction (k=0 is
// the current one) and whether it exists.
func (s *refStream) peek(k int) (uint64, bool) {
	idx, off := s.idx, s.off
	for idx < len(s.blocks) {
		b := s.blocks[idx]
		remain := int(s.size[b] - off)
		if k < remain {
			return s.addr[b] + uint64(off+int32(k))*program.InstrBytes, true
		}
		k -= remain
		idx++
		off = 0
	}
	return 0, false
}

// advance moves the stream forward n instructions.
func (s *refStream) advance(n int) {
	for n > 0 && s.idx < len(s.blocks) {
		b := s.blocks[s.idx]
		remain := int(s.size[b] - s.off)
		if n < remain {
			s.off += int32(n)
			return
		}
		n -= remain
		s.idx++
		s.off = 0
	}
}

func (s *refStream) seq3(lineBytes uint64) (int, uint64) {
	fetchAddr := s.cur()
	limit := (fetchAddr/lineBytes + maxLines) * lineBytes
	n := 0
	branches := 0
	lastAddr := fetchAddr
	for !s.done() && n < width {
		b := s.blocks[s.idx]
		a := s.addr[b] + uint64(s.off)*program.InstrBytes
		if a >= limit {
			break // would leave the two consecutive lines
		}
		n++
		lastAddr = a
		if int32(s.off) == s.size[b]-1 {
			// Block terminator: classify the transition.
			isBranch := s.kind[b] != program.KindFallThrough
			s.idx++
			s.off = 0
			if isBranch {
				branches++
			}
			if s.done() {
				break
			}
			next := s.blocks[s.idx]
			taken := s.addr[next] != a+program.InstrBytes
			if taken {
				break // fetch stops at the first taken control transfer
			}
			if branches >= maxBranches {
				break
			}
		} else {
			s.off++
		}
	}
	return n, lastAddr
}

// refTraceCache stores each trace as the exact sequence of instruction
// addresses it contains.
type refTraceCache struct {
	entries, maxInstrs, maxBranch int
	instrBytes                    uint64
	lines                         []refTCLine
	cover                         *tcCoverage       // if not nil, what the walk met
	entered                       []program.BlockID // the blocks the fill being built enters
}

type refTCLine struct {
	valid bool
	tag   uint64
	addrs []uint64
}

func newRefTraceCache(tc *cache.TraceCache, cover *tcCoverage) *refTraceCache {
	return &refTraceCache{
		entries: tc.Entries(), maxInstrs: cache.TraceInstrs, maxBranch: cache.TraceBranches,
		instrBytes: program.InstrBytes,
		lines:      make([]refTCLine, tc.Entries()),
		cover:      cover,
	}
}

// tcCoverage is what of the trace cache's edges a reference walk met: a
// stored trace that enters TraceInstrs blocks, one instruction each (a
// full line, as many blocks as a line holds); a tag hit whose stored
// trace runs past the end of the stream; and a stored trace that enters
// one block twice.
type tcCoverage struct {
	fullLine, pastEnd, reentered bool
}

func (tc *refTraceCache) index(addr uint64) int {
	return int((addr / tc.instrBytes) % uint64(tc.entries))
}

func (tc *refTraceCache) lookup(addr uint64, peek func(int) (uint64, bool)) (int, bool) {
	l := &tc.lines[tc.index(addr)]
	if !l.valid || l.tag != addr {
		return 0, false
	}
	for i, want := range l.addrs {
		got, ok := peek(i)
		if !ok && tc.cover != nil {
			tc.cover.pastEnd = true
		}
		if !ok || got != want {
			// Stored branch outcomes diverge from the actual path.
			return 0, false
		}
	}
	return len(l.addrs), true
}

func (tc *refTraceCache) fill(addr uint64, addrs []uint64) {
	if len(addrs) == 0 {
		return
	}
	l := &tc.lines[tc.index(addr)]
	l.valid = true
	l.tag = addr
	l.addrs = append(l.addrs[:0], addrs...)
}

func refBuildTCFill(s *refStream, tc *refTraceCache, buf []uint64) []uint64 {
	idx, off := s.idx, s.off
	branches := 0
	tc.entered = tc.entered[:0]
	for len(buf) < tc.maxInstrs && idx < len(s.blocks) {
		b := s.blocks[idx]
		if len(buf) == 0 || off == 0 {
			tc.entered = append(tc.entered, b)
		}
		buf = append(buf, s.addr[b]+uint64(off)*program.InstrBytes)
		if int32(off) == s.size[b]-1 {
			if s.kind[b] != program.KindFallThrough {
				branches++
				if branches >= tc.maxBranch {
					break
				}
			}
			idx++
			off = 0
		} else {
			off++
		}
	}
	tc.noteFill()
	return buf
}

// noteFill records in the coverage what the fill just built enters.
func (tc *refTraceCache) noteFill() {
	if tc.cover == nil {
		return
	}
	if len(tc.entered) == tc.maxInstrs {
		tc.cover.fullLine = true
	}
	for i, b := range tc.entered {
		if slices.Contains(tc.entered[:i], b) {
			tc.cover.reentered = true
		}
	}
}

// refSimulate is Simulate as it was, over the reference stream and
// trace cache. The i-cache is cfg's own: the cache package checks its
// models against their divide-and-modulo references itself.
func refSimulate(t *trace.Trace, l *program.Layout, cfg Config, cover *tcCoverage) Result {
	var r Result
	s := newRefStream(t, l)
	lineBytes := uint64(cache.DefaultLineBytes)
	if cfg.ICache != nil {
		lineBytes = uint64(cfg.ICache.LineBytes())
		cfg.ICache.Reset()
	}
	var tc *refTraceCache
	if cfg.TC != nil {
		tc = newRefTraceCache(cfg.TC, cover)
	}
	var tcFill []uint64
	for !s.done() {
		fetchAddr := s.cur()
		if tc != nil {
			if n, hit := tc.lookup(fetchAddr, s.peek); hit {
				s.advance(n)
				r.Instrs += uint64(n)
				r.TCInstrs += uint64(n)
				r.TCHits++
				r.Fetches++
				r.Cycles++
				continue
			}
			r.TCMisses++
			tcFill = refBuildTCFill(s, tc, tcFill[:0])
		}
		n, lastAddr := s.seq3(lineBytes)
		r.Instrs += uint64(n)
		r.Fetches++
		r.Cycles++
		if cfg.ICache != nil {
			misses := uint64(0)
			r.LineAccesses++
			if !cfg.ICache.Access(fetchAddr) {
				misses++
			}
			if lastAddr/lineBytes != fetchAddr/lineBytes {
				r.LineAccesses++
				if !cfg.ICache.Access(lastAddr) {
					misses++
				}
			}
			r.LineMisses += misses
			r.Cycles += misses * MissCycles
		}
		if tc != nil {
			tc.fill(fetchAddr, tcFill)
		}
	}
	return r
}

// must returns a layout a test builds, panicking on the error that only
// a layout with a missing, repeated or overlapping block has.
func must(l *program.Layout, err error) *program.Layout {
	if err != nil {
		panic(err)
	}
	return l
}

// randomCase draws a program, a layout and a trace from rng. Blocks
// are 1 instruction, a few, or more than any fetch width; kinds are
// mixed so fall-through blocks (no branch counted) and branches both
// terminate fetches. The layout is the original order, a permutation,
// or a permutation with gaps (so adjacent-in-trace blocks are
// sometimes adjacent in memory and sometimes not, and blocks straddle
// lines at every offset — byte offsets too: nothing in the reference
// needs instruction-aligned addresses, so nothing in Simulate may).
// The trace mixes sequential runs, repeated hot paths (trace-cache
// hits), hot paths that diverge after a common prefix (trace-cache tag
// hits that must miss), random jumps, stretches along the layout from
// one head block, so that it heads runs of several lengths, up to twice
// as long as the run memo's flat table, and one one-instruction block
// over and over (trace-cache lines that enter as many blocks as they
// hold instructions, and one block many times). It ends with a prefix
// of a hot path, so that a stored trace may run past its end, usually
// in the middle of a fetch.
func randomCase(rng *rand.Rand) (*trace.Trace, *program.Layout) {
	nb := 2 + rng.Intn(30)
	b := program.NewBuilder()
	f := b.Proc("f", "m")
	label := func(i int) string { return "b" + strconv.Itoa(i) }
	for i := 0; i < nb; i++ {
		var size int
		switch rng.Intn(4) {
		case 0:
			size = 1
		case 1:
			size = 17 + rng.Intn(40) // wider than any fetch
		default:
			size = 2 + rng.Intn(9)
		}
		target := label(rng.Intn(nb))
		switch k := rng.Intn(5); {
		case i == nb-1:
			f.Ret(label(i), size)
		case k == 0:
			f.Cond(label(i), size, target)
		case k == 1:
			f.Jump(label(i), size, target)
		case k == 2:
			f.Ret(label(i), size)
		default:
			f.Fall(label(i), size)
		}
	}
	p := b.MustBuild()

	order := make([]program.BlockID, nb)
	for i := range order {
		order[i] = program.BlockID(i)
	}
	var l *program.Layout
	switch rng.Intn(3) {
	case 0:
		l = program.OriginalLayout(p)
	case 1:
		rng.Shuffle(nb, func(i, j int) { order[i], order[j] = order[j], order[i] })
		l = must(program.NewLayoutFromOrder("perm", p, order))
	default:
		rng.Shuffle(nb, func(i, j int) { order[i], order[j] = order[j], order[i] })
		addr := make([]uint64, nb)
		var a uint64
		unaligned := rng.Intn(2) == 0 // gaps that are not whole instructions
		for _, blk := range order {
			if rng.Intn(3) == 0 {
				a += uint64(rng.Intn(40)) * program.InstrBytes
				if unaligned {
					a += uint64(rng.Intn(program.InstrBytes))
				}
			}
			addr[blk] = a
			a += p.Block(blk).SizeBytes()
		}
		l = must(program.NewLayoutFromAddrs("gaps", p, addr))
	}

	// Hot paths; path 1 shares path 0's first blocks and then diverges.
	paths := make([][]program.BlockID, 2+rng.Intn(3))
	for i := range paths {
		for n := 1 + rng.Intn(6); n > 0; n-- {
			paths[i] = append(paths[i], program.BlockID(rng.Intn(nb)))
		}
	}
	paths[1] = append(append([]program.BlockID(nil), paths[0][:(len(paths[0])+1)/2]...), paths[1]...)
	var ones []program.BlockID
	for i := 0; i < nb; i++ {
		if p.Block(program.BlockID(i)).Size == 1 {
			ones = append(ones, program.BlockID(i))
		}
	}
	tr := trace.New(p)
	cur := program.BlockID(rng.Intn(nb))
	head := rng.Intn(max(1, nb-runTable)) // position in l.Order
	for n := rng.Intn(600); n > 0; n-- {
		switch k := rng.Intn(10); {
		case k < 3:
			tr.Blocks = append(tr.Blocks, paths[rng.Intn(len(paths))]...)
			cur = tr.Blocks[len(tr.Blocks)-1]
		case k < 6:
			cur = (cur + 1) % program.BlockID(nb) // next in declaration order
			tr.Blocks = append(tr.Blocks, cur)
		case k < 8:
			cur = program.BlockID(rng.Intn(nb))
			tr.Blocks = append(tr.Blocks, cur)
		case k < 9: // along the layout from the head
			tr.Blocks = append(tr.Blocks, l.Order[head:min(nb, head+1+rng.Intn(2*runTable))]...)
			cur = tr.Blocks[len(tr.Blocks)-1]
		case len(ones) > 0:
			cur = ones[rng.Intn(len(ones))]
			for m := 1 + rng.Intn(2*runTable); m > 0; m-- {
				tr.Blocks = append(tr.Blocks, cur)
			}
		}
	}
	tr.Blocks = append(tr.Blocks, paths[0][:rng.Intn(len(paths[0])+1)]...)
	return tr, l
}

// configCase is one cache configuration of the comparison.
type configCase struct {
	lineBytes int // 16, 32, 64 or 128; the ideal cache's is 64
	icache    int // 0 ideal, 1 direct-mapped, 2 two-way, 3 victim
	tc        bool
	tcEntries int
}

func (c configCase) build() Config {
	var cfg Config
	// Small caches, so that a few dozen blocks conflict.
	size := 8 * c.lineBytes
	switch c.icache {
	case 1:
		cfg.ICache = cache.NewDirectMapped(size, c.lineBytes)
	case 2:
		cfg.ICache = cache.NewSetAssoc(size, c.lineBytes, 2)
	case 3:
		cfg.ICache = cache.NewVictim(size, c.lineBytes, 2)
	}
	if c.tc {
		cfg.TC = cache.NewTraceCache(c.tcEntries)
	}
	return cfg
}

// checkEqualsReference simulates one case both ways, the shipped
// simulator split into each of chunkCounts chunks, and adds what the
// reference walk met to cover if it is not nil.
func checkEqualsReference(t *testing.T, tr *trace.Trace, l *program.Layout, c configCase, cover *tcCoverage, chunkCounts ...int) {
	t.Helper()
	want := refSimulate(tr, l, c.build(), cover)
	for _, chunks := range chunkCounts {
		got := simulate(tr, l, c.build(), chunks)
		if got == want {
			continue
		}
		gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
		for i := 0; i < gv.NumField(); i++ {
			if g, w := gv.Field(i).Uint(), wv.Field(i).Uint(); g != w {
				t.Errorf("%s = %d, reference %d", gv.Type().Field(i).Name, g, w)
			}
		}
		t.Fatalf("config %+v, %d blocks, %d events, layout %s, %d chunks: Simulate differs from the per-instruction reference",
			c, tr.Program().NumBlocks(), tr.Len(), l.Name, chunks)
	}
}

// chunkCounts are the splits every reference case is simulated at: the
// serial walk, a few joins, and more chunks than the trace has events.
func chunkCounts(tr *trace.Trace) []int { return []int{1, 2, 3, 7, tr.Len() + 5} }

// TestSimulateEqualsReference is the seeded property test: random
// programs, layouts and traces under every cache kind, with and
// without a trace cache, over the line sizes.
func TestSimulateEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	cases := 60
	if testing.Short() {
		cases = 10
	}
	var cover runCoverage
	var tcCover tcCoverage
	for n := 0; n < cases; n++ {
		tr, l := randomCase(rng)
		cover.add(tr, l)
		for _, lineBytes := range []int{16, 32, 64, 128} {
			for icache := 0; icache < 4; icache++ {
				if icache == 0 && lineBytes != cache.DefaultLineBytes {
					continue
				}
				for _, tc := range []bool{false, true} {
					checkEqualsReference(t, tr, l, configCase{lineBytes: lineBytes, icache: icache, tc: tc,
						tcEntries: 1 << rng.Intn(7)}, &tcCover, chunkCounts(tr)...)
				}
			}
		}
	}
	if cover.longest <= runTable || !cover.sharedHead || !cover.splitLong {
		t.Errorf("the cases miss part of the run path: longest run %d blocks (table %d), one head of several lengths %v, chunk boundary inside a longer run %v",
			cover.longest, runTable, cover.sharedHead, cover.splitLong)
	}
	if !tcCover.fullLine || !tcCover.pastEnd || !tcCover.reentered {
		t.Errorf("the cases miss part of the trace cache: a full line of one-instruction blocks %v, a tag hit running past the end of the stream %v, one block entered twice in a line %v",
			tcCover.fullLine, tcCover.pastEnd, tcCover.reentered)
	}
}

// TestSimulateTwoBlocksAtOneAddress: a layout that puts two blocks at
// one address has no fall-through table — the block laid out after x
// would be a and b both — so NewLayoutFromAddrs refuses it, naming both
// blocks, and Simulate, SimulateSerial and Sequentiality never see one.
func TestSimulateTwoBlocksAtOneAddress(t *testing.T) {
	b := program.NewBuilder()
	f := b.Proc("f", "m")
	f.Fall("x", 2)
	f.Ret("a", 3)
	f.Ret("b", 5)
	p := b.MustBuild()
	a, y := p.MustBlock("f.a"), p.MustBlock("f.b")
	addr := make([]uint64, p.NumBlocks())
	addr[a], addr[y] = 2*program.InstrBytes, 2*program.InstrBytes
	l, err := program.NewLayoutFromAddrs("overlap", p, addr)
	if l != nil || err == nil || !strings.Contains(err.Error(), "f.a") || !strings.Contains(err.Error(), "f.b") {
		t.Fatalf("got %v, %v; want no layout and an error naming f.a and f.b", l, err)
	}
}

// TestRunStopsLikeFetches: a walk a run at a time stops where the walk
// one fetch at a time does — at the first fetch start at or after the
// stop, which may lie inside a run or a block — with the same counters
// and cache state, stop after stop, for every kind of i-cache.
func TestRunStopsLikeFetches(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for n := 0; n < 40; n++ {
		tr, l := randomCase(rng)
		c := configCase{lineBytes: 16 << rng.Intn(4), icache: rng.Intn(4)}
		if c.icache == 0 {
			c.lineBytes = cache.DefaultLineBytes
		}
		s := newStream(tr, l)
		u := unit{lineShift: uint(bits.TrailingZeros(uint(c.lineBytes)))}
		// Each walk has a cache of its own; a 2-way or victim cache
		// records the lines accessed through it.
		walk := func() walker {
			w := walker{stream: *s, ic: c.build().ICache}
			if c.icache > 1 {
				w.ic = &recorder{ICache: w.ic}
			}
			return w
		}
		byRun, byFetch := walk(), walk()
		for !byRun.done() {
			stop := pos{min(tr.Len(), byRun.idx+1+rng.Intn(3*runTable)), 0}
			if stop.idx < tr.Len() && rng.Intn(2) == 0 {
				stop.off = rng.Int31n(s.info[tr.Blocks[stop.idx]].size)
			}
			u.run(&byRun, stop)
			u.fetches(&byFetch, stop)
			if byRun.at() != byFetch.at() || byRun.r != byFetch.r || !sameCache(byRun.ic, byFetch.ic) {
				t.Fatalf("case %d, config %+v, stop %v: a run at a time at %v with %+v, a fetch at a time at %v with %+v",
					n, c, stop, byRun.at(), byRun.r, byFetch.at(), byFetch.r)
			}
		}
	}
}

// recorder is an i-cache that keeps the lines accessed through it, less
// immediate repeats, which hit and change no state (cache.ICache): two
// walks that leave the same sequence behind leave the caches under the
// recorders in the same state, whatever their kind.
type recorder struct {
	cache.ICache
	lines []uint64
}

func (r *recorder) Access(addr uint64) bool {
	line := addr / uint64(r.LineBytes())
	if n := len(r.lines); n == 0 || r.lines[n-1] != line {
		r.lines = append(r.lines, line)
	}
	return r.ICache.Access(addr)
}

// sameCache reports whether two walks' i-caches are in the same state:
// both ideal, direct-mapped caches that cover each other, or recorders
// that saw the same line sequence.
func sameCache(a, b cache.ICache) bool {
	switch a := a.(type) {
	case *cache.DirectMapped:
		b := b.(*cache.DirectMapped)
		return a.Covers(b) && b.Covers(a)
	case *recorder:
		return slices.Equal(a.lines, b.(*recorder).lines)
	}
	return a == nil && b == nil
}

// runCoverage is what of the run path (see the package comment) a set
// of cases exercises: the longest run, whether one first block heads
// runs of several lengths, and whether a boundary of a 2-, 3- or
// 7-chunk split falls inside a run longer than the memo's flat table.
type runCoverage struct {
	longest               int
	sharedHead, splitLong bool
}

func (c *runCoverage) add(tr *trace.Trace, l *program.Layout) {
	s := newStream(tr, l)
	events := len(s.blocks)
	length := map[program.BlockID]int{}
	for i := 0; i < events; {
		j := s.runEnd(i)
		n := j - i
		c.longest = max(c.longest, n)
		if m, ok := length[s.blocks[i]]; ok && m != n {
			c.sharedHead = true
		}
		length[s.blocks[i]] = n
		for _, chunks := range []int{2, 3, 7} {
			for k := 1; k < chunks; k++ {
				if b := chunkStart(k, chunks, events); n > runTable && i < b && b < j {
					c.splitLong = true
				}
			}
		}
		i = j
	}
}

// FuzzSimulate lets the fuzzer pick the seed the case is drawn from,
// the caches and the number of chunks.
func FuzzSimulate(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(1), true, uint8(6), uint8(1))
	f.Add(int64(42), uint8(0), uint8(0), true, uint8(0), uint8(2))
	f.Add(int64(7), uint8(3), uint8(3), false, uint8(3), uint8(7))
	f.Add(int64(-9), uint8(1), uint8(2), true, uint8(2), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, line, icache uint8, tc bool, tcEntries, chunks uint8) {
		tr, l := randomCase(rand.New(rand.NewSource(seed)))
		c := configCase{lineBytes: 16 << (line % 4), icache: int(icache % 4), tc: tc, tcEntries: 1 << (tcEntries % 8)}
		if c.icache == 0 {
			c.lineBytes = cache.DefaultLineBytes
		}
		checkEqualsReference(t, tr, l, c, nil, int(chunks))
		checkSequentiality(t, l, tr)
	})
}

// refSequentiality is Sequentiality as a walk over the trace's events:
// every transition whose target does not start where its source ends
// is taken.
func refSequentiality(t *trace.Trace, l *program.Layout) SequentialityStats {
	p := t.Program()
	var st SequentialityStats
	for i, b := range t.Blocks {
		st.Instrs += uint64(p.Block(b).Size)
		if i == 0 {
			continue
		}
		prev := t.Blocks[i-1]
		st.Transitions++
		if l.Addr[b] != l.Addr[prev]+p.Block(prev).SizeBytes() {
			st.Taken++
		}
	}
	if st.Taken > 0 {
		st.InstrPerTaken = float64(st.Instrs) / float64(st.Taken)
	} else {
		st.InstrPerTaken = float64(st.Instrs)
	}
	return st
}

// checkSequentiality compares Sequentiality over the profile of the
// given traces, each added on its own, with the event walk over each:
// the counts add up, and no transition joins two traces.
func checkSequentiality(t *testing.T, l *program.Layout, trs ...*trace.Trace) {
	t.Helper()
	var want SequentialityStats
	for _, tr := range trs {
		st := refSequentiality(tr, l)
		want.Instrs += st.Instrs
		want.Taken += st.Taken
		want.Transitions += st.Transitions
	}
	want.InstrPerTaken = float64(want.Instrs)
	if want.Taken > 0 {
		want.InstrPerTaken /= float64(want.Taken)
	}
	if got := Sequentiality(profiletest.FromTrace(trs...), l); got != want {
		t.Fatalf("layout %s, %d traces, %d events in the first: Sequentiality %+v, the event walk %+v",
			l.Name, len(trs), trs[0].Len(), got, want)
	}
}

// TestSequentialityEqualsReference: read from the profile's edge
// counts, the statistics equal the event walk's in all four fields, for
// random programs and traces under their original, permuted and gapped
// layouts, for one trace and for two added to one profile.
func TestSequentialityEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 60; n++ {
		tr, l := randomCase(rng)
		checkSequentiality(t, l, tr)
		half := trace.New(tr.Program())
		half.Blocks = tr.Blocks[rng.Intn(tr.Len()+1):]
		checkSequentiality(t, l, tr, half)
	}
}

// TestChunkCount: the split comes from GOMAXPROCS and the trace length
// alone, and a short trace is walked serially.
func TestChunkCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, c := range []struct{ events, want int }{
		{0, 1}, {minChunk - 1, 1}, {2*minChunk - 1, 1}, {2 * minChunk, 2}, {100 * minChunk, 8},
	} {
		if got := chunkCount(c.events); got != c.want {
			t.Errorf("chunkCount(%d) at GOMAXPROCS 8 = %d, want %d", c.events, got, c.want)
		}
	}
	runtime.GOMAXPROCS(1)
	if got := chunkCount(100 * minChunk); got != 1 {
		t.Errorf("chunkCount at GOMAXPROCS 1 = %d, want 1", got)
	}
}

// TestChunksOnlyOverJoinableCaches: however many cores and block
// events there are, a walk splits only over a cache whose cold copies
// join, the ideal or a direct-mapped one; a 2-way or victim cache walks
// one chunk.
func TestChunksOnlyOverJoinableCaches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, c := range []struct {
		name string
		ic   cache.ICache
		want int
	}{
		{"ideal", nil, 2},
		{"direct-mapped", cache.NewDirectMapped(2048, 64), 2},
		{"2-way", cache.NewSetAssoc(4096, 64, 2), 1},
		{"victim", cache.NewVictim(2048, 64, 16), 1},
	} {
		if got := split(c.ic, chunkCount(2*minChunk)); got != c.want {
			t.Errorf("%s cache, %d events at GOMAXPROCS 8: %d chunks, want %d", c.name, 2*minChunk, got, c.want)
		}
	}
}
