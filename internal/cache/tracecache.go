package cache

import (
	"fmt"
	"slices"

	"repro/internal/program"
)

// Trace is one stored trace as the fetch unit walks it: the basic
// blocks it enters, in order, its instruction count, and where it ends
// — the instruction offset in its last block that it stops before, or 0
// when it takes that block to its end. Its first instruction is the one
// at the fetch address it is stored under.
type Trace struct {
	Blocks []program.BlockID
	Instrs int32
	End    int32
}

// The shape of a trace-cache line, the paper's (Section 7.3): a trace
// holds up to TraceInstrs instructions and TraceBranches branches. The
// cache stores a line in room for TraceInstrs blocks; the fetch unit's
// fill unit builds lines to both limits.
const (
	TraceInstrs   = 16
	TraceBranches = 3
)

// TraceCache models the basic trace cache of Rotenberg, Bennett and
// Smith used in Section 7.3: a direct-mapped buffer of dynamic
// instruction sequences, each up to TraceInstrs instructions and
// TraceBranches branches long, indexed by fetch address (instructions
// are program.InstrBytes long).
//
// A line holds its trace as a Trace: the blocks the trace enters (at
// most TraceInstrs of them), its instruction count and where it ends, so
// a hit moves the fetch unit's cursor in one step. With the paper's
// perfect branch prediction a fetch hits when the stored sequence is
// what the dynamic stream executes next, i.e. the stored branch
// outcomes agree with the (perfectly predicted) future path; the fetch
// unit, which owns the stream, makes that comparison against what
// Lookup returns. Rotenberg's line stores instruction addresses. No two
// blocks of a layout overlap (program's layout constructors refuse such
// a layout), so an address names one block and one offset in it, a tag
// and the blocks entered fix a trace's addresses and its addresses fix
// the blocks: comparing block IDs is comparing addresses, and the model
// is the same one.
type TraceCache struct {
	lines     []tcLine
	blocks    []program.BlockID // line i's trace enters blocks[i*TraceInstrs:][:lines[i].n]
	first     []uint64          // the tag that first filled each line (see Hazard)
	touches   []uint64          // Lookups and Fills of each line so far
	indexMask uint64
	spares    *tcSpares // the storage of its copies (see spare), made on the first Copy
}

type tcSpares struct {
	caches spare[TraceCache]
	lines  spare[tcLine]
	blocks spare[program.BlockID]
	words  spare[uint64]
}

// tcLine is one entry; n == 0 means empty. An empty entry is all zero,
// and every block slot past a line's n is zero, so two caches in the
// same state have equal slices.
type tcLine struct {
	tag         uint64 // fetch address
	n           int32  // blocks entered
	instrs, end int32
}

// CheckTraceCache reports whether a trace cache of that many entries
// can be built: it is indexed by shift and mask, so the count must be a
// power of two. NewTraceCache panics on what it rejects.
func CheckTraceCache(entries int) error {
	if !IsPowerOfTwo(entries) {
		return fmt.Errorf("cache: %d trace-cache entries is not a power of two", entries)
	}
	return nil
}

// NewTraceCache returns a direct-mapped trace cache with the given
// number of entries. The paper's configuration is 256 entries (16 KB).
func NewTraceCache(entries int) *TraceCache {
	if err := CheckTraceCache(entries); err != nil {
		panic(err.Error())
	}
	return &TraceCache{
		lines:     make([]tcLine, entries),
		blocks:    make([]program.BlockID, entries*TraceInstrs),
		first:     make([]uint64, entries),
		touches:   make([]uint64, entries),
		indexMask: uint64(entries) - 1,
	}
}

// Entries returns the number of trace lines.
func (tc *TraceCache) Entries() int { return len(tc.lines) }

// index is the entry of fetch address addr: its instruction number
// modulo the entry count (program.InstrBytes is a power of two, so the
// division is a shift).
func (tc *TraceCache) index(addr uint64) int {
	return int((addr / program.InstrBytes) & tc.indexMask)
}

// Lookup returns the trace stored for fetch address addr, and false
// when the entry it maps to is empty or holds another address's trace.
// The trace's blocks stay valid until the next Fill or Reset.
func (tc *TraceCache) Lookup(addr uint64) (Trace, bool) {
	i := tc.index(addr)
	tc.touches[i]++
	if l := tc.lines[i]; l.n > 0 && l.tag == addr {
		return Trace{Blocks: tc.trace(i), Instrs: l.instrs, End: l.end}, true
	}
	return Trace{}, false
}

// Fill inserts t as the trace starting at addr (already truncated to
// the line limits by the fill unit, so entering at most TraceInstrs
// blocks), replacing whatever the entry held. The blocks are copied.
func (tc *TraceCache) Fill(addr uint64, t Trace) {
	if len(t.Blocks) == 0 {
		return
	}
	if len(t.Blocks) > TraceInstrs {
		panic(fmt.Sprintf("cache: %d blocks in a %d-instruction trace line", len(t.Blocks), TraceInstrs))
	}
	i := tc.index(addr)
	tc.touches[i]++
	if tc.lines[i].n == 0 {
		tc.first[i] = addr
	}
	line := tc.blocks[i*TraceInstrs:][:TraceInstrs]
	copy(line, t.Blocks)
	if old := int(tc.lines[i].n); old > len(t.Blocks) {
		clear(line[len(t.Blocks):old])
	}
	tc.lines[i] = tcLine{tag: addr, n: int32(len(t.Blocks)), instrs: t.Instrs, end: t.End}
}

// Reset invalidates all lines.
func (tc *TraceCache) Reset() {
	clear(tc.lines)
	clear(tc.blocks)
	clear(tc.touches)
}

// Clone returns an empty trace cache of the same configuration. It
// reads only what construction set, so it may run while another
// goroutine looks up and fills tc.
func (tc *TraceCache) Clone() *TraceCache { return NewTraceCache(len(tc.lines)) }

// Copy returns a trace cache of the same configuration holding the
// same traces. Like Lookup and Fill, it is for one goroutine at a time.
func (tc *TraceCache) Copy() *TraceCache {
	if tc.spares == nil {
		tc.spares = new(tcSpares)
	}
	s, n := tc.spares, len(tc.lines)
	c := &s.caches.take(1)[0]
	*c = *tc
	c.lines, c.blocks = s.lines.take(n), s.blocks.take(len(tc.blocks))
	c.first, c.touches = s.words.take(n), s.words.take(n)
	copy(c.lines, tc.lines)
	copy(c.blocks, tc.blocks)
	copy(c.first, tc.first)
	copy(c.touches, tc.touches)
	return c
}

// The methods below let a trace cache started empty stand in for one
// in an unknown state, the way a cold DirectMapped does for an i-cache:
// the fetch simulator joins a chunk walked from a cold start onto the
// true state with them. Lines are named by entry index.

// Hazard reports whether before and o differ in line i in a way that
// may matter: whether the line's next lookup, in the run tc's state
// ends and before's lies on, might be answered differently from o's
// state than from before's. Only a line empty in before that this run
// first filled under a tag o's line does not have is no hazard when
// they differ: both miss there and fill the same trace.
func (tc *TraceCache) Hazard(before, o *TraceCache, i int) bool {
	b := before.lines[i]
	switch {
	case b == o.lines[i] && slices.Equal(before.trace(i), o.trace(i)):
		return false
	case b.n == 0 && tc.lines[i].n > 0 && tc.first[i] != o.lines[i].tag:
		return false
	}
	return true
}

// Touched reports whether line i was looked up or filled in the run
// that passed through before on its way to tc's state, after before.
func (tc *TraceCache) Touched(before *TraceCache, i int) bool {
	return tc.touches[i] > before.touches[i]
}

// Underlay gives every line of tc not touched since before o's trace.
func (tc *TraceCache) Underlay(before, o *TraceCache) {
	for i := range tc.lines {
		if !tc.Touched(before, i) {
			tc.lines[i] = o.lines[i]
			copy(tc.blocks[i*TraceInstrs:][:TraceInstrs], o.blocks[i*TraceInstrs:][:TraceInstrs])
		}
	}
}

// trace returns the blocks line i's trace enters.
func (tc *TraceCache) trace(i int) []program.BlockID {
	n := tc.lines[i].n
	return tc.blocks[i*TraceInstrs:][:n:n]
}
