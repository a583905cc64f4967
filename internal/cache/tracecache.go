package cache

import (
	"fmt"
	"math/bits"
	"slices"
)

// Run is N consecutive instructions starting at byte address Addr: the
// part of one basic block that a trace contains.
type Run struct {
	Addr uint64
	N    int32
}

// TraceCache models the basic trace cache of Rotenberg, Bennett and
// Smith used in Section 7.3: a direct-mapped buffer of dynamic
// instruction sequences, each up to MaxInstrs instructions and
// MaxBranches branches long, indexed by fetch address.
//
// A trace is stored as the runs of consecutive instruction addresses
// it contains, one per basic block it enters, so at most MaxInstrs of
// them. With the paper's perfect branch prediction a fetch hits when
// the stored sequence is what the dynamic stream executes next, i.e.
// the stored branch outcomes agree with the (perfectly predicted)
// future path; the fetch unit, which owns the stream, makes that
// comparison against what Lookup returns.
type TraceCache struct {
	maxInstrs  int
	maxBranch  int
	lines      []tcLine
	runs       []Run    // line i's trace is runs[i*maxInstrs:][:lines[i].n]
	first      []uint64 // the tag that first filled each line (see Hazard)
	touches    []uint64 // Lookups and Fills of each line so far
	sizeBytes  int
	instrShift uint
	indexMask  uint64
}

// tcLine is one entry; n == 0 means empty. An empty entry has tag 0,
// and every run slot past a line's n is zero, so two caches in the same
// state have equal slices.
type tcLine struct {
	tag uint64 // fetch address
	n   int32  // runs stored
}

// CheckTraceCache reports whether a trace cache of that many entries
// over instrBytes-sized instructions can be built: it is indexed by
// shift and mask, so both must be powers of two. NewTraceCache panics
// on what it rejects.
func CheckTraceCache(entries, instrBytes int) error {
	switch {
	case !IsPowerOfTwo(entries):
		return fmt.Errorf("cache: %d trace-cache entries is not a power of two", entries)
	case !IsPowerOfTwo(instrBytes):
		return fmt.Errorf("cache: instruction size %d is not a power of two", instrBytes)
	}
	return nil
}

// NewTraceCache returns a direct-mapped trace cache with the given
// number of entries, each holding up to maxInstrs instructions and
// maxBranches branches. The paper's configuration is 256 entries of 16
// instructions (16 KB).
func NewTraceCache(entries, maxInstrs, maxBranches, instrBytes int) *TraceCache {
	if err := CheckTraceCache(entries, instrBytes); err != nil {
		panic(err.Error())
	}
	return &TraceCache{
		maxInstrs:  maxInstrs,
		maxBranch:  maxBranches,
		lines:      make([]tcLine, entries),
		runs:       make([]Run, entries*max(maxInstrs, 0)),
		first:      make([]uint64, entries),
		touches:    make([]uint64, entries),
		sizeBytes:  entries * maxInstrs * instrBytes,
		instrShift: uint(bits.TrailingZeros(uint(instrBytes))),
		indexMask:  uint64(entries) - 1,
	}
}

// Name describes the configuration.
func (tc *TraceCache) Name() string { return fmt.Sprintf("%dKB trace cache", tc.sizeBytes/1024) }

// Entries returns the number of trace lines.
func (tc *TraceCache) Entries() int { return len(tc.lines) }

// MaxInstrs returns the per-line instruction capacity.
func (tc *TraceCache) MaxInstrs() int { return tc.maxInstrs }

// MaxBranches returns the per-line branch limit.
func (tc *TraceCache) MaxBranches() int { return tc.maxBranch }

func (tc *TraceCache) index(addr uint64) int {
	return int((addr >> tc.instrShift) & tc.indexMask)
}

// Lookup returns the trace stored for fetch address addr, or nil when
// the entry it maps to is empty or holds another address's trace. The
// runs stay valid until the next Fill or Reset.
func (tc *TraceCache) Lookup(addr uint64) []Run {
	i := tc.index(addr)
	tc.touches[i]++
	if l := tc.lines[i]; l.n == 0 || l.tag != addr {
		return nil
	}
	return slices.Clip(tc.trace(i))
}

// Fill inserts a trace starting at addr with the given runs (already
// truncated to the line limits by the fill unit, so at most MaxInstrs
// of them), replacing whatever the entry held. The runs are copied.
func (tc *TraceCache) Fill(addr uint64, runs []Run) {
	if len(runs) == 0 {
		return
	}
	if len(runs) > tc.maxInstrs {
		panic(fmt.Sprintf("cache: %d runs in a %d-instruction trace line", len(runs), tc.maxInstrs))
	}
	i := tc.index(addr)
	tc.touches[i]++
	if tc.lines[i].n == 0 {
		tc.first[i] = addr
	}
	line := tc.runs[i*tc.maxInstrs:][:tc.maxInstrs]
	copy(line, runs)
	if old := int(tc.lines[i].n); old > len(runs) {
		clear(line[len(runs):old])
	}
	tc.lines[i] = tcLine{tag: addr, n: int32(len(runs))}
}

// Reset invalidates all lines.
func (tc *TraceCache) Reset() {
	clear(tc.lines)
	clear(tc.runs)
	clear(tc.touches)
}

// Clone returns an empty trace cache of the same configuration. It
// reads only what construction set, so it may run while another
// goroutine looks up and fills tc.
func (tc *TraceCache) Clone() *TraceCache {
	c := *tc
	n := len(tc.lines)
	c.lines, c.runs = make([]tcLine, n), make([]Run, len(tc.runs))
	c.first, c.touches = make([]uint64, n), make([]uint64, n)
	return &c
}

// Copy returns a trace cache of the same configuration holding the
// same traces.
func (tc *TraceCache) Copy() *TraceCache {
	c := *tc
	c.lines, c.runs = slices.Clone(tc.lines), slices.Clone(tc.runs)
	c.first, c.touches = slices.Clone(tc.first), slices.Clone(tc.touches)
	return &c
}

// Equal reports whether other has the same configuration and holds the
// same traces under the same tags.
func (tc *TraceCache) Equal(other *TraceCache) bool {
	return tc.maxInstrs == other.maxInstrs && tc.maxBranch == other.maxBranch &&
		slices.Equal(tc.lines, other.lines) && slices.Equal(tc.runs, other.runs)
}

// The methods below let a trace cache started empty stand in for one
// in an unknown state, the way cache.Partial does for an i-cache: the
// fetch simulator joins a chunk walked from a cold start onto the true
// state with them. Lines are named by entry index.

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
			copy(tc.runs[i*tc.maxInstrs:][:tc.maxInstrs], o.runs[i*o.maxInstrs:][:o.maxInstrs])
		}
	}
}

// trace returns line i's stored runs.
func (tc *TraceCache) trace(i int) []Run {
	return tc.runs[i*tc.maxInstrs:][:tc.lines[i].n]
}
