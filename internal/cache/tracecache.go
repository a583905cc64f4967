package cache

import (
	"fmt"
	"math/bits"
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
// it contains, one per basic block it enters. With the paper's perfect
// branch prediction a fetch hits when the stored sequence is what the
// dynamic stream executes next, i.e. the stored branch outcomes agree
// with the (perfectly predicted) future path; the fetch unit, which
// owns the stream, makes that comparison against what Lookup returns.
type TraceCache struct {
	maxInstrs  int
	maxBranch  int
	lines      []tcLine
	sizeBytes  int
	instrShift uint
	indexMask  uint64
}

type tcLine struct {
	valid bool
	tag   uint64 // fetch address
	runs  []Run
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

func (tc *TraceCache) line(addr uint64) *tcLine {
	return &tc.lines[(addr>>tc.instrShift)&tc.indexMask]
}

// Lookup returns the trace stored for fetch address addr, or nil when
// the entry it maps to is empty or holds another address's trace. The
// runs stay valid until the next Fill or Reset.
func (tc *TraceCache) Lookup(addr uint64) []Run {
	l := tc.line(addr)
	if !l.valid || l.tag != addr {
		return nil
	}
	return l.runs
}

// Fill inserts a trace starting at addr with the given runs (already
// truncated to the line limits by the fill unit), replacing whatever
// the entry held. The runs are copied.
func (tc *TraceCache) Fill(addr uint64, runs []Run) {
	if len(runs) == 0 {
		return
	}
	l := tc.line(addr)
	l.valid = true
	l.tag = addr
	l.runs = append(l.runs[:0], runs...)
}

// Reset invalidates all lines.
func (tc *TraceCache) Reset() {
	for i := range tc.lines {
		tc.lines[i].valid = false
		tc.lines[i].runs = tc.lines[i].runs[:0]
	}
}
