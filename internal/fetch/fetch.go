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
package fetch

import (
	"fmt"
	"math"
	"math/bits"

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
// must be a power of two.
func Simulate(t *trace.Trace, l *program.Layout, cfg Config) Result {
	var r Result
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
	lineShift := uint(bits.TrailingZeros64(lineBytes))
	s := newStream(t, l)
	if cfg.ICache != nil {
		cfg.ICache.Reset()
	}
	if cfg.TC != nil {
		cfg.TC.Reset()
	}
	var tcFill []cache.Run
	for !s.done() {
		fetchAddr := s.cur()
		// Trace cache first: a hit delivers the stored trace in one
		// cycle, bypassing the i-cache.
		if cfg.TC != nil {
			if n, hit := s.takeTrace(cfg.TC.Lookup(fetchAddr)); hit {
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
			tcFill = s.traceFill(cfg.TC, tcFill[:0])
		}
		// SEQ.3 i-cache fetch.
		n, lastAddr := s.seq3(&cfg, fetchAddr, lineShift)
		r.Instrs += uint64(n)
		r.Fetches++
		r.Cycles++
		if cfg.ICache != nil {
			misses := uint64(0)
			r.LineAccesses++
			if !cfg.ICache.Access(fetchAddr) {
				misses++
			}
			if lastAddr>>lineShift != fetchAddr>>lineShift {
				r.LineAccesses++
				if !cfg.ICache.Access(lastAddr) {
					misses++
				}
			}
			r.LineMisses += misses
			r.Cycles += misses * cfg.MissPenalty
		}
		if cfg.TC != nil {
			cfg.TC.Fill(fetchAddr, tcFill)
		}
	}
	return r
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

// Sequentiality computes SequentialityStats for a trace under a layout.
func Sequentiality(t *trace.Trace, l *program.Layout) SequentialityStats {
	var st SequentialityStats
	info := newStream(t, l).info
	for i, b := range t.Blocks {
		bi := &info[b]
		st.Instrs += uint64(bi.size)
		if i+1 < len(t.Blocks) {
			st.Transitions++
			if info[t.Blocks[i+1]].addr != bi.addr+uint64(bi.size)*program.InstrBytes {
				st.Taken++
			}
		}
	}
	if st.Taken > 0 {
		st.InstrPerTaken = float64(st.Instrs) / float64(st.Taken)
	} else {
		st.InstrPerTaken = float64(st.Instrs)
	}
	return st
}
