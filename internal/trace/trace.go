// Package trace records dynamic basic-block traces of an instrumented
// program image (package program). The instrumented database kernel
// emits one event per executed basic block; the resulting trace drives
// profiling (package profile) and the fetch/cache simulators (packages
// fetch and cache), exactly as the paper's ATOM-instrumented PostgreSQL
// binary feeds its simulators.
package trace

import (
	"fmt"

	"repro/internal/program"
)

// Trace is an in-memory dynamic basic-block trace. An event is one
// program.BlockID, 2 bytes.
type Trace struct {
	prog *program.Program
	// Blocks is the executed block sequence, in order. Its capacity
	// past len may hold scratch a Recorder wrote ahead (see
	// Recorder.Path); nothing reads it.
	Blocks []program.BlockID
	// Instrs is the total number of dynamic instructions.
	Instrs uint64
	// Marks label positions in the trace (query boundaries).
	Marks []Mark
}

// Mark labels a position in the trace, typically a query boundary.
type Mark struct {
	Pos   int // index into Blocks where the marked region starts
	Label string
}

// New returns an empty trace over the given program image.
func New(p *program.Program) *Trace {
	return &Trace{prog: p}
}

// Program returns the program image this trace was recorded over.
func (t *Trace) Program() *program.Program { return t.prog }

// Len returns the number of dynamic block events.
func (t *Trace) Len() int { return len(t.Blocks) }

// Replay invokes f for every block event in order.
func (t *Trace) Replay(f func(program.BlockID)) {
	for _, b := range t.Blocks {
		f(b)
	}
}

// Append concatenates another trace recorded over the same program.
func (t *Trace) Append(other *Trace) {
	base := len(t.Blocks)
	t.Blocks = append(t.Blocks, other.Blocks...)
	t.Instrs += other.Instrs
	for _, m := range other.Marks {
		t.Marks = append(t.Marks, Mark{Pos: base + m.Pos, Label: m.Label})
	}
}

// Recorder emits block events into a Trace while (optionally)
// validating that every dynamic transition corresponds to a legal
// static control transfer and that calls and returns pair up.
//
// The instrumented kernel calls Block for every executed basic block,
// in execution order, or Path for a pre-declared sequence of them. A
// validating recorder keeps the call stack: call blocks push their
// continuation; return blocks pop it and require the next event to be
// that continuation. A non-validating one only appends, 2 bytes per
// event.
type Recorder struct {
	prog     *program.Program
	t        *Trace
	validate bool

	// The validation state, kept only when validating.
	last    program.BlockID // last emitted block, or program.NoBlock
	stack   []program.BlockID
	pending bool // a return was emitted; next block must be stack top
	// unknown is set after a return above the tracing start point
	// (empty stack): the next transition cannot be validated, exactly
	// as when binary instrumentation attaches mid-execution.
	unknown bool
	err     error
}

// NewRecorder returns a Recorder appending into t. If validate is
// true, every transition is checked against the static CFG (slower;
// used by tests and the profiler's self-check mode).
func NewRecorder(t *Trace, validate bool) *Recorder {
	return &Recorder{prog: t.prog, t: t, validate: validate, last: program.NoBlock}
}

// Trace returns the underlying trace.
func (r *Recorder) Trace() *Trace { return r.t }

// Err returns the first validation error encountered, or nil.
func (r *Recorder) Err() error { return r.err }

// Mark records a labelled position (e.g. the start of a query).
func (r *Recorder) Mark(label string) {
	r.t.Marks = append(r.t.Marks, Mark{Pos: len(r.t.Blocks), Label: label})
}

// Block records the execution of basic block b.
func (r *Recorder) Block(b program.BlockID) {
	blk := r.prog.Block(b)
	if r.validate {
		r.check(b, blk)
	}
	r.t.Blocks = appendEvents(r.t.Blocks, b)
	r.t.Instrs += uint64(blk.Size)
}

// PathWidth is the longest path Path records with one fixed-size
// store, and the capacity a caller gives a path to get that store.
const PathWidth = 8

// Path records the execution of a pre-declared sequence of blocks, of
// instrs instructions in all (a hot instrumentation site). A validating
// recorder checks it block by block. Otherwise a path of at most
// PathWidth blocks whose slice has a capacity of at least PathWidth is
// recorded with one PathWidth-event store into the recording's tail,
// after which only len(p) events count: the store reads p's backing
// array up to PathWidth, and what it writes past the path lies beyond
// len(Trace.Blocks), to be overwritten by the next event. Any other
// path is appended in one copy.
func (r *Recorder) Path(p []program.BlockID, instrs uint64) {
	switch {
	case r.validate:
		for _, b := range p {
			r.Block(b)
		}
		return
	case len(p) <= PathWidth && cap(p) >= PathWidth:
		n := len(r.t.Blocks)
		if n+PathWidth > cap(r.t.Blocks) {
			r.t.Blocks = grow(r.t.Blocks, PathWidth)
		}
		*(*[PathWidth]program.BlockID)(r.t.Blocks[n : n+PathWidth]) = [PathWidth]program.BlockID(p[:PathWidth])
		r.t.Blocks = r.t.Blocks[:n+len(p)]
	default:
		r.t.Blocks = appendEvents(r.t.Blocks, p...)
	}
	r.t.Instrs += instrs
}

// check validates the transition into b, whose static block is blk,
// and keeps the call stack.
func (r *Recorder) check(b program.BlockID, blk *program.Block) {
	switch {
	case r.pending:
		// The previous event was a return: this block must be the
		// continuation on top of the call stack.
		r.pending = false
		want := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		if r.err == nil && b != want {
			r.err = fmt.Errorf("trace: return went to %s, expected continuation %s",
				r.prog.Block(b).Name, r.prog.Block(want).Name)
		}
	case r.unknown:
		r.unknown = false
	default:
		if r.err == nil && r.last != program.NoBlock && !r.prog.ValidEdge(r.last, b) {
			r.err = fmt.Errorf("trace: illegal transition %s -> %s",
				r.prog.Block(r.last).Name, r.prog.Block(b).Name)
		}
	}
	switch blk.Kind {
	case program.KindCall:
		r.stack = append(r.stack, blk.Succs[0])
	case program.KindReturn:
		if len(r.stack) > 0 {
			r.pending = true
		} else {
			// Return above the tracing start point: legal, but the
			// next transition is unknowable.
			r.unknown = true
		}
	}
	r.last = b
}

// minGrow is the smallest capacity, in events, a recording grows to.
const minGrow = 64 << 10

// appendEvents appends events to a recording, moving a recording that
// has no room for them first (see grow).
func appendEvents(blocks []program.BlockID, events ...program.BlockID) []program.BlockID {
	if len(blocks)+len(events) > cap(blocks) {
		blocks = grow(blocks, len(events))
	}
	return append(blocks, events...)
}

// grow moves a recording into one of twice its capacity (at least
// minGrow events), or of room for n more events if that is more. A trace is tens of millions of
// events long, and append's growth policy for large slices (1.25x)
// copies what is already recorded about five times over on the way
// there and leaves as much garbage; doubling copies it at most once in
// total.
func grow(blocks []program.BlockID, n int) []program.BlockID {
	grown := make([]program.BlockID, len(blocks), max(minGrow, 2*cap(blocks), len(blocks)+n))
	copy(grown, blocks)
	return grown
}
