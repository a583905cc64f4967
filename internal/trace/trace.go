// Package trace records dynamic basic-block traces of an instrumented
// program image (package program). The instrumented database kernel
// emits one event per executed basic block; the resulting trace drives
// the reuse-distance measure (package profile) and the fetch/cache
// simulators (packages fetch and cache), exactly as the paper's
// ATOM-instrumented PostgreSQL binary feeds its simulators. The
// weighted CFG is not counted from it: the kernel counts it while
// recording (kernel.Image.Profile).
package trace

import (
	"fmt"
	"sync"

	"repro/internal/program"
)

// Trace is an in-memory dynamic basic-block trace. An event is one
// program.BlockID, 2 bytes.
type Trace struct {
	prog *program.Program
	// Blocks is the executed block sequence, in order. Its capacity
	// past len may hold scratch a Recorder wrote ahead (see
	// Recorder.TryPath); nothing reads it.
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

// Storage is recording storage kept across recordings: fixed-size
// chunks of events. A recorder it makes (Storage.Recorder) fills one
// chunk after another instead of growing and copying one array, and
// Release hands the chunks back for the next recording, so a pipeline
// that keeps one Storage across its profiles allocates chunks for as
// many events as it ever records at once, and then no more. It is safe
// for concurrent use.
type Storage struct {
	mu   sync.Mutex
	free [][]program.BlockID
}

// chunkEvents is the capacity of a Storage chunk, in events.
const chunkEvents = 64 << 10

// Recorder returns a recorder over p (see NewRecorder) that records
// into chunks of s.
func (s *Storage) Recorder(p *program.Program, validate bool) *Recorder {
	r := NewRecorder(New(p), validate)
	r.store = s
	r.t.Blocks = s.chunk()
	return r
}

// chunk returns an empty chunk, one s keeps if it has one.
func (s *Storage) chunk() []program.BlockID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		c := s.free[n-1]
		s.free = s.free[:n-1]
		return c[:0]
	}
	return make([]program.BlockID, 0, chunkEvents)
}

// Program returns the program image this trace was recorded over.
func (t *Trace) Program() *program.Program { return t.prog }

// Len returns the number of dynamic block events.
func (t *Trace) Len() int { return len(t.Blocks) }

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

	// A Storage's recorder records into t.Blocks one chunk at a time:
	// full holds the chunks filled before it, base their events, and
	// t.Marks count positions from the start of the recording.
	store *Storage
	full  [][]program.BlockID
	base  int

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

// Len returns the number of events recorded.
func (r *Recorder) Len() int { return r.base + len(r.t.Blocks) }

// Instrs returns the number of instructions recorded.
func (r *Recorder) Instrs() uint64 { return r.t.Instrs }

// Marks returns the marks recorded, at positions counted from the
// start of the recording.
func (r *Recorder) Marks() []Mark { return r.t.Marks }

// AppendEvents appends the events recorded at positions lo to hi to
// dst and returns the result.
func (r *Recorder) AppendEvents(dst []program.BlockID, lo, hi int) []program.BlockID {
	for i := 0; i <= len(r.full) && lo < hi; i++ {
		c := r.t.Blocks
		if i < len(r.full) {
			c = r.full[i]
		}
		if lo < len(c) {
			dst = append(dst, c[lo:min(hi, len(c))]...)
		}
		lo, hi = max(lo-len(c), 0), hi-len(c)
	}
	return dst
}

// Release hands a Storage recorder's chunks back to its storage. The
// recorder must not be used again.
func (r *Recorder) Release() {
	if r.store == nil {
		return
	}
	r.store.mu.Lock()
	r.store.free = append(append(r.store.free, r.full...), r.t.Blocks)
	r.store.mu.Unlock()
	r.full, r.t = nil, nil
}

// Err returns the first validation error encountered, or nil.
func (r *Recorder) Err() error { return r.err }

// Mark records a labelled position (e.g. the start of a query).
func (r *Recorder) Mark(label string) {
	r.t.Marks = append(r.t.Marks, Mark{Pos: r.Len(), Label: label})
}

// Block records the execution of basic block b.
func (r *Recorder) Block(b program.BlockID) {
	blk := r.prog.Block(b)
	if r.validate {
		r.check(b, blk)
	}
	r.room(1)
	r.t.Blocks = append(r.t.Blocks, b)
	r.t.Instrs += uint64(blk.Size)
}

// PathWidth is the longest path Path records with one fixed-size
// store, and the capacity a caller gives a path to get that store.
const PathWidth = 8

// Path records the execution of a pre-declared sequence of blocks, of
// instrs instructions in all (a hot instrumentation site). A validating
// recorder checks it block by block. Otherwise a path of at most
// PathWidth blocks whose slice has a capacity of at least PathWidth is
// recorded with one PathWidth-event store into the recording's tail
// (TryPath), after room is made for it (see room). Any other path is
// appended in one copy.
func (r *Recorder) Path(p []program.BlockID, instrs uint64) {
	switch {
	case r.validate:
		for _, b := range p {
			r.Block(b)
		}
	case len(p) <= PathWidth && cap(p) >= PathWidth:
		r.room(PathWidth)
		r.TryPath(p, instrs)
	default:
		r.room(len(p))
		r.t.Blocks = append(r.t.Blocks, p...)
		r.t.Instrs += instrs
	}
}

// TryPath is Path's one-store case. When the recorder does not
// validate, p has at most PathWidth blocks and a capacity of at least
// PathWidth, and the recording has room for PathWidth more events, it
// stores PathWidth events into the recording's tail, counts only
// len(p) of them and reports true: the store reads p's backing array up
// to PathWidth, and what it writes past the path lies beyond
// len(Trace.Blocks), to be overwritten by the next event. Otherwise it
// records nothing and reports false. It calls nothing, so the compiler
// inlines it into a hot caller, which falls back on Path.
func (r *Recorder) TryPath(p []program.BlockID, instrs uint64) bool {
	t := r.t
	n := len(t.Blocks)
	if r.validate || len(p) > PathWidth || cap(p) < PathWidth || n+PathWidth > cap(t.Blocks) {
		return false
	}
	*(*[PathWidth]program.BlockID)(t.Blocks[n : n+PathWidth]) = [PathWidth]program.BlockID(p[:PathWidth])
	t.Blocks = t.Blocks[:n+len(p)]
	t.Instrs += instrs
	return true
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

// room makes room for n more events in t.Blocks: a Storage's recorder
// files the chunk it fills away and takes a new one, any other grows
// the trace's array.
func (r *Recorder) room(n int) {
	b := r.t.Blocks
	switch {
	case len(b)+n <= cap(b):
	case r.store != nil:
		r.full = append(r.full, b)
		r.base += len(b)
		r.t.Blocks = r.store.chunk()
	default:
		r.t.Blocks = grow(b, n)
	}
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
