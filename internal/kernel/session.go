package kernel

import (
	"repro/internal/db/probe"
	"repro/internal/trace"
)

// Session translates probe events from the instrumented engine into a
// dynamic basic-block trace — the role ATOM instrumentation plays in
// the paper. One session corresponds to one traced execution.
//
// While it records, a session also counts how often each probe
// followed each other (its Counts), which is all Image.Profile needs
// to assemble the weighted CFG without walking the trace again: a
// probe's block path is fixed, so the path's blocks and internal edges
// follow from how often the probe fired, and the edge into it from the
// probe before. This is instrumentation-time profiling in the manner
// of Ball and Larus's path profiling, with the probe path as the path.
type Session struct {
	img    *Image
	rec    *trace.Recorder
	counts *Counts
	// prev is the last probe with a non-empty path, or startRow at the
	// start and after a mark: the row of Counts the next probe counts in.
	prev probe.ID
	// Emit writes prev for every probe, so a Session fills a cache line
	// of its own: two sessions made one after the other and recording
	// on two cores must not write one line.
	_ [64 - 28]byte
}

// Counts holds a session's probe-pair counts: Counts[a][b] is how
// often probe b's path was recorded right after probe a's, row
// startRow standing for the start of the recording or a mark. A probe
// with an empty path records nothing and counts nothing. A cell is 32
// bits: a session would have to fire one pair of probes 2^32 times to
// wrap it, and a wrapped cell makes Image.Profile's block total fall
// short of the trace, which it refuses.
type Counts [probe.NumProbes + 1][probe.NumProbes]uint32

// startRow is the Counts row of the first probe after the start of a
// recording or a mark: no edge leads into it from the row.
const startRow = probe.NumProbes

var _ probe.Tracer = (*Session)(nil)

// NewSession starts a session recording through rec, a fresh recorder
// over the image's program: trace.NewRecorder into a trace, or a
// trace.Storage's recorder into its chunks. A validating recorder
// checks every dynamic transition against the static CFG (used by
// tests; cheap enough for the experiments too).
func (img *Image) NewSession(rec *trace.Recorder) *Session {
	return &Session{img: img, rec: rec, counts: new(Counts), prev: startRow}
}

// Emit implements probe.Tracer. It counts the probe after the previous
// one and, without validation, records the probe's path with one
// fixed-size store (trace.Recorder.TryPath, inlined here: the call it
// saves pays for the count).
func (s *Session) Emit(id probe.ID) {
	path := s.img.paths[id]
	if len(path) == 0 {
		return
	}
	s.counts[s.prev][id]++
	s.prev = id
	if instrs := s.img.pathInstrs[id]; !s.rec.TryPath(path, instrs) {
		s.rec.Path(path, instrs)
	}
}

// Mark labels the current trace position (query boundaries). The next
// probe is counted from startRow: the transition into a mark's position
// is Image.Profile's to count, because a merge of several sessions'
// traces puts another session's segment before it.
func (s *Session) Mark(label string) {
	s.rec.Mark(label)
	s.prev = startRow
}

// Counts returns the session's probe-pair counts, which go on growing
// as it records.
func (s *Session) Counts() *Counts { return s.counts }

// Err returns the first validation error, if any.
func (s *Session) Err() error { return s.rec.Err() }
