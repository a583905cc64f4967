package kernel

import (
	"repro/internal/db/probe"
	"repro/internal/trace"
)

// Session translates probe events from the instrumented engine into a
// dynamic basic-block trace — the role ATOM instrumentation plays in
// the paper. One session corresponds to one traced execution.
type Session struct {
	img *Image
	rec *trace.Recorder
}

var _ probe.Tracer = (*Session)(nil)

// NewSession starts a trace over the image. With validate set, every
// dynamic transition is checked against the static CFG (used by tests;
// cheap enough for the experiments too).
func (img *Image) NewSession(validate bool) *Session {
	t := trace.New(img.Prog)
	return &Session{img: img, rec: trace.NewRecorder(t, validate)}
}

// Emit implements probe.Tracer. Without validation it records the
// probe's path with one fixed-size store (trace.Recorder.Path).
func (s *Session) Emit(id probe.ID) {
	s.rec.Path(s.img.paths[id], s.img.pathInstrs[id])
}

// Mark labels the current trace position (query boundaries).
func (s *Session) Mark(label string) { s.rec.Mark(label) }

// Trace returns the recorded trace.
func (s *Session) Trace() *trace.Trace { return s.rec.Trace() }

// Err returns the first validation error, if any.
func (s *Session) Err() error { return s.rec.Err() }
