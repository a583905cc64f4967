package executor

import (
	"time"

	"repro/dsdb/obs"
	"repro/internal/db/probe"
)

// spanIO attributes buffer-pool IO waits to the execution's span. An
// observed but untraced execution hands it down the kernel in a
// probe.Carrier, which the access methods resolve to no recorder, so no
// access-method signature changes for observability.
type spanIO struct{ sp *obs.Span }

// AddIOWait implements probe.IOWaiter.
func (s spanIO) AddIOWait(d time.Duration) { s.sp.Add(obs.StageIO, d) }

// tracedSpan is what a traced, observed execution hands down: the
// access methods record through it, so it forwards every event to the
// session tracer, and it attributes IO waits to the span.
type tracedSpan struct {
	rec probe.Tracer
	spanIO
}

// Emit implements probe.Tracer.
func (t tracedSpan) Emit(id probe.ID) { t.rec.Emit(id) }

// analyzeTracer records during EXPLAIN ANALYZE: it forwards every
// probe event to the session tracer (if any), and additionally
// attributes buffer-pool page hits and misses to the operator
// currently executing (Ctx.curOp, maintained by the Instrumented
// wrappers). It reads curOp at emission time, so one tracer serves the
// whole tree.
type analyzeTracer struct {
	rec probe.Tracer // the session tracer; nil when untraced
	sp  *obs.Span    // nil when unobserved
	c   *Ctx
}

// Emit implements probe.Tracer.
func (t analyzeTracer) Emit(id probe.ID) {
	probe.Emit(t.rec, id)
	switch id {
	case probe.BufGetHit:
		if op := t.c.curOp; op != nil {
			op.bufHits++
		}
	case probe.BufGetMiss:
		if op := t.c.curOp; op != nil {
			op.bufMisses++
		}
	}
}

// AddIOWait attributes IO wait to the span's IO stage.
func (t analyzeTracer) AddIOWait(d time.Duration) {
	t.sp.Add(obs.StageIO, d)
}

// retrace decides, once per execution, what records its events (rec:
// the session tracer, the analyze layer, or nil) and what is passed
// down to the access methods (Tr: rec, wrapped to carry the span when
// observed). Called whenever the span or analyze mode changes;
// statements are single-threaded, so the swap is safe.
func (c *Ctx) retrace() {
	rec := probe.Resolve(c.base)
	switch {
	case c.analyzing:
		a := analyzeTracer{rec: rec, sp: c.Span, c: c}
		c.rec, c.Tr = a, a
	case c.Span == nil:
		c.rec, c.Tr = rec, rec
	case rec == nil:
		c.rec, c.Tr = nil, probe.Carrier{W: spanIO{c.Span}}
	default:
		c.rec, c.Tr = rec, tracedSpan{rec, spanIO{c.Span}}
	}
}

// emit records one probe event, if the execution records any.
func (c *Ctx) emit(id probe.ID) {
	if c.rec != nil {
		c.rec.Emit(id)
	}
}

// SetSpan attaches (or, with nil, detaches) the observability span
// for the next execution, so the buffer pool can attribute IO waits to
// it (see spanIO).
func (c *Ctx) SetSpan(sp *obs.Span) {
	c.Span = sp
	c.retrace()
}

// SetTracer rebinds the session tracer (nil: untraced) for the next
// execution, so one compiled plan can run for one caller after another
// (a pooled one-shot statement). Planning emits nothing, so a rebound
// plan records exactly what a plan compiled with tr would.
func (c *Ctx) SetTracer(tr probe.Tracer) {
	c.base = tr
	c.retrace()
}

// SetAnalyze switches EXPLAIN ANALYZE attribution on or off for the
// next execution: when on, the execution records through an
// analyzeTracer that counts buffer-pool traffic into the instrumented
// operators (see instrument.go). Ordinary queries never call this.
func (c *Ctx) SetAnalyze(on bool) {
	c.analyzing = on
	c.retrace()
}
