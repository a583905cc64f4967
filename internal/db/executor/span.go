package executor

import (
	"time"

	"repro/dsdb/obs"
	"repro/internal/db/probe"
)

// spanTracer forwards probe events to the session tracer unchanged
// while carrying the query's observability span. Deep kernel layers
// that already receive the probe tracer — the buffer pool above all —
// attribute their IO waits to the span by type-asserting the
// AddIOWait method, so no access-method signature changes for
// observability.
type spanTracer struct {
	inner probe.Tracer
	sp    *obs.Span
}

// Emit implements probe.Tracer.
func (t spanTracer) Emit(id probe.ID) { t.inner.Emit(id) }

// AddIOWait attributes buffer-pool IO wait to the span.
func (t spanTracer) AddIOWait(d time.Duration) { t.sp.Add(obs.StageIO, d) }

// ioWaiter is the buffer pool's IO-wait attribution hook, re-declared
// here so wrapping tracers can forward it down the chain.
type ioWaiter interface {
	AddIOWait(d time.Duration)
}

// analyzeTracer sits atop the span tracer during EXPLAIN ANALYZE: it
// forwards every probe event unchanged, and additionally attributes
// buffer-pool page hits/misses and IO waits to the operator currently
// executing (Ctx.curOp, maintained by the Instrumented wrappers). It
// reads curOp at emission time, so one tracer serves the whole tree.
type analyzeTracer struct {
	inner probe.Tracer
	c     *Ctx
}

// Emit implements probe.Tracer.
func (t analyzeTracer) Emit(id probe.ID) {
	t.inner.Emit(id)
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

// AddIOWait attributes IO wait to the current operator and forwards
// it down the chain (so the span's IO stage still sees it).
func (t analyzeTracer) AddIOWait(d time.Duration) {
	if op := t.c.curOp; op != nil {
		op.ioWait += d
	}
	if w, ok := t.inner.(ioWaiter); ok {
		w.AddIOWait(d)
	}
}

// retrace rebuilds the context's tracer chain from the base session
// tracer: span attribution first (closest to the kernel), then the
// analyze layer on top. Called whenever the span or analyze mode
// changes; statements are single-threaded, so the swap is safe.
func (c *Ctx) retrace() {
	tr := c.base
	if c.Span != nil {
		tr = spanTracer{inner: tr, sp: c.Span}
	}
	if c.analyzing {
		tr = analyzeTracer{inner: tr, c: c}
	}
	c.Tr = tr
}

// SetSpan attaches (or, with nil, detaches) the observability span
// for the next execution, wrapping the context's tracer so the buffer
// pool can attribute IO waits (see spanTracer). Statements are
// single-threaded, so swapping the tracer between executions is safe.
func (c *Ctx) SetSpan(sp *obs.Span) {
	if c.base == nil {
		c.base = c.Tr
	}
	c.Span = sp
	c.retrace()
}

// SetAnalyze switches EXPLAIN ANALYZE attribution on or off for the
// next execution: when on, the tracer chain counts buffer-pool
// traffic into the instrumented operators (see analyzeTracer and
// instrument.go). Ordinary queries never call this, so they keep the
// exact pre-existing tracer chain.
func (c *Ctx) SetAnalyze(on bool) {
	if c.base == nil {
		c.base = c.Tr
	}
	c.analyzing = on
	c.retrace()
}
