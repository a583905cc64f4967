package executor

import (
	"time"

	"repro/internal/db/catalog"
)

// OpStats accumulates one operator's runtime counters under EXPLAIN
// ANALYZE. Every field is touched only by the session goroutine: the
// Volcano tree, and the buffer pool calls it makes, are
// single-threaded.
type OpStats struct {
	// Rows is the number of tuples the operator returned.
	Rows int64
	// Loops counts Open calls: 1 for most nodes, 1+rescans for a
	// nested-loop inner.
	Loops int64
	// Wall is cumulative wall time inside the operator including its
	// children (self time is derived at render: Wall − Σ child Wall).
	Wall time.Duration

	bufHits   int64
	bufMisses int64
}

// BufHits returns buffer-pool page hits attributed to the operator.
func (s *OpStats) BufHits() int64 { return s.bufHits }

// BufMisses returns buffer-pool page misses (disk reads) attributed
// to the operator.
func (s *OpStats) BufMisses() int64 { return s.bufMisses }

// Instrumented wraps one plan operator with ANALYZE counters. It is
// itself a Node, interposed between the operator and its parent by
// Instrument, so every Open/Next/Close crossing is timed and counted.
// While a call is in flight the context's curOp points at this
// operator's stats, which is how the tracer chain (analyzeTracer)
// attributes buffer-pool traffic per operator; the pointer is saved
// and restored around child calls, so attribution follows the
// innermost active operator exactly.
type Instrumented struct {
	c *Ctx
	n Node
	// Stats is the operator's accumulated counters.
	Stats OpStats
}

// Instrument rewires the plan tree so every operator is wrapped in an
// Instrumented node, returning the wrapped root. The tree is mutated
// in place (child fields now point at wrappers), so instrument only
// freshly compiled plans — never a cached prepared statement shared
// with uninstrumented executions.
func Instrument(c *Ctx, n Node) *Instrumented {
	WrapChildren(n, func(child Node) Node { return Instrument(c, child) })
	return &Instrumented{c: c, n: n}
}

// WrapChildren replaces every child of n with wrap(child), in place.
func WrapChildren(n Node, wrap func(Node) Node) {
	switch t := n.(type) {
	case *Filter:
		t.Child = wrap(t.Child)
	case *ProjectNode:
		t.Child = wrap(t.Child)
	case *NestLoop:
		t.Outer = wrap(t.Outer)
		t.Inner = wrap(t.Inner)
	case *IndexLoopJoin:
		t.Outer = wrap(t.Outer)
	case *HashJoin:
		t.Outer = wrap(t.Outer)
		t.Inner = wrap(t.Inner)
	case *MergeJoin:
		t.Outer = wrap(t.Outer)
		t.Inner = wrap(t.Inner)
	case *Agg:
		t.Child = wrap(t.Child)
	case *GroupAgg:
		t.Child = wrap(t.Child)
	case *Sort:
		t.Child = wrap(t.Child)
	case *Material:
		t.Child = wrap(t.Child)
	case *Limit:
		t.Child = wrap(t.Child)
	}
}

// enter makes this operator current and returns the restore state.
func (i *Instrumented) enter() (*OpStats, time.Time) {
	prev := i.c.curOp
	i.c.curOp = &i.Stats
	return prev, time.Now()
}

// exit restores the previous operator and accumulates wall time.
func (i *Instrumented) exit(prev *OpStats, start time.Time) {
	i.Stats.Wall += time.Since(start)
	i.c.curOp = prev
}

// Open implements Node.
func (i *Instrumented) Open() error {
	prev, start := i.enter()
	err := i.n.Open()
	i.exit(prev, start)
	i.Stats.Loops++
	return err
}

// rewind implements rewinder: a nested loop's rescan of the wrapped
// operator counts as a loop, whether it rewinds or re-opens.
func (i *Instrumented) rewind() error {
	prev, start := i.enter()
	err := rescan(i.n)
	i.exit(prev, start)
	i.Stats.Loops++
	return err
}

// Next implements Node.
func (i *Instrumented) Next() (Tuple, bool, error) {
	prev, start := i.enter()
	tup, ok, err := i.n.Next()
	i.exit(prev, start)
	if ok {
		i.Stats.Rows++
	}
	return tup, ok, err
}

// Close implements Node.
func (i *Instrumented) Close() error {
	prev, start := i.enter()
	err := i.n.Close()
	i.exit(prev, start)
	return err
}

// Schema implements Node.
func (i *Instrumented) Schema() *catalog.Schema { return i.n.Schema() }
