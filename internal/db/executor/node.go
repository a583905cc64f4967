package executor

import (
	"repro/internal/db/catalog"
	"repro/internal/db/probe"
)

// Node is one operator of the execution plan tree (Volcano iterator
// model). Open prepares the node (and must reset it if called again),
// Next produces the next tuple, Close releases resources.
//
// Tuple ownership: a tuple returned by Next belongs to the caller,
// which may retain it (Sort, hash and merge join buffers, Rows) for
// as long as it likes; the producer never reads or writes it again.
// Operators recycle only what they did not emit — the row buffer of a
// tuple their qualifiers rejected (rowBuf) — and never a tuple a
// child handed them.
type Node interface {
	Open() error
	Next() (Tuple, bool, error)
	Close() error
	// Schema describes the output columns (used by the planner to
	// resolve variable references).
	Schema() *catalog.Schema
}

// rowBuf hands out the buffer for an operator's next candidate row:
// the one parked in *spare by the last rejected row, else a new one of
// exactly width values — so an emitted row costs one allocation and a
// rejected row none. Taking the buffer clears *spare; the operator
// parks the row there again only if it rejects it.
func rowBuf(spare *Tuple, width int) Tuple {
	if buf := *spare; buf != nil {
		*spare = nil
		return buf[:0]
	}
	return make(Tuple, 0, width)
}

// child invokes a child node through the ExecProcNode dispatcher,
// bracketing the call with the caller's call-site and continuation
// probes — the per-tuple call chain that gives DBMS code its long,
// loop-free instruction sequences.
func (c *Ctx) child(call, cont probe.ID, n Node) (Tuple, bool, error) {
	if c.Interrupt != nil {
		if err := c.Interrupt(); err != nil {
			return nil, false, err
		}
	}
	c.Tr.Emit(call)
	c.Tr.Emit(probe.ExecProcEnter)
	t, ok, err := n.Next()
	c.Tr.Emit(probe.ExecProcExit)
	c.Tr.Emit(cont)
	return t, ok, err
}

// tupleCompare compares two tuples on the given columns and
// directions, emitting the per-column comparator probes (PostgreSQL's
// per-type btXXXcmp functions called from tuplesort/group/mergejoin).
func tupleCompare(c *Ctx, a, b Tuple, cols []SortKey) int {
	c.Tr.Emit(probe.TupCmpEnter)
	res := 0
	for _, k := range cols {
		c.Tr.Emit(probe.TupCmpCol)
		c.Tr.Emit(cmpProbeFor(a[k.Col]))
		r := compareVals(a[k.Col], b[k.Col])
		c.Tr.Emit(probe.TupCmpColCont)
		if r != 0 {
			if k.Desc {
				r = -r
			}
			res = r
			break
		}
	}
	c.Tr.Emit(probe.TupCmpDone)
	return res
}
