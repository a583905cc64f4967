package executor

import (
	"repro/internal/db/catalog"
	"repro/internal/db/probe"
	"repro/internal/db/value"
)

// Node is one operator of the execution plan tree (Volcano iterator
// model). Open prepares the node (and must reset it if called again),
// Next produces the next tuple, Close releases resources.
//
// Tuple slots: a tuple returned by Next is valid until the next Next,
// Open or Close on the same node — the producer refills one output
// row it allocated at Open (PostgreSQL's TupleTableSlot). A consumer
// reads it, never writes into it, and may hand it on upwards (Filter,
// Limit); whoever keeps it past that point copies it, into a Slab:
// Sort, Material, the hash-join build and merge-join duplicate group,
// GroupAgg's group head, engine.Run and the result-cache fill. A join
// holds its current outer tuple across calls on its *inner* child,
// which the rule allows.
type Node interface {
	Open() error
	Next() (Tuple, bool, error)
	Close() error
	// Schema describes the output columns (used by the planner to
	// resolve variable references).
	Schema() *catalog.Schema
}

// newSlot allocates an operator's output row — empty, with room for
// width values — unless an earlier Open already did: a rescanned inner
// plan is re-opened once per outer tuple.
func newSlot(row *Tuple, width int) {
	if *row == nil {
		*row = make(Tuple, 0, width)
	}
}

// slabRows caps how many rows' worth of values one Slab chunk holds.
const slabRows = 64

// Slab is the arena retaining consumers copy slot tuples into: values
// are carved from chunks, so keeping n rows costs about n/slabRows
// allocations instead of n. Chunks start small and double, which
// keeps a one-row result from pinning a 64-row chunk. The zero Slab
// is ready to use; a chunk lives as long as any row copied into it.
type Slab struct {
	free []value.Value
	rows int // rows copied so far; sizes the next chunk
}

// Copy returns a copy of t that stays valid for as long as the caller
// keeps it.
func (s *Slab) Copy(t Tuple) Tuple {
	n := len(t)
	if n > len(s.free) {
		s.free = make([]value.Value, n*min(max(s.rows, 4), slabRows))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	s.rows++
	copy(out, t)
	return out
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
	c.emit(call)
	c.emit(probe.ExecProcEnter)
	t, ok, err := n.Next()
	c.emit(probe.ExecProcExit)
	c.emit(cont)
	return t, ok, err
}

// tupleCompare compares two tuples on the given columns and
// directions, emitting the per-column comparator probes (PostgreSQL's
// per-type btXXXcmp functions called from tuplesort/group/mergejoin).
func tupleCompare(c *Ctx, a, b Tuple, cols []SortKey) int {
	c.emit(probe.TupCmpEnter)
	res := 0
	for _, k := range cols {
		c.emit(probe.TupCmpCol)
		c.emit(cmpProbeFor(a[k.Col]))
		r := compareVals(a[k.Col], b[k.Col])
		c.emit(probe.TupCmpColCont)
		if r != 0 {
			if k.Desc {
				r = -r
			}
			res = r
			break
		}
	}
	c.emit(probe.TupCmpDone)
	return res
}
