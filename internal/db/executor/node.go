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
// row it allocated at Open (PostgreSQL's TupleTableSlot). That covers
// the bytes of its strings too: a scanned varchar is a view of the
// pinned page (storage.DecodeTuple), which the scan may unpin on its
// next call. A consumer reads the tuple, never writes into it, and may
// hand it on upwards (Filter, Limit, Project); whoever keeps a value
// past that point copies it, string bytes and all. Sort, Material and
// the hash-join build keep rows in a rowStore (store.go) — an 8-byte
// payload and a 1-byte tag per value, string bytes in the store's
// chunks, no Value and no per-row header — and emit through a slot
// they refill from it (HashJoin: the joined row's tail), its strings
// views of the store. A Sort with Cols keeps only those columns (a
// GROUP BY sort: the group columns and aggregate arguments), and sorts
// a permutation of row numbers. GroupAgg's group head and the
// merge-join duplicate group copy into a strArena they recycle per
// group, min/max into a value.Clone, the result-cache fill into a
// Slab. A join holds its current outer tuple across calls on its
// *inner* child, which the rule allows.
type Node interface {
	Open() error
	Next() (Tuple, bool, error)
	Close() error
	// Schema describes the output columns (used by the planner to
	// resolve variable references).
	Schema() *catalog.Schema
}

// rewinder is a node that replays what it kept when a nested loop
// restarts it for the next outer tuple (Material), instead of running
// its child again.
type rewinder interface{ rewind() error }

// rescan restarts a nested loop's inner plan for the next outer tuple:
// a rewinder rewinds, any other node is closed and re-opened. Open
// itself always starts a new execution, which reads the data afresh.
func rescan(n Node) error {
	if r, ok := n.(rewinder); ok {
		return r.rewind()
	}
	if err := n.Close(); err != nil {
		return err
	}
	return n.Open()
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

// Slab is the arena the result-cache fill copies result rows into:
// values are carved from chunks, so keeping n rows costs about
// n/slabRows allocations instead of n, and their string bytes from the
// byte chunks of a strArena. Both kinds of chunk start small and
// double, which keeps a one-row result from pinning a 64-row chunk.
// The zero Slab is ready to use; a chunk lives as long as any row
// copied into it.
type Slab struct {
	cur  []value.Value // the current chunk; cur[len(cur)-len(free):] is free
	free []value.Value
	rows int // rows copied so far; sizes the next chunk
	strs strArena
}

// Copy returns a copy of t, string bytes included, that stays valid for
// as long as the caller keeps it.
func (s *Slab) Copy(t Tuple) Tuple {
	n := len(t)
	if n > len(s.free) {
		s.cur = make([]value.Value, n*min(max(s.rows, 4), slabRows))
		s.free = s.cur
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	s.rows++
	copy(out, t)
	for i := range out {
		if out[i].T == value.Str {
			out[i] = s.strs.keep(out[i])
		}
	}
	return out
}

// Bounds of the byte chunks a strArena carves string copies from.
const (
	strChunkMin = 256
	strChunkMax = 64 << 10
)

// strArena owns copies of string bytes, carved from chunks that start
// at strChunkMin bytes and double up to strChunkMax; a longer string
// gets a chunk of its own. The zero strArena is ready to use.
type strArena struct {
	chunk []byte // the current chunk; chunk[used:] is free
	used  int
}

// keep returns v with its string bytes, if any, copied into the arena.
func (a *strArena) keep(v value.Value) value.Value {
	n := len(v.S)
	if v.T != value.Str || n == 0 {
		return v
	}
	b := a.carve(n)
	copy(b, v.S)
	v.S = value.StrView(b).S
	return v
}

// carve returns room for n > 0 bytes, from a new chunk when the
// current one has less.
func (a *strArena) carve(n int) []byte {
	if n > len(a.chunk)-a.used {
		a.chunk = make([]byte, max(n, min(2*len(a.chunk), strChunkMax), strChunkMin))
		a.used = 0
	}
	b := a.chunk[a.used : a.used+n : a.used+n]
	a.used += n
	return b
}

// reset lets keep overwrite the current chunk: the caller is done with
// every value keep returned before.
func (a *strArena) reset() { a.used = 0 }

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
