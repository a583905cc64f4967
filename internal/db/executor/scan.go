package executor

import (
	"fmt"

	"repro/internal/db/access"
	"repro/internal/db/buffer"
	"repro/internal/db/catalog"
	"repro/internal/db/probe"
)

// SeqScan reads a heap file sequentially, applying an optional
// qualifier — PostgreSQL's ExecSeqScan over heap_getnext.
type SeqScan struct {
	C    *Ctx
	Heap *access.Heap
	// Out describes the emitted columns; Cols lists their ordinals in
	// the stored tuple, ascending (nil: Out is the whole table).
	Out  *catalog.Schema
	Cols []int
	// Table names the scanned relation for EXPLAIN output.
	Table  string
	Quals  []Expr
	scan   *access.HeapScan
	row    Tuple // output slot, refilled by every candidate tuple
	opened bool
}

// Open implements Node.
func (s *SeqScan) Open() error {
	s.scan = s.Heap.BeginScan(s.Cols...)
	newSlot(&s.row, s.Out.Len())
	s.opened = true
	return nil
}

// Next implements Node.
func (s *SeqScan) Next() (Tuple, bool, error) {
	if !s.opened {
		return nil, false, fmt.Errorf("executor: SeqScan not opened")
	}
	c := s.C
	c.emit(probe.SeqScanEnter)
	for {
		c.emit(probe.SeqScanCall)
		vals, _, ok, err := s.scan.Next(c.Tr, s.row)
		c.emit(probe.SeqScanCont)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			c.emit(probe.SeqScanEOF)
			return nil, false, nil
		}
		if len(s.Quals) > 0 {
			c.emit(probe.SeqScanQualCall)
			pass := ExecQual(c, s.Quals, Tuple(vals))
			c.emit(probe.SeqScanQualCont)
			if !pass {
				c.emit(probe.SeqScanNext)
				continue
			}
			c.emit(probe.SeqScanEmit)
			return Tuple(vals), true, nil
		}
		c.emit(probe.SeqScanEmitDirect)
		return Tuple(vals), true, nil
	}
}

// Close implements Node.
func (s *SeqScan) Close() error {
	if s.scan != nil {
		s.scan.Close()
		s.scan = nil
	}
	s.opened = false
	return nil
}

// Schema implements Node.
func (s *SeqScan) Schema() *catalog.Schema { return s.Out }

// IndexScan reads tuples through an index — a B-tree range scan
// (lo <= key <= hi) or a hash equality lookup — fetching each heap
// tuple by TID and applying residual qualifiers (ExecIndexScan).
type IndexScan struct {
	C    *Ctx
	Heap *access.Heap
	// Out and Cols are as for SeqScan.
	Out  *catalog.Schema
	Cols []int
	// Table and KeyCol name the scanned relation and the indexed
	// column for EXPLAIN output.
	Table  string
	KeyCol string

	// BTree or HashIdx is set depending on the index kind.
	BTree   *access.BTree
	HashIdx *access.HashIndex

	// Lo/Hi bound a B-tree range scan (inclusive); HasLo/HasHi say
	// which bounds exist. EqKey drives a hash lookup.
	Lo, Hi       int64
	HasLo, HasHi bool
	EqKey        int64

	Quals []Expr

	// The index cursor and the heap pin keep the pages they are on
	// pinned from one tuple to the next; Close releases them.
	bscan   access.BTreeScan
	hscan   access.HashScan
	hpin    buffer.Pin
	started bool  // the index descent has happened
	row     Tuple // output slot, refilled by every fetched tuple
	opened  bool
}

// Open implements Node. The index descent itself happens lazily on
// the first Next call so it is attributed to the traced scan, as
// ExecIndexScan does.
func (s *IndexScan) Open() error {
	if s.BTree == nil && s.HashIdx == nil {
		return fmt.Errorf("executor: IndexScan has no index")
	}
	s.unpin()
	if s.BTree != nil {
		s.bscan = s.BTree.Cursor()
	}
	newSlot(&s.row, s.Out.Len())
	s.opened = true
	s.started = false
	return nil
}

func (s *IndexScan) init() error {
	c := s.C
	c.emit(probe.IdxScanInit)
	var err error
	if s.BTree != nil {
		if s.HasLo {
			err = s.bscan.SeekGE(c.Tr, s.Lo)
		} else {
			err = s.bscan.SeekFirst(c.Tr)
		}
	} else {
		s.HashIdx.Seek(c.Tr, s.EqKey, &s.hscan)
	}
	c.emit(probe.IdxScanInitCont)
	s.started = err == nil
	return err
}

// Next implements Node.
func (s *IndexScan) Next() (Tuple, bool, error) {
	if !s.opened {
		return nil, false, fmt.Errorf("executor: IndexScan not opened")
	}
	c := s.C
	c.emit(probe.IdxScanEnter)
	if !s.started {
		if err := s.init(); err != nil {
			return nil, false, err
		}
	}
	for {
		var (
			tid  access.TID
			key  int64
			ok   bool
			err  error
			done bool
		)
		c.emit(probe.IdxScanNextCall)
		if s.BTree != nil {
			key, tid, ok, err = s.bscan.Next(c.Tr)
			if ok && s.HasHi && key > s.Hi {
				ok = false
			}
		} else {
			tid, ok, err = s.hscan.Next(c.Tr)
		}
		c.emit(probe.IdxScanNextCont)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			done = true
		}
		if done {
			c.emit(probe.IdxScanEOF)
			return nil, false, nil
		}
		c.emit(probe.IdxScanFetch)
		vals, err := s.Heap.Fetch(c.Tr, &s.hpin, tid, s.Cols, s.row)
		c.emit(probe.IdxScanCont)
		if err != nil {
			return nil, false, err
		}
		if len(s.Quals) > 0 {
			c.emit(probe.IdxScanQualCall)
			pass := ExecQual(c, s.Quals, Tuple(vals))
			c.emit(probe.IdxScanQualCont)
			if !pass {
				c.emit(probe.IdxScanNext)
				continue
			}
			c.emit(probe.IdxScanEmit)
			return Tuple(vals), true, nil
		}
		c.emit(probe.IdxScanEmitDirect)
		return Tuple(vals), true, nil
	}
}

// Close implements Node.
func (s *IndexScan) Close() error {
	s.unpin()
	s.opened = false
	return nil
}

// unpin releases every page the scan holds; it is idempotent.
func (s *IndexScan) unpin() {
	s.bscan.Close()
	s.hscan.Close()
	s.hpin.Release()
}

// Schema implements Node.
func (s *IndexScan) Schema() *catalog.Schema { return s.Out }

// ValuesScan emits a fixed list of tuples (for tests and VALUES
// clauses).
type ValuesScan struct {
	C    *Ctx
	Out  *catalog.Schema
	Rows []Tuple
	pos  int
}

// Open implements Node.
func (s *ValuesScan) Open() error { s.pos = 0; return nil }

// Next implements Node.
func (s *ValuesScan) Next() (Tuple, bool, error) {
	c := s.C
	c.emit(probe.SeqScanEnter)
	c.emit(probe.SeqScanCall)
	// The in-memory rows stand in for an exhausted/valued relation; the
	// access-method callee path keeps the trace protocol intact.
	c.emit(probe.HeapGetNextEnter)
	c.emit(probe.HeapGetNextEOF)
	c.emit(probe.SeqScanCont)
	if s.pos >= len(s.Rows) {
		c.emit(probe.SeqScanEOF)
		return nil, false, nil
	}
	row := s.Rows[s.pos]
	s.pos++
	c.emit(probe.SeqScanEmitDirect)
	return row, true, nil
}

// Close implements Node.
func (s *ValuesScan) Close() error { return nil }

// Schema implements Node.
func (s *ValuesScan) Schema() *catalog.Schema { return s.Out }

// Filter applies qualifiers to a child's output (ExecResult with a
// qual in PostgreSQL terms).
type Filter struct {
	C     *Ctx
	Child Node
	Quals []Expr
}

// Open implements Node.
func (f *Filter) Open() error { return f.Child.Open() }

// Next implements Node.
func (f *Filter) Next() (Tuple, bool, error) {
	c := f.C
	c.emit(probe.SeqScanEnter) // filter shares the scan skeleton
	for {
		tup, ok, err := c.child(probe.SeqScanCall, probe.SeqScanCont, f.Child)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			c.emit(probe.SeqScanEOF)
			return nil, false, nil
		}
		c.emit(probe.SeqScanQualCall)
		pass := ExecQual(c, f.Quals, tup)
		c.emit(probe.SeqScanQualCont)
		if pass {
			c.emit(probe.SeqScanEmit)
			return tup, true, nil
		}
		c.emit(probe.SeqScanNext)
		continue
	}
}

// Close implements Node.
func (f *Filter) Close() error { return f.Child.Close() }

// Schema implements Node.
func (f *Filter) Schema() *catalog.Schema { return f.Child.Schema() }

// ProjectNode computes a target list over a child's output.
type ProjectNode struct {
	C     *Ctx
	Child Node
	Exprs []Expr
	Names []string
	out   *catalog.Schema
	row   Tuple // output slot
}

// Open implements Node.
func (p *ProjectNode) Open() error {
	if p.row == nil {
		p.row = make(Tuple, len(p.Exprs))
	}
	return p.Child.Open()
}

// Next implements Node.
func (p *ProjectNode) Next() (Tuple, bool, error) {
	c := p.C
	tup, ok, err := c.child(probe.ResultCall, probe.ResultCont, p.Child)
	if err != nil || !ok {
		c.emit(probe.ResultEOF)
		return nil, false, err
	}
	c.emit(probe.ResultProject)
	Project(c, p.Exprs, tup, p.row)
	c.emit(probe.ResultDone)
	return p.row, true, nil
}

// Close implements Node.
func (p *ProjectNode) Close() error { return p.Child.Close() }

// Schema implements Node.
func (p *ProjectNode) Schema() *catalog.Schema {
	if p.out == nil {
		cols := make([]catalog.Column, len(p.Exprs))
		for i, e := range p.Exprs {
			name := ""
			if i < len(p.Names) {
				name = p.Names[i]
			}
			if name == "" {
				name = e.String()
			}
			cols[i] = catalog.Column{Name: name, Type: e.Type()}
		}
		p.out = catalog.NewSchema(cols...)
	}
	return p.out
}
