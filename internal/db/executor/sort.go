package executor

import (
	"sort"

	"repro/internal/db/catalog"
	"repro/internal/db/probe"
)

// SortKey orders by one column.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort materializes its child and emits tuples in key order
// (ExecSort over psort/tuplesort).
type Sort struct {
	C     *Ctx
	Child Node
	// Out describes the kept columns and Cols lists their ordinals in
	// the child's output, ascending; both nil keep every column (an
	// ORDER BY sort, whose rows are the result). A sort under a GROUP
	// BY keeps only what the aggregate above it reads. Keys index the
	// kept row.
	Out  *catalog.Schema
	Cols []int
	Keys []SortKey

	rows   []Tuple // copies, owned by slab
	slab   Slab
	pos    int
	loaded bool
}

// Open implements Node.
func (s *Sort) Open() error {
	s.rows, s.slab = nil, Slab{}
	s.pos = 0
	s.loaded = false
	return s.Child.Open()
}

func (s *Sort) load() error {
	c := s.C
	for {
		tup, ok, err := c.child(probe.SortLoadCall, probe.SortLoadCont, s.Child)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		c.emit(probe.SortLoadOK)
		if s.Cols != nil {
			s.slab.CopyCols(tup, s.Cols)
		} else {
			s.slab.Copy(tup)
		}
	}
	s.rows = s.slab.Rows()
	c.emit(probe.SortSortCall)
	c.emit(probe.QsortEnter)
	sort.SliceStable(s.rows, func(i, j int) bool {
		c.emit(probe.QsortCmpCall)
		r := tupleCompare(c, s.rows[i], s.rows[j], s.Keys)
		c.emit(probe.QsortCmpCont)
		return r < 0
	})
	c.emit(probe.QsortRet)
	c.emit(probe.SortSortCont)
	s.loaded = true
	return nil
}

// Next implements Node.
func (s *Sort) Next() (Tuple, bool, error) {
	c := s.C
	c.emit(probe.SortEnter)
	if !s.loaded {
		if err := s.load(); err != nil {
			return nil, false, err
		}
	}
	if s.pos >= len(s.rows) {
		c.emit(probe.SortEOF)
		return nil, false, nil
	}
	row := s.rows[s.pos]
	s.pos++
	c.emit(probe.SortEmit)
	return row, true, nil
}

// Close implements Node.
func (s *Sort) Close() error {
	s.rows, s.slab = nil, Slab{}
	s.loaded = false
	return s.Child.Close()
}

// Schema implements Node.
func (s *Sort) Schema() *catalog.Schema {
	if s.Out != nil {
		return s.Out
	}
	return s.Child.Schema()
}

// Material buffers its child's output on first demand and replays it
// on rescans (ExecMaterial) — what the paper notes Aggregate/Sort-type
// operations do with temporary results outside the access methods.
// The store lives for one execution: a nested loop's rescan rewinds it,
// while Open, which starts an execution, loads it from the child again.
type Material struct {
	C     *Ctx
	Child Node

	rows   []Tuple // copies, owned by slab
	slab   Slab
	pos    int
	loaded bool
}

// Open implements Node. It drops any store a previous execution left,
// so the child runs again: a re-executed plan reads the data as it is
// now.
func (m *Material) Open() error {
	m.rows, m.slab = nil, Slab{}
	m.pos = 0
	m.loaded = false
	return m.Child.Open()
}

// rewind implements rewinder: the next Next replays the store from its
// first row without re-running the child.
func (m *Material) rewind() error {
	m.pos = 0
	return nil
}

// Next implements Node.
func (m *Material) Next() (Tuple, bool, error) {
	c := m.C
	c.emit(probe.MatEnter)
	if !m.loaded {
		for {
			tup, ok, err := c.child(probe.MatChildCall, probe.MatChildCont, m.Child)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			c.emit(probe.MatLoadOK)
			m.slab.Copy(tup)
		}
		m.rows = m.slab.Rows()
		c.emit(probe.MatLoadDone)
		m.loaded = true
	}
	if m.pos >= len(m.rows) {
		c.emit(probe.MatEOF)
		return nil, false, nil
	}
	row := m.rows[m.pos]
	m.pos++
	c.emit(probe.MatEmit)
	return row, true, nil
}

// Close implements Node. It drops the store, like Sort's.
func (m *Material) Close() error {
	m.rows, m.slab = nil, Slab{}
	m.loaded = false
	return m.Child.Close()
}

// Schema implements Node.
func (m *Material) Schema() *catalog.Schema { return m.Child.Schema() }

// Limit stops after N tuples (ExecLimit).
type Limit struct {
	C     *Ctx
	Child Node
	N     int
	seen  int
}

// Open implements Node.
func (l *Limit) Open() error {
	l.seen = 0
	return l.Child.Open()
}

// Next implements Node.
func (l *Limit) Next() (Tuple, bool, error) {
	c := l.C
	c.emit(probe.LimEnter)
	if l.seen >= l.N {
		c.emit(probe.LimEOF)
		return nil, false, nil
	}
	tup, ok, err := c.child(probe.LimChildCall, probe.LimChildCont, l.Child)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		c.emit(probe.LimDrained)
		return nil, false, nil
	}
	l.seen++
	c.emit(probe.LimEmit)
	return tup, true, nil
}

// Close implements Node.
func (l *Limit) Close() error { return l.Child.Close() }

// Schema implements Node.
func (l *Limit) Schema() *catalog.Schema { return l.Child.Schema() }
