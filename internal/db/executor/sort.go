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

	store rowStore // the kept rows
	perm  []int32  // their numbers, in key order once loaded
	// slots holds the output slot, then the two rows less compares
	// (only their key columns are filled in), each as wide as the
	// schema's row.
	slots  Tuple
	pos    int
	loaded bool
}

// Open implements Node.
func (s *Sort) Open() error {
	if s.slots == nil {
		s.slots = make(Tuple, 3*s.Schema().Len())
	}
	s.store.reset()
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
		if err := s.store.add(tup, s.Cols); err != nil {
			return err
		}
	}
	st, w := &s.store, len(s.slots)/3
	perm, a, b := make([]int32, st.n), s.slots[w:2*w], s.slots[2*w:]
	for i := range perm {
		perm[i] = int32(i)
	}
	c.emit(probe.SortSortCall)
	c.emit(probe.QsortEnter)
	sort.SliceStable(perm, func(i, j int) bool {
		c.emit(probe.QsortCmpCall)
		st.keys(a, int(perm[i]), s.Keys)
		st.keys(b, int(perm[j]), s.Keys)
		r := tupleCompare(c, a, b, s.Keys)
		c.emit(probe.QsortCmpCont)
		return r < 0
	})
	c.emit(probe.QsortRet)
	c.emit(probe.SortSortCont)
	s.perm = perm
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
	if s.pos >= len(s.perm) {
		c.emit(probe.SortEOF)
		return nil, false, nil
	}
	row := s.store.row(s.slots[:0:len(s.slots)/3], int(s.perm[s.pos]))
	s.pos++
	c.emit(probe.SortEmit)
	return row, true, nil
}

// Close implements Node.
func (s *Sort) Close() error {
	s.store.reset()
	s.perm = nil
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

	store  rowStore // the child's rows, kept for one execution
	row    Tuple    // output slot
	pos    int
	loaded bool
}

// Open implements Node. It drops any store a previous execution left,
// so the child runs again: a re-executed plan reads the data as it is
// now.
func (m *Material) Open() error {
	newSlot(&m.row, m.Schema().Len())
	m.store.reset()
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
			if err := m.store.add(tup, nil); err != nil {
				return nil, false, err
			}
		}
		c.emit(probe.MatLoadDone)
		m.loaded = true
	}
	if m.pos >= m.store.n {
		c.emit(probe.MatEOF)
		return nil, false, nil
	}
	m.row = m.store.row(m.row[:0], m.pos)
	m.pos++
	c.emit(probe.MatEmit)
	return m.row, true, nil
}

// Close implements Node. It drops the store, like Sort's.
func (m *Material) Close() error {
	m.store.reset()
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
