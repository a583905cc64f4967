package executor

import (
	"fmt"

	"repro/internal/db/access"
	"repro/internal/db/buffer"
	"repro/internal/db/catalog"
	"repro/internal/db/probe"
	"repro/internal/db/value"
)

// joinSchema concatenates two input schemas.
func joinSchema(l, r *catalog.Schema) *catalog.Schema {
	cols := make([]catalog.Column, 0, l.Len()+r.Len())
	cols = append(cols, l.Columns...)
	cols = append(cols, r.Columns...)
	return catalog.NewSchema(cols...)
}

// NestLoop is the naive nested-loop join: for every outer tuple the
// inner plan is rescanned (ExecNestLoop). Quals see the concatenated
// row.
type NestLoop struct {
	C       *Ctx
	Outer   Node
	Inner   Node
	Quals   []Expr
	out     *catalog.Schema
	row     Tuple // output slot; the current outer tuple sits in front
	nOuter  int   // width of that outer tuple
	haveCur bool
}

// Open implements Node.
func (n *NestLoop) Open() error {
	newSlot(&n.row, n.Schema().Len())
	n.haveCur = false
	if err := n.Outer.Open(); err != nil {
		return err
	}
	return n.Inner.Open()
}

// Next implements Node.
func (n *NestLoop) Next() (Tuple, bool, error) {
	c := n.C
	c.emit(probe.NLEnter)
	for {
		if !n.haveCur {
			tup, ok, err := c.child(probe.NLOuterCall, probe.NLOuterCont, n.Outer)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				c.emit(probe.NLEOF)
				return nil, false, nil
			}
			c.emit(probe.NLOuterOK)
			n.row, n.nOuter = append(n.row[:0], tup...), len(tup)
			n.haveCur = true
		}
		itup, ok, err := c.child(probe.NLInnerCall, probe.NLInnerCont, n.Inner)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			// Inner exhausted: rescan it for the next outer tuple.
			c.emit(probe.NLRescan)
			n.haveCur = false
			if err := rescan(n.Inner); err != nil {
				return nil, false, err
			}
			continue
		}
		row := append(n.row[:n.nOuter], itup...)
		c.emit(probe.NLJoin)
		if len(n.Quals) > 0 {
			c.emit(probe.NLQualCall)
			pass := ExecQual(c, n.Quals, row)
			c.emit(probe.NLQualCont)
			if !pass {
				c.emit(probe.NLNext)
				continue
			}
			c.emit(probe.NLEmit)
			return row, true, nil
		}
		c.emit(probe.NLEmitDirect)
		return row, true, nil
	}
}

// Close implements Node. Both children are always closed, even when
// the first close fails; the first error wins. Close is idempotent.
func (n *NestLoop) Close() error {
	err := n.Outer.Close()
	if ierr := n.Inner.Close(); err == nil {
		err = ierr
	}
	return err
}

// Schema implements Node.
func (n *NestLoop) Schema() *catalog.Schema {
	if n.out == nil {
		n.out = joinSchema(n.Outer.Schema(), n.Inner.Schema())
	}
	return n.out
}

// IndexLoopJoin joins by probing an inner index with the outer join
// key for each outer tuple — PostgreSQL's nested loop with an inner
// index scan, the plan shape the paper's Btree/Hash databases exist
// for. Each inner heap tuple is deformed straight into the tail of
// the joined row.
type IndexLoopJoin struct {
	C        *Ctx
	Outer    Node
	OuterKey int // column of the outer tuple holding the join key
	Heap     *access.Heap
	BTree    *access.BTree
	HashIdx  *access.HashIndex
	// InnerSch describes the columns the inner relation contributes;
	// InnerCols lists their ordinals in the stored tuple, ascending
	// (nil: InnerSch is the whole table).
	InnerSch  *catalog.Schema
	InnerCols []int
	// Table and KeyCol name the inner relation and its indexed join
	// column for EXPLAIN output.
	Table  string
	KeyCol string
	Quals  []Expr // residual quals over the concatenated row

	out     *catalog.Schema
	row     Tuple // output slot; the current outer tuple sits in front
	nOuter  int   // width of that outer tuple
	haveCur bool
	// The inner cursor is re-seeked once per outer tuple and keeps its
	// pages (and hpin the heap page) between probes; Close releases
	// them.
	bscan access.BTreeScan
	hscan access.HashScan
	hpin  buffer.Pin
	key   int64
}

// Open implements Node.
func (j *IndexLoopJoin) Open() error {
	j.unpin()
	if j.BTree != nil {
		j.bscan = j.BTree.Cursor()
	}
	newSlot(&j.row, j.Schema().Len())
	j.haveCur = false
	return j.Outer.Open()
}

// Next implements Node.
func (j *IndexLoopJoin) Next() (Tuple, bool, error) {
	c := j.C
	c.emit(probe.NLEnter)
	for {
		if !j.haveCur {
			tup, ok, err := c.child(probe.NLOuterCall, probe.NLOuterCont, j.Outer)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				c.emit(probe.NLEOF)
				return nil, false, nil
			}
			j.row, j.nOuter = append(j.row[:0], tup...), len(tup)
			j.haveCur = true
			j.key = tup[j.OuterKey].I
			// Start the inner index probe.
			c.emit(probe.NLStartScan)
			if j.BTree != nil {
				if err = j.bscan.SeekGE(c.Tr, j.key); err != nil {
					return nil, false, err
				}
			} else {
				j.HashIdx.Seek(c.Tr, j.key, &j.hscan)
			}
			c.emit(probe.NLStartCont)
		}
		// Pull the next inner match.
		var (
			tid access.TID
			ok  bool
			err error
		)
		c.emit(probe.NLInnerCall)
		if j.BTree != nil {
			var k int64
			k, tid, ok, err = j.bscan.Next(c.Tr)
			if ok && k != j.key {
				ok = false
			}
		} else {
			tid, ok, err = j.hscan.Next(c.Tr)
		}
		c.emit(probe.NLInnerCont)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			c.emit(probe.NLRescan)
			j.haveCur = false
			continue
		}
		nOuter, nInner := j.nOuter, j.InnerSch.Len()
		c.emit(probe.NLFetch)
		ivals, err := j.Heap.Fetch(c.Tr, &j.hpin, tid, j.InnerCols, j.row[nOuter:nOuter])
		c.emit(probe.NLFetchCont)
		if err != nil {
			return nil, false, err
		}
		if len(ivals) != nInner {
			return nil, false, fmt.Errorf("executor: %s tuple has %d columns, want %d", j.Table, len(ivals), nInner)
		}
		// nInner values fit the tail's capacity, so Fetch wrote them in
		// place behind the outer columns.
		row := j.row[:nOuter+nInner]
		if len(j.Quals) > 0 {
			c.emit(probe.NLQualCall)
			pass := ExecQual(c, j.Quals, row)
			c.emit(probe.NLQualCont)
			if !pass {
				c.emit(probe.NLNext)
				continue
			}
			c.emit(probe.NLEmit)
			return row, true, nil
		}
		c.emit(probe.NLEmitDirect)
		return row, true, nil
	}
}

// Close implements Node.
func (j *IndexLoopJoin) Close() error {
	j.unpin()
	return j.Outer.Close()
}

// unpin releases every page the inner probe holds; it is idempotent.
func (j *IndexLoopJoin) unpin() {
	j.bscan.Close()
	j.hscan.Close()
	j.hpin.Release()
}

// Schema implements Node.
func (j *IndexLoopJoin) Schema() *catalog.Schema {
	if j.out == nil {
		j.out = joinSchema(j.Outer.Schema(), j.InnerSch)
	}
	return j.out
}

// HashJoin builds an in-memory hash table over the inner input, then
// probes it with each outer tuple (ExecHashJoin). Keys are equijoin
// columns; residual quals run on concatenated rows.
type HashJoin struct {
	C        *Ctx
	Outer    Node
	Inner    Node
	OuterKey int
	InnerKey int
	Quals    []Expr

	out    *catalog.Schema
	table  map[uint64]chain // the build rows in store with each key hash
	next   []int32          // next[i]: the build row after i in its chain, or -1
	store  rowStore
	built  bool
	row    Tuple // output slot; the current outer tuple sits in front
	nOuter int   // width of that outer tuple
	cand   int32 // the outer tuple's next candidate build row, or -1
}

// chain is the first and last of the build rows whose keys share a
// hash; next links them in the order they were built, which is the
// order a probe visits them.
type chain struct{ first, last int32 }

// Open implements Node.
func (h *HashJoin) Open() error {
	newSlot(&h.row, h.Schema().Len())
	h.table, h.next = nil, nil
	h.store.reset()
	h.built = false
	h.cand = -1
	if err := h.Outer.Open(); err != nil {
		return err
	}
	return h.Inner.Open()
}

func (h *HashJoin) build() error {
	c := h.C
	c.emit(probe.HJBuildStart)
	h.table = make(map[uint64]chain)
	for {
		tup, ok, err := c.child(probe.HJBuildCall, probe.HJBuildCont, h.Inner)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		c.emit(probe.HJBuildInsert)
		c.emit(probe.HashFunc)
		k := value.Hash(tup[h.InnerKey])
		if err := h.store.add(tup, nil); err != nil {
			return err
		}
		i := int32(h.store.n - 1)
		if ch, ok := h.table[k]; ok {
			h.next[ch.last] = i
			h.table[k] = chain{ch.first, i}
		} else {
			h.table[k] = chain{i, i}
		}
		h.next = append(h.next, -1)
		c.emit(probe.HJBuildInsCont)
	}
	c.emit(probe.HJBuildDone)
	h.built = true
	return nil
}

// Next implements Node.
func (h *HashJoin) Next() (Tuple, bool, error) {
	c := h.C
	c.emit(probe.HJEnter)
	fresh := false
	if !h.built {
		if err := h.build(); err != nil {
			return nil, false, err
		}
		fresh = true // build-done block falls through to the outer fetch
	} else {
		c.emit(probe.HJResume)
	}
	for {
		if !fresh {
			// Walk the current chain.
			for h.cand >= 0 {
				cand := int(h.cand)
				h.cand = h.next[cand]
				c.emit(probe.HJCandCall)
				c.emit(cmpProbeFor(h.row[h.OuterKey]))
				eq := value.Equal(h.row[h.OuterKey], h.store.value(cand, h.InnerKey))
				c.emit(probe.HJCandCont)
				if !eq {
					c.emit(probe.HJCandMiss)
					continue
				}
				row := h.store.row(h.row[:h.nOuter], cand)
				if len(h.Quals) > 0 {
					c.emit(probe.HJQualCall)
					pass := ExecQual(c, h.Quals, row)
					c.emit(probe.HJQualCont)
					if !pass {
						c.emit(probe.HJCandNext)
						continue
					}
					c.emit(probe.HJMatch)
					return row, true, nil
				}
				c.emit(probe.HJMatchDirect)
				return row, true, nil
			}
			c.emit(probe.HJBucketDone)
		}
		fresh = false
		// Next outer tuple.
		tup, ok, err := c.child(probe.HJOuterCall, probe.HJOuterCont, h.Outer)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			c.emit(probe.HJEOF)
			return nil, false, nil
		}
		h.row, h.nOuter = append(h.row[:0], tup...), len(tup)
		c.emit(probe.HJProbeCall)
		c.emit(probe.HashFunc)
		k := value.Hash(tup[h.OuterKey])
		h.cand = -1
		if ch, ok := h.table[k]; ok {
			h.cand = ch.first
		}
		c.emit(probe.HJProbeCont)
	}
}

// Close implements Node. Both children are always closed, even when
// the first close fails; the first error wins. Close is idempotent.
func (h *HashJoin) Close() error {
	h.table, h.next = nil, nil
	h.store.reset()
	h.built = false
	err := h.Outer.Close()
	if ierr := h.Inner.Close(); err == nil {
		err = ierr
	}
	return err
}

// Schema implements Node.
func (h *HashJoin) Schema() *catalog.Schema {
	if h.out == nil {
		h.out = joinSchema(h.Outer.Schema(), h.Inner.Schema())
	}
	return h.out
}

// MergeJoin joins two inputs sorted on their join keys, buffering
// duplicate inner groups so every matching pair is produced
// (ExecMergeJoin).
type MergeJoin struct {
	C        *Ctx
	Outer    Node
	Inner    Node
	OuterKey int
	InnerKey int
	Quals    []Expr

	out          *catalog.Schema
	outerTup     Tuple
	outerOK      bool
	innerTup     Tuple
	innerOK      bool
	started      bool
	group        []value.Value // current inner duplicate group: copies of its tuples, back to back
	nInner       int           // width of one of them
	groupKey     value.Value
	groupStrs    strArena // the string bytes of group and groupKey, recycled per group
	gpos         int      // offset in group of the next tuple to pair
	outerInGroup bool
	row          Tuple // output slot
}

// Open implements Node.
func (m *MergeJoin) Open() error {
	newSlot(&m.row, m.Schema().Len())
	m.nInner = m.Inner.Schema().Len()
	m.started = false
	m.group = m.group[:0]
	m.gpos = 0
	m.outerInGroup = false
	if err := m.Outer.Open(); err != nil {
		return err
	}
	return m.Inner.Open()
}

func (m *MergeJoin) advanceOuter() error {
	t, ok, err := m.C.child(probe.MJOuterCall, probe.MJOuterCont, m.Outer)
	m.outerTup, m.outerOK = t, ok
	return err
}

func (m *MergeJoin) advanceInner() error {
	t, ok, err := m.C.child(probe.MJInnerCall, probe.MJInnerCont, m.Inner)
	m.innerTup, m.innerOK = t, ok
	return err
}

// Next implements Node.
func (m *MergeJoin) Next() (Tuple, bool, error) {
	c := m.C
	c.emit(probe.MJEnter)
	if !m.started {
		m.started = true
		if err := m.advanceOuter(); err != nil {
			return nil, false, err
		}
		if err := m.advanceInner(); err != nil {
			return nil, false, err
		}
	}
	for {
		// Emit pending (outer, group) pairs.
		if m.outerInGroup {
			for m.gpos < len(m.group) {
				itup := m.group[m.gpos : m.gpos+m.nInner]
				m.gpos += m.nInner
				row := append(append(m.row[:0], m.outerTup...), itup...)
				if len(m.Quals) > 0 {
					c.emit(probe.MJQualCall)
					pass := ExecQual(c, m.Quals, row)
					c.emit(probe.MJQualCont)
					if !pass {
						continue
					}
				}
				c.emit(probe.MJEmit)
				return row, true, nil
			}
			// Group exhausted for this outer tuple: advance outer and
			// re-check it against the same group.
			m.gpos = 0
			m.outerInGroup = false
			if err := m.advanceOuter(); err != nil {
				return nil, false, err
			}
		}
		if !m.outerOK {
			c.emit(probe.MJEOF)
			return nil, false, nil
		}
		// Does the current outer match the buffered group?
		if len(m.group) > 0 {
			c.emit(probe.MJCmpCall)
			c.emit(cmpProbeFor(m.outerTup[m.OuterKey]))
			cmp := compareVals(m.outerTup[m.OuterKey], m.groupKey)
			c.emit(probe.MJCmpCont)
			if cmp == 0 {
				m.outerInGroup = true
				m.gpos = 0
				continue
			}
			m.group = m.group[:0]
		}
		if !m.innerOK {
			c.emit(probe.MJEOF)
			return nil, false, nil
		}
		// Align keys.
		c.emit(probe.MJCmpCall)
		c.emit(cmpProbeFor(m.outerTup[m.OuterKey]))
		cmp := compareVals(m.outerTup[m.OuterKey], m.innerTup[m.InnerKey])
		c.emit(probe.MJCmpCont)
		switch {
		case cmp < 0:
			if err := m.advanceOuter(); err != nil {
				return nil, false, err
			}
		case cmp > 0:
			if err := m.advanceInner(); err != nil {
				return nil, false, err
			}
		default:
			// Buffer the inner duplicate group for this key.
			m.groupStrs.reset()
			m.groupKey = m.groupStrs.keep(m.innerTup[m.InnerKey])
			m.group = m.group[:0]
			for m.innerOK {
				c.emit(probe.MJCmpCall)
				c.emit(cmpProbeFor(m.innerTup[m.InnerKey]))
				same := compareVals(m.innerTup[m.InnerKey], m.groupKey) == 0
				c.emit(probe.MJCmpCont)
				if !same {
					break
				}
				for _, v := range m.innerTup {
					m.group = append(m.group, m.groupStrs.keep(v))
				}
				if err := m.advanceInner(); err != nil {
					return nil, false, err
				}
			}
			m.outerInGroup = true
			m.gpos = 0
		}
	}
}

// Close implements Node. Both children are always closed, even when
// the first close fails; the first error wins. Close is idempotent.
func (m *MergeJoin) Close() error {
	m.group = nil
	err := m.Outer.Close()
	if ierr := m.Inner.Close(); err == nil {
		err = ierr
	}
	return err
}

// Schema implements Node.
func (m *MergeJoin) Schema() *catalog.Schema {
	if m.out == nil {
		m.out = joinSchema(m.Outer.Schema(), m.Inner.Schema())
	}
	return m.out
}

// compareVals wraps value.Compare for the executor (NULLs first).
func compareVals(a, b value.Value) int { return value.Compare(a, b) }

// cmpProbeFor picks the per-type comparator probe.
func cmpProbeFor(v value.Value) probe.ID {
	switch v.T {
	case value.Float:
		return probe.CmpFlt
	case value.Str:
		return probe.CmpStr
	case value.Date:
		return probe.CmpDate
	default:
		return probe.CmpInt
	}
}
