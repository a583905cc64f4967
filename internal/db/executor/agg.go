package executor

import (
	"repro/internal/db/catalog"
	"repro/internal/db/probe"
	"repro/internal/db/value"
)

// AggFunc enumerates the aggregate functions.
type AggFunc uint8

// Aggregate functions supported by the executor.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = [...]string{"count", "sum", "avg", "min", "max"}

// String returns the SQL name.
func (f AggFunc) String() string { return aggNames[f] }

// AggSpec is one aggregate in a target list. A nil Arg means COUNT(*).
type AggSpec struct {
	Func AggFunc
	Arg  Expr
	Name string
}

// aggState accumulates one aggregate.
type aggState struct {
	count  int64
	sum    float64
	isInt  bool
	intOK  bool
	intSum int64
	min    value.Value
	max    value.Value
	any    bool
}

func (st *aggState) advance(v value.Value) {
	if v.IsNull() {
		return
	}
	st.count++
	switch v.T {
	case value.Int, value.Date:
		st.sum += float64(v.I)
		st.intSum += v.I
	case value.Float:
		st.sum += v.F
		st.intOK = false
	}
	if !st.any {
		st.min, st.max = v, v
		st.any = true
	} else {
		if value.Compare(v, st.min) < 0 {
			st.min = v
		}
		if value.Compare(v, st.max) > 0 {
			st.max = v
		}
	}
}

func (st *aggState) result(f AggFunc, argType value.Type) value.Value {
	switch f {
	case AggCount:
		return value.NewInt(st.count)
	case AggSum:
		if st.count == 0 {
			return value.NewNull()
		}
		if (argType == value.Int || argType == value.Date) && st.intOK {
			return value.NewInt(st.intSum)
		}
		return value.NewFloat(st.sum)
	case AggAvg:
		if st.count == 0 {
			return value.NewNull()
		}
		return value.NewFloat(st.sum / float64(st.count))
	case AggMin:
		if !st.any {
			return value.NewNull()
		}
		return st.min
	default:
		if !st.any {
			return value.NewNull()
		}
		return st.max
	}
}

// resetAggStates returns sts, sized for specs on first use, with every
// accumulator back at its start state.
func resetAggStates(sts []aggState, specs []AggSpec) []aggState {
	if sts == nil {
		sts = make([]aggState, len(specs))
	}
	for i := range sts {
		sts[i] = aggState{intOK: true}
	}
	return sts
}

// aggResults appends one result per spec to out.
func aggResults(out Tuple, specs []AggSpec, states []aggState) Tuple {
	for i, sp := range specs {
		t := value.Int
		if sp.Arg != nil {
			t = sp.Arg.Type()
		}
		out = append(out, states[i].result(sp.Func, t))
	}
	return out
}

// Agg computes plain (ungrouped) aggregates over its whole input,
// emitting exactly one row (ExecAgg).
type Agg struct {
	C     *Ctx
	Child Node
	Specs []AggSpec

	out    *catalog.Schema
	states []aggState
	row    Tuple // output slot
	done   bool
}

// Open implements Node.
func (a *Agg) Open() error {
	newSlot(&a.row, len(a.Specs))
	a.done = false
	return a.Child.Open()
}

// Next implements Node.
func (a *Agg) Next() (Tuple, bool, error) {
	c := a.C
	c.emit(probe.AggEnter)
	if a.done {
		c.emit(probe.AggEOF)
		return nil, false, nil
	}
	a.states = resetAggStates(a.states, a.Specs)
	states := a.states
	for {
		tup, ok, err := c.child(probe.AggChildCall, probe.AggChildCont, a.Child)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		for i, sp := range a.Specs {
			last := i == len(a.Specs)-1
			if sp.Arg == nil {
				// COUNT(*): no expression evaluation.
				if last {
					c.emit(probe.AggCountStarLast)
				} else {
					c.emit(probe.AggCountStar)
				}
				states[i].count++
				continue
			}
			c.emit(probe.AggAdvance)
			v := sp.Arg.Eval(c, tup)
			if last {
				c.emit(probe.AggAdvanceLast)
			} else {
				c.emit(probe.AggAdvanceCont)
			}
			states[i].advance(v)
		}
	}
	out := aggResults(a.row[:0], a.Specs, states)
	a.done = true
	c.emit(probe.AggEmit)
	return out, true, nil
}

// Close implements Node.
func (a *Agg) Close() error { return a.Child.Close() }

// Schema implements Node.
func (a *Agg) Schema() *catalog.Schema {
	if a.out == nil {
		cols := make([]catalog.Column, len(a.Specs))
		for i, sp := range a.Specs {
			t := value.Int
			if sp.Arg != nil {
				t = sp.Arg.Type()
				if sp.Func == AggAvg {
					t = value.Float
				}
				if sp.Func == AggCount {
					t = value.Int
				}
			}
			name := sp.Name
			if name == "" {
				name = sp.Func.String()
			}
			cols[i] = catalog.Column{Name: name, Type: t}
		}
		a.out = catalog.NewSchema(cols...)
	}
	return a.out
}

// GroupAgg computes grouped aggregates over an input sorted by the
// group columns, exploiting group boundaries (ExecGroup + ExecAgg, the
// sort-based grouping of PostgreSQL 6.3). The output is the group
// columns followed by the aggregates.
type GroupAgg struct {
	C       *Ctx
	Child   Node
	GroupBy []int // columns of the child output
	Specs   []AggSpec

	out  *catalog.Schema
	keys []SortKey // GroupBy as comparison keys
	// head stands in for the current group's first row: as wide as a
	// child tuple, but only the group columns are filled in — the child
	// reuses that row's storage while the rest of the group is read.
	head   Tuple
	states []aggState
	row    Tuple // output slot
	// pending is the child's current tuple, the first row of the next
	// group; it stays valid because the child is not called again
	// before that group starts.
	pending     Tuple
	havePending bool
	eof         bool
}

// Open implements Node.
func (g *GroupAgg) Open() error {
	if g.keys == nil {
		g.keys = make([]SortKey, len(g.GroupBy))
		for i, col := range g.GroupBy {
			g.keys[i] = SortKey{Col: col}
		}
		g.head = make(Tuple, g.Child.Schema().Len())
	}
	newSlot(&g.row, len(g.GroupBy)+len(g.Specs))
	g.pending = nil
	g.havePending = false
	g.eof = false
	return g.Child.Open()
}

// sameGroup compares group columns of two rows with comparator probes.
func (g *GroupAgg) sameGroup(a, b Tuple) bool {
	c := g.C
	c.emit(probe.GrpCmpCall)
	r := tupleCompare(c, a, b, g.keys)
	c.emit(probe.GrpCmpCont)
	return r == 0
}

// Next implements Node.
func (g *GroupAgg) Next() (Tuple, bool, error) {
	c := g.C
	c.emit(probe.GrpEnter)
	if g.eof {
		c.emit(probe.GrpEOF)
		return nil, false, nil
	}
	// Fetch the first row of the next group unless one is pending from
	// the previous boundary.
	if !g.havePending {
		tup, ok, err := c.child(probe.GrpFirstCall, probe.GrpFirstCont, g.Child)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			g.eof = true
			c.emit(probe.GrpFirstEOF)
			return nil, false, nil
		}
		g.pending = tup
		g.havePending = true
		c.emit(probe.GrpAccum)
	} else {
		c.emit(probe.GrpAccumPend)
	}
	g.states = resetAggStates(g.states, g.Specs)
	states, head := g.states, g.head
	g.accumulate(states, g.pending)
	for _, col := range g.GroupBy {
		head[col] = g.pending[col]
	}
	drained := false
	for {
		tup, ok, err := c.child(probe.GrpChildCall, probe.GrpChildCont, g.Child)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			g.eof = true
			g.havePending = false
			drained = true
			break
		}
		if g.sameGroup(head, tup) {
			c.emit(probe.GrpSame)
			g.accumulate(states, tup)
			continue
		}
		// Boundary: stash the first row of the next group.
		g.pending = tup
		g.havePending = true
		break
	}
	out := g.row[:0]
	for _, col := range g.GroupBy {
		out = append(out, head[col])
	}
	out = aggResults(out, g.Specs, states)
	if drained {
		c.emit(probe.GrpDrain)
	} else {
		c.emit(probe.GrpEmit)
	}
	return out, true, nil
}

func (g *GroupAgg) accumulate(states []aggState, tup Tuple) {
	c := g.C
	for i, sp := range g.Specs {
		last := i == len(g.Specs)-1
		if sp.Arg == nil {
			if last {
				c.emit(probe.GrpCountStarLast)
			} else {
				c.emit(probe.GrpCountStar)
			}
			states[i].count++
			continue
		}
		c.emit(probe.GrpAdvance)
		v := sp.Arg.Eval(c, tup)
		if last {
			c.emit(probe.GrpAdvanceLast)
		} else {
			c.emit(probe.GrpAdvanceCont)
		}
		states[i].advance(v)
	}
}

// Close implements Node.
func (g *GroupAgg) Close() error { return g.Child.Close() }

// Schema implements Node.
func (g *GroupAgg) Schema() *catalog.Schema {
	if g.out == nil {
		child := g.Child.Schema()
		cols := make([]catalog.Column, 0, len(g.GroupBy)+len(g.Specs))
		for _, col := range g.GroupBy {
			cols = append(cols, child.Columns[col])
		}
		for _, sp := range g.Specs {
			t := value.Int
			if sp.Arg != nil {
				t = sp.Arg.Type()
				if sp.Func == AggAvg {
					t = value.Float
				}
				if sp.Func == AggCount {
					t = value.Int
				}
			}
			name := sp.Name
			if name == "" {
				name = sp.Func.String()
			}
			cols = append(cols, catalog.Column{Name: name, Type: t})
		}
		g.out = catalog.NewSchema(cols...)
	}
	return g.out
}
