package executor

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/db/value"
)

// ExplainLines renders a plan tree as a stable indented operator
// listing, one line per operator (plus detail lines for predicates).
// With analyze set, each operator line carries the runtime counters
// accumulated by its Instrumented wrapper — the tree must then be the
// one returned by Instrument, already executed.
//
// The non-analyze rendering is deterministic for a given plan shape,
// which is what the TPC-D plan goldens pin.
func ExplainLines(n Node, analyze bool) []string {
	var out []string
	renderPlan(&out, n, 0, false, analyze)
	return out
}

// TopOp returns the label of the operator with the largest self time
// in an executed Instrumented tree — the "dominant operator" surfaced
// in slow-query records. Returns "" for uninstrumented trees.
func TopOp(n Node) string {
	best := ""
	var bestSelf time.Duration = -1
	var walk func(Node)
	walk = func(n Node) {
		in, ok := n.(*Instrumented)
		if !ok {
			return
		}
		inner := in.n
		self := in.Stats.Wall - childWall(inner)
		if self > bestSelf {
			bestSelf = self
			best = nodeLabel(inner)
		}
		for _, ch := range nodeChildren(inner) {
			walk(ch)
		}
	}
	walk(n)
	return best
}

// renderPlan emits one operator (unwrapping its Instrumented shell if
// present) and recurses into its children.
func renderPlan(out *[]string, n Node, depth int, arrow, analyze bool) {
	var st *OpStats
	var childSum time.Duration
	if in, ok := n.(*Instrumented); ok {
		st = &in.Stats
		n = in.n
		childSum = childWall(n)
	}
	pad := strings.Repeat("  ", depth)
	line := pad + nodeLabel(n)
	if arrow {
		line = pad + "-> " + nodeLabel(n)
	}
	if analyze && st != nil {
		self := st.Wall - childSum
		if self < 0 {
			self = 0
		}
		line += fmt.Sprintf(" (actual rows=%d loops=%d time=%s self=%s buf_hits=%d buf_misses=%d)",
			st.Rows, st.Loops, fmtDur(st.Wall), fmtDur(self),
			st.BufHits(), st.BufMisses())
	}
	*out = append(*out, line)
	dpad := pad + "     "
	if !arrow {
		dpad = pad + "  "
	}
	for _, d := range nodeDetails(n) {
		*out = append(*out, dpad+d)
	}
	for _, ch := range nodeChildren(n) {
		renderPlan(out, ch, depth+1, true, analyze)
	}
}

// childWall sums the inclusive wall time of an operator's (wrapped)
// children, for deriving self time.
func childWall(n Node) time.Duration {
	var sum time.Duration
	for _, ch := range nodeChildren(n) {
		if in, ok := ch.(*Instrumented); ok {
			sum += in.Stats.Wall
		}
	}
	return sum
}

// fmtDur renders a duration with fixed millisecond units and
// microsecond resolution, keeping ANALYZE lines uniform.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

// nodeLabel names one operator for EXPLAIN and top_op output.
func nodeLabel(n Node) string {
	switch t := n.(type) {
	case *SeqScan:
		return "Seq Scan on " + t.Table
	case *IndexScan:
		if t.HashIdx != nil {
			return "Index Scan using hash on " + t.Table
		}
		return "Index Scan using btree on " + t.Table
	case *ValuesScan:
		return fmt.Sprintf("Values Scan (%d rows)", len(t.Rows))
	case *Filter:
		return "Filter"
	case *ProjectNode:
		parts := make([]string, len(t.Exprs))
		for i, e := range t.Exprs {
			parts[i] = e.String()
		}
		return "Project (" + strings.Join(parts, ", ") + ")"
	case *NestLoop:
		return "Nested Loop"
	case *IndexLoopJoin:
		kind := "btree"
		if t.HashIdx != nil {
			kind = "hash"
		}
		return fmt.Sprintf("Index Loop Join using %s on %s", kind, t.Table)
	case *HashJoin:
		return fmt.Sprintf("Hash Join (%s = %s)",
			colName(t.Outer, t.OuterKey), colName(t.Inner, t.InnerKey))
	case *MergeJoin:
		return fmt.Sprintf("Merge Join (%s = %s)",
			colName(t.Outer, t.OuterKey), colName(t.Inner, t.InnerKey))
	case *Agg:
		return "Aggregate (" + specList(t.Specs) + ")"
	case *GroupAgg:
		cols := make([]string, len(t.GroupBy))
		for i, c := range t.GroupBy {
			cols[i] = colName(t.Child, c)
		}
		return fmt.Sprintf("Group Aggregate (%s; %s)",
			strings.Join(cols, ", "), specList(t.Specs))
	case *Sort:
		return "Sort (" + keyList(t) + ")"
	case *Material:
		return "Materialize"
	case *Limit:
		return fmt.Sprintf("Limit %d", t.N)
	case *Instrumented:
		return nodeLabel(t.n)
	default:
		return fmt.Sprintf("%T", n)
	}
}

// nodeDetails returns an operator's predicate/condition lines.
func nodeDetails(n Node) []string {
	switch t := n.(type) {
	case *SeqScan:
		return qualDetail("Filter", t.Quals)
	case *IndexScan:
		var cond string
		switch {
		case t.HashIdx != nil:
			cond = fmt.Sprintf("%s = %s", t.KeyCol, keyVal(t, t.EqKey))
		case t.HasLo && t.HasHi && t.Lo == t.Hi:
			cond = fmt.Sprintf("%s = %s", t.KeyCol, keyVal(t, t.Lo))
		case t.HasLo && t.HasHi:
			cond = fmt.Sprintf("%s >= %s and %s <= %s", t.KeyCol, keyVal(t, t.Lo), t.KeyCol, keyVal(t, t.Hi))
		case t.HasLo:
			cond = fmt.Sprintf("%s >= %s", t.KeyCol, keyVal(t, t.Lo))
		case t.HasHi:
			cond = fmt.Sprintf("%s <= %s", t.KeyCol, keyVal(t, t.Hi))
		default:
			cond = "full scan"
		}
		out := []string{"Index Cond: " + cond}
		return append(out, qualDetail("Filter", t.Quals)...)
	case *Filter:
		return qualDetail("Filter", t.Quals)
	case *NestLoop:
		return qualDetail("Join Filter", t.Quals)
	case *IndexLoopJoin:
		cond := fmt.Sprintf("Index Cond: %s = %s", t.KeyCol, colName(t.Outer, t.OuterKey))
		return append([]string{cond}, qualDetail("Join Filter", t.Quals)...)
	case *HashJoin:
		return qualDetail("Join Filter", t.Quals)
	case *MergeJoin:
		return qualDetail("Join Filter", t.Quals)
	case *Instrumented:
		return nodeDetails(t.n)
	}
	return nil
}

// nodeChildren returns an operator's plan inputs in display order.
// After Instrument, these are the Instrumented wrappers.
func nodeChildren(n Node) []Node {
	switch t := n.(type) {
	case *Filter:
		return []Node{t.Child}
	case *ProjectNode:
		return []Node{t.Child}
	case *NestLoop:
		return []Node{t.Outer, t.Inner}
	case *IndexLoopJoin:
		return []Node{t.Outer}
	case *HashJoin:
		return []Node{t.Outer, t.Inner}
	case *MergeJoin:
		return []Node{t.Outer, t.Inner}
	case *Agg:
		return []Node{t.Child}
	case *GroupAgg:
		return []Node{t.Child}
	case *Sort:
		return []Node{t.Child}
	case *Material:
		return []Node{t.Child}
	case *Limit:
		return []Node{t.Child}
	case *Instrumented:
		return nodeChildren(t.n)
	}
	return nil
}

func qualDetail(label string, quals []Expr) []string {
	if len(quals) == 0 {
		return nil
	}
	parts := make([]string, len(quals))
	for i, q := range quals {
		parts[i] = q.String()
	}
	return []string{label + ": " + strings.Join(parts, " AND ")}
}

// keyVal renders an index key bound with the key column's type: date
// columns store day numbers, which read far better as dates — and
// must match how the expression printer renders the same literal in
// Filter lines.
func keyVal(s *IndexScan, v int64) string {
	for _, c := range s.Out.Columns {
		if c.Name == s.KeyCol && c.Type == value.Date {
			return value.FormatDate(v)
		}
	}
	return strconv.FormatInt(v, 10)
}

// colName resolves a column index of a node's output schema.
func colName(n Node, idx int) string {
	sch := n.Schema()
	if idx >= 0 && idx < sch.Len() {
		return sch.Columns[idx].Name
	}
	return fmt.Sprintf("$%d", idx)
}

// specList renders an aggregate target list.
func specList(specs []AggSpec) string {
	parts := make([]string, len(specs))
	for i, sp := range specs {
		arg := "*"
		if sp.Arg != nil {
			arg = sp.Arg.String()
		}
		parts[i] = fmt.Sprintf("%s(%s)", sp.Func, arg)
	}
	return strings.Join(parts, ", ")
}

// keyList renders a sort's keys against its own output schema, which
// names the same columns as its child's however many it keeps.
func keyList(s *Sort) string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = colName(s, k.Col)
		if k.Desc {
			parts[i] += " desc"
		}
	}
	return strings.Join(parts, ", ")
}
