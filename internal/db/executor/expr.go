// Package executor implements the query-execution kernel of the
// database (the paper's Executor module): a Volcano-style pipelined
// operator tree — Sequential Scan, Index Scan, Nested-Loop Join, Hash
// Join, Merge Join, Sort, Aggregate, Group, Material and Limit — plus
// the expression evaluator. Execution is pipelined: each operation
// passes result tuples to its parent as they are produced, which, as
// the paper observes, is why DBMS kernels execute few loops and long
// call chains.
package executor

import (
	"fmt"
	"strings"

	"repro/dsdb/obs"
	"repro/internal/db/probe"
	"repro/internal/db/value"
)

// Tuple is one row flowing through the executor. One returned by
// Node.Next is a slot: read-only for the consumer and valid only until
// the producing node is called again (see Node); Slab.Copy makes one
// that can be kept.
type Tuple []value.Value

// Ctx carries per-query execution state: the instrumentation tracer
// and scratch space. A nil-tracer context — the zero Ctx, or NewCtx(nil)
// — is valid and untraced: its operators emit nothing. Each query gets
// its own Ctx, so concurrent sessions never share tracer or interrupt
// state.
type Ctx struct {
	// Tr is what the operators hand to the access methods: the
	// recorder below, wrapped to carry the span when observed (span.go).
	// Nil when the execution is neither traced nor observed.
	Tr probe.Tracer
	// Interrupt, when non-nil, is polled on every inter-node call of
	// the Volcano dispatcher; a non-nil return aborts execution with
	// that error. It is how context cancellation reaches the executor
	// even inside pipeline-breaking operators (Sort, HashJoin build).
	// Only the session goroutine calls it, so it need not be safe for
	// concurrent use.
	Interrupt func() error
	// Span is the current execution's observability span (nil when
	// unobserved). Set per-execution via SetSpan, which also wraps Tr
	// so the buffer pool can attribute IO waits to it (span.go).
	Span *obs.Span
	// base is the session tracer as given to NewCtx; rec records the
	// execution's events (nil when nothing does). retrace derives rec
	// and Tr from base whenever the span or analyze mode changes.
	base, rec probe.Tracer

	// curOp points at the stats block of the operator currently
	// executing under EXPLAIN ANALYZE instrumentation (instrument.go);
	// nil on every uninstrumented execution. Only the session
	// goroutine reads or writes it.
	curOp *OpStats
	// analyzing is set by SetAnalyze for EXPLAIN ANALYZE executions:
	// the tracer chain then carries an analyzeTracer that attributes
	// buffer-pool traffic to curOp. Off on every ordinary query, so
	// the non-analyzing hot path pays nothing.
	analyzing bool
}

// NewCtx returns an execution context with the given tracer (nil means
// untraced).
func NewCtx(tr probe.Tracer) *Ctx {
	c := &Ctx{base: tr}
	c.retrace()
	return c
}

// Expr is a typed expression evaluated against a tuple.
type Expr interface {
	// Eval computes the expression over row. The context's tracer
	// receives the ExecEvalExpr instrumentation events.
	Eval(c *Ctx, row Tuple) value.Value
	// Type returns the result type.
	Type() value.Type
	// String renders the expression for EXPLAIN output.
	String() string
}

// Var references a column of the input tuple.
type Var struct {
	Idx  int
	Name string
	T    value.Type
}

// Eval implements Expr.
func (v *Var) Eval(c *Ctx, row Tuple) value.Value {
	c.emit(probe.EvalExprVar)
	return row[v.Idx]
}

// Type implements Expr.
func (v *Var) Type() value.Type { return v.T }

// String implements Expr.
func (v *Var) String() string { return v.Name }

// Const is a literal.
type Const struct {
	V value.Value
}

// Eval implements Expr.
func (k *Const) Eval(c *Ctx, row Tuple) value.Value {
	c.emit(probe.EvalExprConst)
	return k.V
}

// Type implements Expr.
func (k *Const) Type() value.Type { return k.V.T }

// String implements Expr.
func (k *Const) String() string {
	return literal(k.V)
}

// literal renders a constant as SQL: a string in single quotes, each
// embedded quote doubled.
func literal(v value.Value) string {
	if v.T == value.Str {
		return quote(v.S)
	}
	return v.String()
}

// quote renders s as a SQL string literal.
func quote(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// Op enumerates binary operators.
type Op uint8

// Binary operators: comparisons and arithmetic.
const (
	OpEQ Op = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	OpAdd
	OpSub
	OpMul
	OpDiv
)

var opNames = [...]string{"=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/"}

// String returns the SQL spelling of the operator.
func (o Op) String() string { return opNames[o] }

// IsComparison reports whether the operator yields a boolean.
func (o Op) IsComparison() bool { return o <= OpGE }

// BinOp applies a binary operator to two subexpressions.
type BinOp struct {
	Op   Op
	L, R Expr
}

// opFuncProbe returns the probe for the applied operator function,
// chosen by operand type as PostgreSQL's fmgr dispatch would (int4eq,
// float8lt, ...).
func opFuncProbe(o Op, t value.Type) probe.ID {
	if !o.IsComparison() {
		return probe.ArithOp
	}
	switch t {
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

// Eval implements Expr.
func (b *BinOp) Eval(c *Ctx, row Tuple) value.Value {
	c.emit(probe.EvalExprOpCall)
	l := b.L.Eval(c, row)
	c.emit(probe.EvalExprOp2)
	r := b.R.Eval(c, row)
	c.emit(probe.EvalExprOpCont)
	c.emit(opFuncProbe(b.Op, b.L.Type()))
	v := applyBinOp(b.Op, l, r)
	c.emit(probe.EvalExprRet)
	return v
}

func applyBinOp(op Op, l, r value.Value) value.Value {
	if l.IsNull() || r.IsNull() {
		if op.IsComparison() {
			return value.NewBool(false)
		}
		return value.NewNull()
	}
	if op.IsComparison() {
		cmp := value.Compare(l, r)
		switch op {
		case OpEQ:
			return value.NewBool(cmp == 0)
		case OpNE:
			return value.NewBool(cmp != 0)
		case OpLT:
			return value.NewBool(cmp < 0)
		case OpLE:
			return value.NewBool(cmp <= 0)
		case OpGT:
			return value.NewBool(cmp > 0)
		default:
			return value.NewBool(cmp >= 0)
		}
	}
	// Arithmetic: floats dominate; Int/Date stay integral except Div.
	if l.T == value.Float || r.T == value.Float || op == OpDiv {
		lf, rf := toFloat(l), toFloat(r)
		switch op {
		case OpAdd:
			return value.NewFloat(lf + rf)
		case OpSub:
			return value.NewFloat(lf - rf)
		case OpMul:
			return value.NewFloat(lf * rf)
		default:
			if rf == 0 {
				return value.NewNull()
			}
			return value.NewFloat(lf / rf)
		}
	}
	switch op {
	case OpAdd:
		return value.NewInt(l.I + r.I)
	case OpSub:
		return value.NewInt(l.I - r.I)
	default: // OpMul
		return value.NewInt(l.I * r.I)
	}
}

func toFloat(v value.Value) float64 {
	if v.T == value.Float {
		return v.F
	}
	return float64(v.I)
}

// Type implements Expr.
func (b *BinOp) Type() value.Type {
	if b.Op.IsComparison() {
		return value.Bool
	}
	if b.L.Type() == value.Float || b.R.Type() == value.Float || b.Op == OpDiv {
		return value.Float
	}
	return b.L.Type()
}

// String implements Expr.
func (b *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// AndExpr is an n-ary conjunction.
type AndExpr struct {
	Args []Expr
}

// Eval implements Expr with short-circuiting. Instrumentation models
// the n-ary conjunction as a left-deep chain of binary boolean
// operator applications, closing short-circuited levels as unary
// applications so the emitted path stays CFG-valid.
func (a *AndExpr) Eval(c *Ctx, row Tuple) value.Value {
	return evalBoolChain(c, row, a.Args, true)
}

// Type implements Expr.
func (a *AndExpr) Type() value.Type { return value.Bool }

// String implements Expr.
func (a *AndExpr) String() string {
	parts := make([]string, len(a.Args))
	for i, e := range a.Args {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

// OrExpr is an n-ary disjunction.
type OrExpr struct {
	Args []Expr
}

// Eval implements Expr with short-circuiting (see AndExpr.Eval for the
// instrumentation model).
func (o *OrExpr) Eval(c *Ctx, row Tuple) value.Value {
	return evalBoolChain(c, row, o.Args, false)
}

// evalBoolChain evaluates an n-ary AND (stopOn=true short-circuits on
// false) or OR (stopOn=false short-circuits on true) as a left-deep
// chain of binary evaluator invocations.
func evalBoolChain(c *Ctx, row Tuple, args []Expr, isAnd bool) value.Value {
	n := len(args)
	levels := n - 1
	if levels < 1 {
		levels = 1
	}
	// Descend into the nested operator invocations.
	for i := 0; i < levels; i++ {
		c.emit(probe.EvalExprOpCall)
	}
	v := args[0].Eval(c, row)
	res := v.Bool()
	closed := 0
	for i := 1; i < n; i++ {
		if res != isAnd {
			break // short-circuit: AND saw false / OR saw true
		}
		c.emit(probe.EvalExprOp2)
		v = args[i].Eval(c, row)
		if isAnd {
			res = res && v.Bool()
		} else {
			res = res || v.Bool()
		}
		c.emit(probe.EvalExprOpCont)
		c.emit(probe.BoolOp)
		c.emit(probe.EvalExprRet)
		closed++
	}
	// Close any remaining (short-circuited or unary) levels.
	for ; closed < levels; closed++ {
		c.emit(probe.EvalExprOp1Only)
		c.emit(probe.BoolOp)
		c.emit(probe.EvalExprRet)
	}
	return value.NewBool(res)
}

// Type implements Expr.
func (o *OrExpr) Type() value.Type { return value.Bool }

// String implements Expr.
func (o *OrExpr) String() string {
	parts := make([]string, len(o.Args))
	for i, e := range o.Args {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

// NotExpr negates a boolean expression.
type NotExpr struct {
	Arg Expr
}

// Eval implements Expr.
func (n *NotExpr) Eval(c *Ctx, row Tuple) value.Value {
	c.emit(probe.EvalExprOpCall)
	v := n.Arg.Eval(c, row)
	c.emit(probe.EvalExprOp1Only)
	c.emit(probe.BoolOp)
	c.emit(probe.EvalExprRet)
	return value.NewBool(!v.Bool())
}

// Type implements Expr.
func (n *NotExpr) Type() value.Type { return value.Bool }

// String implements Expr.
func (n *NotExpr) String() string { return "NOT " + n.Arg.String() }

// LikeExpr matches a string against a SQL LIKE pattern with %
// wildcards (the forms TPC-D uses: 'prefix%', '%sub%', '%suffix',
// and multi-% patterns). Build one with NewLike, which splits the
// pattern once so that Eval never does.
type LikeExpr struct {
	Arg    Expr
	Negate bool
	frags  []string // the pattern split at its % wildcards
}

// NewLike returns arg [NOT] LIKE pattern.
func NewLike(arg Expr, pattern string, negate bool) *LikeExpr {
	return &LikeExpr{Arg: arg, Negate: negate, frags: strings.Split(pattern, "%")}
}

// Eval implements Expr.
func (l *LikeExpr) Eval(c *Ctx, row Tuple) value.Value {
	c.emit(probe.EvalExprOpCall)
	v := l.Arg.Eval(c, row)
	c.emit(probe.EvalExprOp1Only)
	c.emit(probe.LikeOp)
	m := matchFrags(v.S, l.frags)
	if l.Negate {
		m = !m
	}
	c.emit(probe.EvalExprRet)
	return value.NewBool(m)
}

// Type implements Expr.
func (l *LikeExpr) Type() value.Type { return value.Bool }

// String implements Expr.
func (l *LikeExpr) String() string {
	op := "LIKE"
	if l.Negate {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("(%s %s %s)", l.Arg, op, quote(strings.Join(l.frags, "%")))
}

// matchFrags matches s against a LIKE pattern already split at its %
// wildcards (parts is never empty: a pattern without % is one part).
func matchFrags(s string, parts []string) bool {
	if len(parts) == 1 {
		return s == parts[0]
	}
	// Anchored prefix.
	if parts[0] != "" {
		if !strings.HasPrefix(s, parts[0]) {
			return false
		}
		s = s[len(parts[0]):]
	}
	// Anchored suffix.
	last := parts[len(parts)-1]
	if last != "" {
		if !strings.HasSuffix(s, last) {
			return false
		}
		s = s[:len(s)-len(last)]
	}
	// Middle fragments in order.
	for _, frag := range parts[1 : len(parts)-1] {
		if frag == "" {
			continue
		}
		i := strings.Index(s, frag)
		if i < 0 {
			return false
		}
		s = s[i+len(frag):]
	}
	return true
}

// InExpr tests membership in a literal list.
type InExpr struct {
	Arg  Expr
	List []value.Value
}

// Eval implements Expr.
func (e *InExpr) Eval(c *Ctx, row Tuple) value.Value {
	c.emit(probe.EvalExprOpCall)
	v := e.Arg.Eval(c, row)
	c.emit(probe.EvalExprOp1Only)
	c.emit(probe.BoolOp) // the list-membership function
	res := false
	for _, x := range e.List {
		if value.Equal(v, x) {
			res = true
			break
		}
	}
	c.emit(probe.EvalExprRet)
	return value.NewBool(res)
}

// Type implements Expr.
func (e *InExpr) Type() value.Type { return value.Bool }

// String implements Expr.
func (e *InExpr) String() string {
	parts := make([]string, len(e.List))
	for i, v := range e.List {
		parts[i] = literal(v)
	}
	return fmt.Sprintf("(%s IN (%s))", e.Arg, strings.Join(parts, ", "))
}

// ExecQual evaluates a conjunctive qualifier list, short-circuiting on
// the first false clause — PostgreSQL's ExecQual.
func ExecQual(c *Ctx, quals []Expr, row Tuple) bool {
	c.emit(probe.ExecQualEnter)
	for _, q := range quals {
		c.emit(probe.ExecQualExpr)
		v := q.Eval(c, row)
		if !v.Bool() {
			c.emit(probe.ExecQualFail)
			return false
		}
		c.emit(probe.ExecQualCont)
	}
	c.emit(probe.ExecQualPass)
	return true
}

// Project evaluates a target list over row into out, which has one
// element per expression — PostgreSQL's ExecProject.
func Project(c *Ctx, exprs []Expr, row, out Tuple) {
	c.emit(probe.ProjectEnter)
	for i, e := range exprs {
		c.emit(probe.ProjectCol)
		out[i] = e.Eval(c, row)
		c.emit(probe.ProjectColCont)
	}
	c.emit(probe.ProjectDone)
}
