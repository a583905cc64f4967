package sql

import (
	"fmt"
	"sort"

	"repro/internal/db/catalog"
	"repro/internal/db/engine"
	"repro/internal/db/executor"
	"repro/internal/db/value"
)

// Planner turns parsed statements into executable plans against a
// database, with heuristic scan selection (sequential vs B-tree range
// vs hash equality), greedy join ordering by estimated cardinality,
// and join-method choice (index nested loop when an index serves the
// join key, hash join otherwise, merge join for large unindexed
// inputs).
type Planner struct {
	DB *engine.DB
	C  *executor.Ctx
}

// Plan compiles a statement.
func (pl *Planner) Plan(st *SelectStmt) (executor.Node, error) {
	if len(st.From) == 0 {
		return nil, fmt.Errorf("sql: no FROM tables")
	}
	// Classify WHERE conjuncts.
	var conj []node
	flattenAnd(st.Where, &conj)
	tblPreds := make(map[string][]node) // single-table predicates
	type joinPred struct{ lt, lc, rt, rc string }
	var joins []joinPred
	var cross []node // multi-table non-equijoin predicates
	for _, c := range conj {
		tabs := pl.tablesOf(c, st.From)
		switch {
		case len(tabs) == 1:
			tblPreds[tabs[0]] = append(tblPreds[tabs[0]], c)
		case len(tabs) == 2:
			if be, ok := c.(*binExpr); ok && be.op == "=" {
				lc, lok := be.l.(*colRef)
				rc, rok := be.r.(*colRef)
				if lok && rok {
					lt := pl.tableOfCol(lc.name, st.From)
					rt := pl.tableOfCol(rc.name, st.From)
					joins = append(joins, joinPred{lt, lc.name, rt, rc.name})
					continue
				}
			}
			cross = append(cross, c)
		default:
			cross = append(cross, c)
		}
	}

	// Estimated filtered cardinalities.
	est := make(map[string]float64)
	for _, t := range st.From {
		e := float64(pl.DB.NumRows(t))
		for _, p := range tblPreds[t] {
			e *= selectivity(p)
		}
		if e < 1 {
			e = 1
		}
		est[t] = e
	}

	// Base scans, each deforming only the columns the statement uses.
	used := usedColumns(st)
	scans := make(map[string]executor.Node)
	for _, t := range st.From {
		n, err := pl.scan(t, tblPreds[t], used)
		if err != nil {
			return nil, err
		}
		scans[t] = n
	}

	// Greedy join order: start at the smallest estimate, repeatedly
	// attach the joinable table with the smallest estimate.
	order := append([]string(nil), st.From...)
	sort.Slice(order, func(i, j int) bool {
		if est[order[i]] != est[order[j]] {
			return est[order[i]] < est[order[j]]
		}
		return order[i] < order[j]
	})
	joined := map[string]bool{order[0]: true}
	plan := scans[order[0]]
	remaining := order[1:]
	usedJoin := make([]bool, len(joins))
	for len(remaining) > 0 {
		// Pick the smallest remaining table connected to the joined set
		// (or, failing that, the smallest one — cross join).
		pick := -1
		pickJoin := -1
		for i, t := range remaining {
			for j, jp := range joins {
				if usedJoin[j] {
					continue
				}
				if (joined[jp.lt] && jp.rt == t) || (joined[jp.rt] && jp.lt == t) {
					if pick == -1 || est[t] < est[remaining[pick]] {
						pick, pickJoin = i, j
					}
					break
				}
			}
		}
		if pick == -1 {
			pick = 0
		}
		t := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		var err error
		if pickJoin >= 0 {
			jp := joins[pickJoin]
			usedJoin[pickJoin] = true
			outerCol, innerCol := jp.lc, jp.rc
			if jp.rt != t {
				outerCol, innerCol = jp.rc, jp.lc
			}
			plan, err = pl.join(plan, t, outerCol, innerCol, tblPreds[t], scans[t], est, used)
		} else {
			plan = &executor.NestLoop{C: pl.C, Outer: plan, Inner: scans[t]}
		}
		if err != nil {
			return nil, err
		}
		joined[t] = true
	}
	// Any equijoin predicates between already-joined tables (cycles)
	// and multi-table predicates become filters.
	var resid []node
	for j, jp := range joins {
		if !usedJoin[j] {
			resid = append(resid, &binExpr{op: "=", l: &colRef{name: jp.lc}, r: &colRef{name: jp.rc}})
		}
	}
	resid = append(resid, cross...)
	if len(resid) > 0 {
		quals, err := pl.compileQuals(resid, plan.Schema())
		if err != nil {
			return nil, err
		}
		plan = &executor.Filter{C: pl.C, Child: plan, Quals: quals}
	}

	return pl.finish(st, plan)
}

// finish adds aggregation/grouping, projection, ordering and limit.
func (pl *Planner) finish(st *SelectStmt, plan executor.Node) (executor.Node, error) {
	hasAgg := false
	for _, it := range st.Items {
		if it.Agg != "" {
			hasAgg = true
		}
	}
	sch := plan.Schema()
	switch {
	case len(st.GroupBy) > 0:
		// Sort by group columns, aggregate per group, project to the
		// select-list order. The sort keeps only the group columns and
		// the aggregates' arguments, and everything above it resolves
		// names against that narrowed schema.
		for _, g := range st.GroupBy {
			if sch.ColIndex(g) < 0 {
				return nil, fmt.Errorf("sql: unknown GROUP BY column %q", g)
			}
		}
		out, cols := prune(sch, groupedColumns(st))
		var keys []executor.SortKey
		var groupCols []int
		for _, g := range st.GroupBy {
			idx := out.ColIndex(g)
			keys = append(keys, executor.SortKey{Col: idx})
			groupCols = append(groupCols, idx)
		}
		srt := &executor.Sort{C: pl.C, Child: plan, Out: out, Cols: cols, Keys: keys}
		specs, err := pl.aggSpecs(st, out)
		if err != nil {
			return nil, err
		}
		grp := &executor.GroupAgg{C: pl.C, Child: srt, GroupBy: groupCols, Specs: specs}
		// Map select items onto GroupAgg output (= group cols + aggs).
		proj, err := pl.postAggProject(st, grp.Schema(), st.GroupBy)
		if err != nil {
			return nil, err
		}
		plan = &executor.ProjectNode{C: pl.C, Child: grp, Exprs: proj.exprs, Names: proj.names}
	case hasAgg:
		specs, err := pl.aggSpecs(st, sch)
		if err != nil {
			return nil, err
		}
		plan = &executor.Agg{C: pl.C, Child: plan, Specs: specs}
	default:
		exprs := make([]executor.Expr, len(st.Items))
		names := make([]string, len(st.Items))
		for i, it := range st.Items {
			e, err := compileExpr(it.Expr, sch)
			if err != nil {
				return nil, err
			}
			exprs[i] = e
			names[i] = it.Alias
			if names[i] == "" {
				if c, ok := it.Expr.(*colRef); ok {
					names[i] = c.name
				} else {
					names[i] = it.Expr.String()
				}
			}
		}
		plan = &executor.ProjectNode{C: pl.C, Child: plan, Exprs: exprs, Names: names}
	}
	if len(st.OrderBy) > 0 {
		var keys []executor.SortKey
		out := plan.Schema()
		for _, ob := range st.OrderBy {
			idx := out.ColIndex(ob.Col)
			if idx < 0 {
				return nil, fmt.Errorf("sql: unknown ORDER BY column %q", ob.Col)
			}
			keys = append(keys, executor.SortKey{Col: idx, Desc: ob.Desc})
		}
		plan = &executor.Sort{C: pl.C, Child: plan, Keys: keys}
	}
	if st.Limit >= 0 {
		plan = &executor.Limit{C: pl.C, Child: plan, N: st.Limit}
	}
	return plan, nil
}

type projection struct {
	exprs []executor.Expr
	names []string
}

// aggSpecs builds the aggregate list in select order.
func (pl *Planner) aggSpecs(st *SelectStmt, sch *catalog.Schema) ([]executor.AggSpec, error) {
	var specs []executor.AggSpec
	for _, it := range st.Items {
		if it.Agg == "" {
			continue
		}
		sp := executor.AggSpec{Name: it.Alias}
		switch it.Agg {
		case "count":
			sp.Func = executor.AggCount
		case "sum":
			sp.Func = executor.AggSum
		case "avg":
			sp.Func = executor.AggAvg
		case "min":
			sp.Func = executor.AggMin
		case "max":
			sp.Func = executor.AggMax
		}
		if !it.Star {
			e, err := compileExpr(it.Expr, sch)
			if err != nil {
				return nil, err
			}
			sp.Arg = e
		}
		if sp.Name == "" {
			sp.Name = it.Agg
		}
		specs = append(specs, sp)
	}
	if len(specs) == 0 {
		specs = append(specs, executor.AggSpec{Func: executor.AggCount, Name: "count"})
	}
	return specs, nil
}

// postAggProject maps select items onto the GroupAgg output schema
// (group columns first, then aggregates in select order).
func (pl *Planner) postAggProject(st *SelectStmt, aggSchema *catalog.Schema, groupBy []string) (projection, error) {
	var pr projection
	aggPos := len(groupBy)
	for _, it := range st.Items {
		if it.Agg != "" {
			name := it.Alias
			if name == "" {
				name = it.Agg
			}
			pr.exprs = append(pr.exprs, &executor.Var{
				Idx: aggPos, Name: name, T: aggSchema.Columns[aggPos].Type})
			pr.names = append(pr.names, name)
			aggPos++
			continue
		}
		c, ok := it.Expr.(*colRef)
		if !ok {
			return pr, fmt.Errorf("sql: non-aggregate select item %q must be a grouped column", it.Expr)
		}
		found := -1
		for gi, g := range groupBy {
			if g == c.name {
				found = gi
			}
		}
		if found < 0 {
			return pr, fmt.Errorf("sql: column %q not in GROUP BY", c.name)
		}
		name := it.Alias
		if name == "" {
			name = c.name
		}
		pr.exprs = append(pr.exprs, &executor.Var{
			Idx: found, Name: name, T: aggSchema.Columns[found].Type})
		pr.names = append(pr.names, name)
	}
	return pr, nil
}

// scan builds the access path for one table: hash index for an
// equality predicate on an indexed column, B-tree range scan for
// range/equality predicates on a B-tree column, else a sequential scan
// with all predicates as qualifiers. Whatever the path, the scan emits
// only the table's used columns.
func (pl *Planner) scan(table string, preds []node, used map[string]bool) (executor.Node, error) {
	t, ok := pl.DB.Cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", table)
	}
	sch, cols := prune(t.Schema, used)
	heap := pl.DB.Heap(table)

	// Try an indexable predicate.
	for i, p := range preds {
		be, ok := p.(*binExpr)
		if !ok {
			continue
		}
		col, lit, op, ok := indexableSides(be, t)
		if !ok {
			continue
		}
		ix := t.IndexOn(col)
		if ix == nil {
			continue
		}
		rest := append(append([]node(nil), preds[:i]...), preds[i+1:]...)
		quals, err := pl.compileQuals(rest, sch)
		if err != nil {
			return nil, err
		}
		if ix.Kind == catalog.Hash && op == "=" {
			return &executor.IndexScan{C: pl.C, Heap: heap, Out: sch, Cols: cols,
				Table: table, KeyCol: col,
				HashIdx: pl.DB.HashFor(ix), EqKey: lit, Quals: quals}, nil
		}
		if ix.Kind == catalog.BTree {
			is := &executor.IndexScan{C: pl.C, Heap: heap, Out: sch, Cols: cols,
				Table: table, KeyCol: col,
				BTree: pl.DB.BTreeFor(ix), Quals: quals}
			switch op {
			case "=":
				is.Lo, is.Hi, is.HasLo, is.HasHi = lit, lit, true, true
			case ">", ">=":
				is.Lo, is.HasLo = lit, true
				if op == ">" {
					is.Lo++
				}
			case "<", "<=":
				is.Hi, is.HasHi = lit, true
				if op == "<" {
					is.Hi--
				}
			default:
				continue
			}
			return is, nil
		}
	}
	quals, err := pl.compileQuals(preds, sch)
	if err != nil {
		return nil, err
	}
	return &executor.SeqScan{C: pl.C, Heap: heap, Out: sch, Cols: cols, Table: table, Quals: quals}, nil
}

// join attaches table t to the current plan on outerCol = innerCol.
func (pl *Planner) join(outer executor.Node, t, outerCol, innerCol string,
	innerPreds []node, innerScan executor.Node, est map[string]float64, used map[string]bool) (executor.Node, error) {
	tbl, _ := pl.DB.Cat.Table(t)
	innerSch, innerCols := prune(tbl.Schema, used)
	outIdx := outer.Schema().ColIndex(outerCol)
	if outIdx < 0 {
		return nil, fmt.Errorf("sql: join column %q not available", outerCol)
	}
	// Index nested loop when the inner join column is indexed and the
	// outer side is not much larger than the inner.
	if ix := tbl.IndexOn(innerCol); ix != nil {
		quals, err := pl.compileQuals(innerPreds, joinedSchema(outer.Schema(), innerSch))
		if err != nil {
			return nil, err
		}
		ilj := &executor.IndexLoopJoin{C: pl.C, Outer: outer, OuterKey: outIdx,
			Heap: pl.DB.Heap(t), InnerSch: innerSch, InnerCols: innerCols, Quals: quals,
			Table: t, KeyCol: innerCol}
		if ix.Kind == catalog.BTree {
			ilj.BTree = pl.DB.BTreeFor(ix)
		} else {
			ilj.HashIdx = pl.DB.HashFor(ix)
		}
		return ilj, nil
	}
	// Hash join otherwise (merge join for two huge unindexed inputs).
	inIdx := innerSch.ColIndex(innerCol)
	if inIdx < 0 {
		return nil, fmt.Errorf("sql: join column %q not in %q", innerCol, t)
	}
	if est[t] > 50000 {
		okeys := []executor.SortKey{{Col: outIdx}}
		ikeys := []executor.SortKey{{Col: inIdx}}
		return &executor.MergeJoin{C: pl.C,
			Outer:    &executor.Sort{C: pl.C, Child: outer, Keys: okeys},
			Inner:    &executor.Sort{C: pl.C, Child: innerScan, Keys: ikeys},
			OuterKey: outIdx, InnerKey: inIdx}, nil
	}
	return &executor.HashJoin{C: pl.C, Outer: outer, Inner: innerScan,
		OuterKey: outIdx, InnerKey: inIdx}, nil
}

// ---- helpers ----

func flattenAnd(n node, out *[]node) {
	if n == nil {
		return
	}
	if a, ok := n.(*andExpr); ok {
		for _, c := range a.args {
			flattenAnd(c, out)
		}
		return
	}
	*out = append(*out, n)
}

// walkCols calls fn with the name of every column reference in n.
func walkCols(n node, fn func(name string)) {
	switch x := n.(type) {
	case *colRef:
		fn(x.name)
	case *binExpr:
		walkCols(x.l, fn)
		walkCols(x.r, fn)
	case *andExpr:
		for _, a := range x.args {
			walkCols(a, fn)
		}
	case *orExpr:
		for _, a := range x.args {
			walkCols(a, fn)
		}
	case *notExpr:
		walkCols(x.arg, fn)
	case *likeExpr:
		walkCols(x.arg, fn)
	case *inExpr:
		walkCols(x.arg, fn)
	}
}

// usedColumns collects the column names a statement references: select
// items (aggregate arguments included), WHERE (join keys live there)
// and GROUP BY. ORDER BY names resolve against the projected output,
// whose inputs are select items already.
func usedColumns(st *SelectStmt) map[string]bool {
	used := groupedColumns(st)
	add := func(name string) { used[name] = true }
	for _, it := range st.Items {
		if it.Agg == "" {
			walkCols(it.Expr, add)
		}
	}
	walkCols(st.Where, add)
	return used
}

// groupedColumns collects the column names a grouped statement reads
// above its sort: the GROUP BY columns and every aggregate argument.
// Other select items must be group columns (postAggProject checks).
func groupedColumns(st *SelectStmt) map[string]bool {
	used := make(map[string]bool)
	add := func(name string) { used[name] = true }
	for _, g := range st.GroupBy {
		add(g)
	}
	for _, it := range st.Items {
		if it.Agg != "" {
			walkCols(it.Expr, add)
		}
	}
	return used
}

// prune returns the sub-schema of sch restricted to the used columns
// and their ordinals in sch, ascending — the shape scans hand to
// storage.DecodeTuple. Everything above a scan resolves columns by
// name against the pruned schema, so no other index needs rewriting;
// a table none of whose columns are used (count(*)) scans zero-width
// tuples.
func prune(sch *catalog.Schema, used map[string]bool) (*catalog.Schema, []int) {
	kept := make([]catalog.Column, 0, len(used))
	cols := make([]int, 0, len(used))
	for i, c := range sch.Columns {
		if used[c.Name] {
			kept = append(kept, c)
			cols = append(cols, i)
		}
	}
	return catalog.NewSchema(kept...), cols
}

// tablesOf returns the tables whose columns appear in n.
func (pl *Planner) tablesOf(n node, from []string) []string {
	seen := map[string]bool{}
	walkCols(n, func(name string) {
		if t := pl.tableOfCol(name, from); t != "" {
			seen[t] = true
		}
	})
	out := make([]string, 0, len(seen))
	for _, t := range from {
		if seen[t] {
			out = append(out, t)
		}
	}
	return out
}

func (pl *Planner) tableOfCol(col string, from []string) string {
	for _, t := range from {
		if tbl, ok := pl.DB.Cat.Table(t); ok && tbl.Schema.ColIndex(col) >= 0 {
			return t
		}
	}
	return ""
}

// selectivity is a crude textbook estimate per predicate shape.
func selectivity(n node) float64 {
	switch x := n.(type) {
	case *binExpr:
		switch x.op {
		case "=":
			return 0.05
		case "<>":
			return 0.9
		default:
			return 0.3
		}
	case *likeExpr:
		return 0.1
	case *inExpr:
		return 0.1
	case *orExpr:
		return 0.5
	case *notExpr:
		return 0.7
	}
	return 0.5
}

// indexableSides matches col-op-literal (either side) with an integer
// or date literal, returning the column, key and normalized operator.
func indexableSides(be *binExpr, t *catalog.Table) (col string, key int64, op string, ok bool) {
	lit2key := func(n node, colType value.Type) (int64, bool) {
		switch x := n.(type) {
		case *intLit:
			return x.v, true
		case *strLit:
			if colType == value.Date {
				d, err := value.ParseDate(x.v)
				if err == nil {
					return d, true
				}
			}
		}
		return 0, false
	}
	if c, isCol := be.l.(*colRef); isCol && t.Schema.ColIndex(c.name) >= 0 {
		ct := t.Schema.Columns[t.Schema.ColIndex(c.name)].Type
		if k, isLit := lit2key(be.r, ct); isLit {
			return c.name, k, be.op, true
		}
	}
	if c, isCol := be.r.(*colRef); isCol && t.Schema.ColIndex(c.name) >= 0 {
		ct := t.Schema.Columns[t.Schema.ColIndex(c.name)].Type
		if k, isLit := lit2key(be.l, ct); isLit {
			// Flip the comparison: lit op col  ==>  col op' lit.
			flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
			if f, okf := flip[be.op]; okf {
				return c.name, k, f, true
			}
		}
	}
	return "", 0, "", false
}

func (pl *Planner) compileQuals(preds []node, sch *catalog.Schema) ([]executor.Expr, error) {
	var out []executor.Expr
	for _, p := range preds {
		e, err := compileExpr(p, sch)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// compileExpr resolves names against a schema and produces an
// executable expression, coercing string literals compared against
// date columns.
func compileExpr(n node, sch *catalog.Schema) (executor.Expr, error) {
	switch x := n.(type) {
	case *colRef:
		idx := sch.ColIndex(x.name)
		if idx < 0 {
			return nil, fmt.Errorf("sql: unknown column %q", x.name)
		}
		return &executor.Var{Idx: idx, Name: x.name, T: sch.Columns[idx].Type}, nil
	case *intLit:
		return &executor.Const{V: value.NewInt(x.v)}, nil
	case *floatLit:
		return &executor.Const{V: value.NewFloat(x.v)}, nil
	case *strLit:
		return &executor.Const{V: value.NewStr(x.v)}, nil
	case *binExpr:
		l, err := compileExpr(x.l, sch)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(x.r, sch)
		if err != nil {
			return nil, err
		}
		l, r = coerceDates(l, r)
		var op executor.Op
		switch x.op {
		case "=":
			op = executor.OpEQ
		case "<>":
			op = executor.OpNE
		case "<":
			op = executor.OpLT
		case "<=":
			op = executor.OpLE
		case ">":
			op = executor.OpGT
		case ">=":
			op = executor.OpGE
		case "+":
			op = executor.OpAdd
		case "-":
			op = executor.OpSub
		case "*":
			op = executor.OpMul
		case "/":
			op = executor.OpDiv
		default:
			return nil, fmt.Errorf("sql: unknown operator %q", x.op)
		}
		return &executor.BinOp{Op: op, L: l, R: r}, nil
	case *andExpr:
		args := make([]executor.Expr, len(x.args))
		for i, a := range x.args {
			e, err := compileExpr(a, sch)
			if err != nil {
				return nil, err
			}
			args[i] = e
		}
		return &executor.AndExpr{Args: args}, nil
	case *orExpr:
		args := make([]executor.Expr, len(x.args))
		for i, a := range x.args {
			e, err := compileExpr(a, sch)
			if err != nil {
				return nil, err
			}
			args[i] = e
		}
		return &executor.OrExpr{Args: args}, nil
	case *notExpr:
		a, err := compileExpr(x.arg, sch)
		if err != nil {
			return nil, err
		}
		return &executor.NotExpr{Arg: a}, nil
	case *likeExpr:
		a, err := compileExpr(x.arg, sch)
		if err != nil {
			return nil, err
		}
		return executor.NewLike(a, x.pattern, x.negate), nil
	case *inExpr:
		a, err := compileExpr(x.arg, sch)
		if err != nil {
			return nil, err
		}
		var list []value.Value
		for _, el := range x.list {
			c, err := compileExpr(el, sch)
			if err != nil {
				return nil, err
			}
			k, ok := c.(*executor.Const)
			if !ok {
				return nil, fmt.Errorf("sql: IN list must be literals")
			}
			v := k.V
			if a.Type() == value.Date && v.T == value.Str {
				if d, err := value.ParseDate(v.S); err == nil {
					v = value.NewDate(d)
				}
			}
			list = append(list, v)
		}
		return &executor.InExpr{Arg: a, List: list}, nil
	}
	return nil, fmt.Errorf("sql: cannot compile %T", n)
}

// coerceDates converts a string literal compared against a date column
// into a date constant.
func coerceDates(l, r executor.Expr) (executor.Expr, executor.Expr) {
	if l.Type() == value.Date {
		if k, ok := r.(*executor.Const); ok && k.V.T == value.Str {
			if d, err := value.ParseDate(k.V.S); err == nil {
				return l, &executor.Const{V: value.NewDate(d)}
			}
		}
	}
	if r.Type() == value.Date {
		if k, ok := l.(*executor.Const); ok && k.V.T == value.Str {
			if d, err := value.ParseDate(k.V.S); err == nil {
				return &executor.Const{V: value.NewDate(d)}, r
			}
		}
	}
	return l, r
}

func joinedSchema(l, r *catalog.Schema) *catalog.Schema {
	cols := make([]catalog.Column, 0, l.Len()+r.Len())
	cols = append(cols, l.Columns...)
	cols = append(cols, r.Columns...)
	return catalog.NewSchema(cols...)
}

// Compiled bundles a plan with its compile-time metadata: the query's
// table footprint (what the result cache validates epochs against)
// and its canonical text (the cache key).
type Compiled struct {
	Plan executor.Node
	// Tables is the deduplicated FROM footprint, in first-mention
	// order.
	Tables []string
	// Key is the canonicalized query text (see SelectStmt.Canonical).
	Key string
}

// CompileQuery parses and plans a query without running it — the
// parse/plan-once half of a prepared statement — and returns the plan
// together with its footprint and canonical key. The plan can be
// executed repeatedly (executor nodes reset on Open), but holds
// mutable state and must not be run concurrently.
func CompileQuery(db *engine.DB, c *executor.Ctx, query string) (*Compiled, error) {
	st, err := Parse(query)
	if err != nil {
		return nil, err
	}
	pl := &Planner{DB: db, C: c}
	plan, err := pl.Plan(st)
	if err != nil {
		return nil, err
	}
	return &Compiled{Plan: plan, Tables: dedupFrom(st.From), Key: st.Canonical()}, nil
}

// Analyze parses a query just far enough for a result-cache lookup:
// its canonical key and deduplicated table footprint, without
// planning. A hit served off these never needs the plan; a miss
// proceeds to CompileQuery (which re-parses — parsing is a small
// fraction of planning, let alone execution).
func Analyze(query string) (key string, tables []string, err error) {
	st, err := Parse(query)
	if err != nil {
		return "", nil, err
	}
	return st.Canonical(), dedupFrom(st.From), nil
}

// dedupFrom returns the FROM list with duplicates removed, in
// first-mention order.
func dedupFrom(from []string) []string {
	tables := make([]string, 0, len(from))
	seen := make(map[string]bool, len(from))
	for _, t := range from {
		if !seen[t] {
			seen[t] = true
			tables = append(tables, t)
		}
	}
	return tables
}
