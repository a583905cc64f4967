package dsdb_test

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/dsdb"
	"repro/internal/db/catalog"
	"repro/internal/db/value"
)

// groupJoins are the TPC-D foreign keys a generated query may join on.
var groupJoins = [][4]string{
	{"lineitem", "l_orderkey", "orders", "o_orderkey"},
	{"lineitem", "l_partkey", "part", "p_partkey"},
	{"lineitem", "l_suppkey", "supplier", "s_suppkey"},
	{"orders", "o_custkey", "customer", "c_custkey"},
	{"customer", "c_nationkey", "nation", "n_nationkey"},
	{"supplier", "s_nationkey", "nation", "n_nationkey"},
	{"nation", "n_regionkey", "region", "r_regionkey"},
	{"partsupp", "ps_partkey", "part", "p_partkey"},
	{"partsupp", "ps_suppkey", "supplier", "s_suppkey"},
}

// groupQuery is one generated GROUP BY query: its select items, each
// with a distinct output name, and everything after the select list.
type groupQuery struct {
	items []string // "expr as name" or a bare group column
	names []string // output column names, in select order
	rest  string   // from, where, group by
}

func (g groupQuery) sql() string {
	return "select " + strings.Join(g.items, ", ") + " " + g.rest
}

// groupGen generates GROUP BY queries over the TPC-D schema.
type groupGen struct {
	db     *dsdb.DB
	rng    *rand.Rand
	tables map[string]*catalog.Schema
	names  []string                  // the tables, sorted: the seeded draws need a fixed order
	bounds map[string][2]value.Value // min and max per range column
}

func newGroupGen(t *testing.T, db *dsdb.DB, seed int64) *groupGen {
	g := &groupGen{db: db, rng: rand.New(rand.NewSource(seed)),
		tables: map[string]*catalog.Schema{}, bounds: map[string][2]value.Value{}}
	for _, tbl := range db.Engine().Cat.Tables() {
		g.tables[tbl.Name] = tbl.Schema
	}
	g.names = slices.Sorted(maps.Keys(g.tables))
	if len(g.tables) != 8 {
		t.Fatalf("%d tables, want the 8 of TPC-D", len(g.tables))
	}
	return g
}

// columns lists the columns of the given tables.
func (g *groupGen) columns(tables []string) []catalog.Column {
	var cols []catalog.Column
	for _, t := range tables {
		cols = append(cols, g.tables[t].Columns...)
	}
	return cols
}

// pick returns a column of cols that used does not hold and ok says
// may be used, or false after a bounded search.
func (g *groupGen) pick(cols []catalog.Column, used map[string]bool, ok func(catalog.Column) bool) (catalog.Column, bool) {
	for range 4 * len(cols) {
		c := cols[g.rng.Intn(len(cols))]
		if !used[c.Name] && ok(c) {
			return c, true
		}
	}
	return catalog.Column{}, false
}

func anyType(catalog.Column) bool { return true }

func numeric(c catalog.Column) bool { return c.Type == value.Int || c.Type == value.Float }

// aggregate renders one aggregate over a column that used does not
// hold, marking it used: count, sum, avg, min or max (sum and avg only
// over numbers, count also as count(*)).
func (g *groupGen) aggregate(cols []catalog.Column, used map[string]bool) (string, bool) {
	fn := []string{"count", "sum", "avg", "min", "max"}[g.rng.Intn(5)]
	if fn == "count" && g.rng.Intn(3) == 0 {
		return "count(*)", true
	}
	ok := anyType
	if fn == "sum" || fn == "avg" {
		ok = numeric
	}
	c, found := g.pick(cols, used, ok)
	if !found {
		return "", false
	}
	used[c.Name] = true
	return fmt.Sprintf("%s(%s)", fn, c.Name), true
}

// where renders an optional range predicate over a numeric or date
// column, its bounds drawn between the column's minimum and maximum.
func (g *groupGen) where(t *testing.T, cols []catalog.Column) string {
	if g.rng.Intn(2) == 0 {
		return ""
	}
	c, ok := g.pick(cols, nil, func(c catalog.Column) bool { return c.Type != value.Str })
	if !ok {
		return ""
	}
	b, ok := g.bounds[c.Name]
	if !ok {
		var table string
		for name, sch := range g.tables {
			if sch.ColIndex(c.Name) >= 0 {
				table = name
			}
		}
		res, err := g.db.Exec(context.Background(),
			fmt.Sprintf("select min(%s) as lo, max(%s) as hi from %s", c.Name, c.Name, table))
		if err != nil {
			t.Fatal(err)
		}
		b = [2]value.Value{res.Rows[0][0], res.Rows[0][1]}
		g.bounds[c.Name] = b
	}
	lit := func(frac float64) string {
		switch c.Type {
		case value.Float:
			return fmt.Sprintf("%.2f", b[0].F+frac*(b[1].F-b[0].F))
		case value.Date:
			return "'" + value.FormatDate(b[0].I+int64(frac*float64(b[1].I-b[0].I))) + "'"
		}
		return fmt.Sprint(b[0].I + int64(frac*float64(b[1].I-b[0].I)))
	}
	lo := g.rng.Float64() * 0.7
	return fmt.Sprintf("%s between %s and %s", c.Name, lit(lo), lit(lo+0.1+g.rng.Float64()*0.5))
}

// query generates a base query — one table or an equi-join of two,
// 1-2 group columns, 1-3 aggregates, an optional range — and its twin,
// which adds 1-2 aggregates over columns the base does not read, so
// its GROUP BY sort keeps more columns. Both list their items in a
// random order.
func (g *groupGen) query(t *testing.T) (base, twin groupQuery) {
	for {
		var tables []string
		var joinPred string
		if g.rng.Intn(3) == 0 {
			j := groupJoins[g.rng.Intn(len(groupJoins))]
			tables = []string{j[0], j[2]}
			joinPred = j[1] + " = " + j[3]
		} else {
			tables = []string{g.names[g.rng.Intn(len(g.names))]}
		}
		cols := g.columns(tables)
		used := map[string]bool{}
		var groups []string
		for range 1 + g.rng.Intn(2) {
			if c, ok := g.pick(cols, used, anyType); ok {
				used[c.Name] = true
				groups = append(groups, c.Name)
			}
		}
		var preds []string
		if joinPred != "" {
			preds = append(preds, joinPred)
		}
		if w := g.where(t, cols); w != "" {
			preds = append(preds, w)
		}
		rest := "from " + strings.Join(tables, ", ")
		if len(preds) > 0 {
			rest += " where " + strings.Join(preds, " and ")
		}
		rest += " group by " + strings.Join(groups, ", ")
		base = groupQuery{rest: rest}
		for _, gc := range groups {
			base.items = append(base.items, gc)
			base.names = append(base.names, gc)
		}
		for i := range 1 + g.rng.Intn(3) {
			if agg, ok := g.aggregate(cols, used); ok {
				name := fmt.Sprintf("a%d", i)
				base.items = append(base.items, agg+" as "+name)
				base.names = append(base.names, name)
			}
		}
		twin = groupQuery{rest: rest, items: append([]string(nil), base.items...),
			names: append([]string(nil), base.names...)}
		added := 0
		for i := range 1 + g.rng.Intn(2) {
			agg, ok := g.aggregate(cols, used)
			if !ok || agg == "count(*)" {
				continue
			}
			at := g.rng.Intn(len(twin.items) + 1)
			name := fmt.Sprintf("x%d", i)
			twin.items = append(twin.items[:at], append([]string{agg + " as " + name}, twin.items[at:]...)...)
			twin.names = append(twin.names[:at], append([]string{name}, twin.names[at:]...)...)
			added++
		}
		if added == 0 || len(base.names) == len(groups) {
			continue // nothing widened, or no aggregate to compare: draw again
		}
		g.rng.Shuffle(len(base.items), func(i, j int) {
			base.items[i], base.items[j] = base.items[j], base.items[i]
			base.names[i], base.names[j] = base.names[j], base.names[i]
		})
		return base, twin
	}
}

// project returns res's rows narrowed to the named columns, in order.
func project(t *testing.T, res *dsdb.Result, names []string) *dsdb.Result {
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = -1
		for j, c := range res.Columns {
			if c == n {
				idx[i] = j
			}
		}
		if idx[i] < 0 {
			t.Fatalf("no column %q in %v", n, res.Columns)
		}
	}
	out := &dsdb.Result{Columns: names}
	for _, row := range res.Rows {
		r := make([]dsdb.Value, len(idx))
		for i, j := range idx {
			r[i] = row[j]
		}
		out.Rows = append(out.Rows, r)
	}
	return out
}

// TestGroupByTwinAgrees checks the GROUP BY sort's narrowing against
// itself, with no second planner as the oracle: each generated query
// is run beside a metamorphic twin that adds aggregates over columns
// the query does not read, which widens the twin's sort and shifts
// where every kept column sits in it. The columns the two share must
// agree byte for byte (bench/'s result digest), on the B-tree and the
// hash database, and no query may leave a frame pinned. A second pair
// runs each query again as a one-shot query, which reuses its pooled
// plan, against a statement compiled afresh: both must agree too.
func TestGroupByTwinAgrees(t *testing.T) {
	const queries = 80
	for _, kind := range []dsdb.IndexKind{dsdb.BTree, dsdb.Hash} {
		t.Run(kind.String(), func(t *testing.T) {
			db := openTPCD(t, 0.002, dsdb.WithSeed(42), dsdb.WithIndexKind(kind))
			defer db.Close()
			gen := newGroupGen(t, db, 7)
			nonEmpty := 0
			for range queries {
				base, twin := gen.query(t)
				var digests [2]string
				for i, q := range []groupQuery{base, twin} {
					res, err := db.Exec(context.Background(), q.sql())
					if err != nil {
						t.Fatalf("%s: %v", q.sql(), err)
					}
					if n := db.PoolStats().Pinned; n != 0 {
						t.Fatalf("%s: %d frames left pinned", q.sql(), n)
					}
					digests[i] = benchDigest(project(t, res, base.names))
					if i == 0 && len(res.Rows) > 0 {
						nonEmpty++
					}
				}
				if digests[0] != digests[1] {
					t.Errorf("shared columns differ:\n  %s\n    %s\n  %s\n    %s",
						base.sql(), digests[0], twin.sql(), digests[1])
				}
				// Reused vs fresh plan: the base ran as a one-shot query,
				// so running it again reuses that plan; a statement
				// compiled now must return what the reused plan does.
				before := db.PlanStats()
				reused, err := db.Exec(context.Background(), base.sql())
				if err != nil {
					t.Fatalf("%s: %v", base.sql(), err)
				}
				if db.PlanStats().Reused != before.Reused+1 {
					t.Fatalf("%s: its second run compiled again instead of reusing the plan", base.sql())
				}
				stmt, err := db.Prepare(base.sql())
				if err != nil {
					t.Fatalf("%s: %v", base.sql(), err)
				}
				fresh, err := materialize(stmt.Query(context.Background()))
				if err != nil {
					t.Fatalf("%s: %v", base.sql(), err)
				}
				if n := db.PoolStats().Pinned; n != 0 {
					t.Fatalf("%s: %d frames left pinned", base.sql(), n)
				}
				if r, f := benchDigest(reused), benchDigest(fresh); r != f {
					t.Errorf("reused and fresh plans differ:\n  %s\n    reused %s\n    fresh  %s", base.sql(), r, f)
				}
			}
			if nonEmpty < queries/2 {
				t.Fatalf("only %d of %d queries returned rows: the generator tests too little", nonEmpty, queries)
			}
		})
	}
}
