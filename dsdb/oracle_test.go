package dsdb_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/dsdb"
	"repro/dsdb/client"
	"repro/dsdb/server"
	"repro/internal/db/engine"
	"repro/internal/db/executor"
	"repro/internal/db/executor/exectest"
	"repro/internal/db/sql"
	"repro/internal/tpcd"
)

// The oracle checks the invariant every configuration of the database
// is held to: a query returns the same rows however it is answered.
// Each row of oracleRows is one equivalence, two ways to answer a
// query, and every row runs over the 12 TPC-D texts and over generated
// queries. The two sides agree byte for byte (benchDigest), except
// where a row's sides may feed an aggregate in a different order:
// there a Float datum may differ by relTol, relatively (the B-tree
// plan of Q6 sums in l_shipdate order and the hash plan in heap order,
// 2 ulps apart), and every other datum must still match exactly. No
// execution on any side may leave a buffer frame pinned.

const (
	oracleSF      = 0.002
	oracleQueries = 80 // generated queries per test and index kind
	relTol        = 1e-9
)

// oquery is a query in clauses, so that a row can respell it.
type oquery struct {
	items, from, where, group, order []string
	limit                            int   // -1: none
	seed                             int64 // seeds a row's own draws
}

func (q oquery) sql() string {
	s := "select " + strings.Join(q.items, ", ") + " from " + strings.Join(q.from, ", ")
	for i, c := range [][]string{q.where, q.group, q.order} {
		if clause := strings.Join(c, []string{" and ", ", ", ", "}[i]); clause != "" {
			s += []string{" where ", " group by ", " order by "}[i] + clause
		}
	}
	if q.limit >= 0 {
		s += fmt.Sprint(" limit ", q.limit)
	}
	return s
}

// An oracleRow answers q both ways and returns the results in pairs
// (a, b, a, b, ...); ref is q's result on db. The row runs in the test
// its test field names, with the B-tree database as db, and once more
// with the hash database if it runs per kind.
type oracleRow struct {
	name, test     string
	loose, perKind bool // loose: the sides may feed an aggregate in different orders
	run            func(t *testing.T, o *oracle, db *dsdb.DB, q oquery, ref *dsdb.Result) []*dsdb.Result
}

var oracleRows = []oracleRow{
	{"hash vs B-tree", "TestOracle", true, false, func(t *testing.T, o *oracle, _ *dsdb.DB, q oquery, ref *dsdb.Result) []*dsdb.Result {
		return []*dsdb.Result{run(t, o.hash, q.sql()), ref}
	}},
	{"cached vs uncached", "TestResultCacheServesRepeatsByteIdentical", false, false, func(t *testing.T, o *oracle, _ *dsdb.DB, q oquery, ref *dsdb.Result) []*dsdb.Result {
		o.cached.ResultCache().Clear() // whatever ran before, the fill misses
		return []*dsdb.Result{o.runCached(t, q.sql(), false), ref, o.runCached(t, q.sql(), true), ref}
	}},
	{"reused vs fresh plan", "TestReusedPlanEqualsFresh", false, true, func(t *testing.T, o *oracle, db *dsdb.DB, q oquery, _ *dsdb.Result) []*dsdb.Result {
		// A spelling the ref run did not pool runs as a one-shot query:
		// a compile, the first time this process runs it on db, then a
		// reuse after a run to the end, a run closed after its first row,
		// and a reuse after that. Each run to the end must return and
		// record what a plan compiled afresh does.
		text := q.sql() + " "
		fresh, before := runFresh(t, db, text), db.PlanStats()
		sameRun(t, "first one-shot run vs fresh plan: "+text, runOneShot(t, db, text), fresh)
		if key := fmt.Sprintf("%p %s", db, text); !o.ran[key] {
			o.ran[key] = true
			expectPlans(t, db, "first one-shot run: "+text, before, 1, 0)
		}
		before = db.PlanStats()
		sameRun(t, "reused after a full run vs fresh plan: "+text, runOneShot(t, db, text), fresh)
		rows, err := db.Query(context.Background(), text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		rows.Next()
		rows.Close()
		assertNoPins(t, db, "closed after one row: "+text)
		sameRun(t, "reused after a partial run vs fresh plan: "+text, runOneShot(t, db, text), fresh)
		expectPlans(t, db, "reused vs fresh plan: "+text, before, 0, 3)
		return nil
	}},
	{"local vs served", "TestOracle", false, false, func(t *testing.T, o *oracle, _ *dsdb.DB, q oquery, ref *dsdb.Result) []*dsdb.Result {
		res, err := o.client.Exec(context.Background(), q.sql())
		if err != nil {
			t.Fatalf("served %s: %v", q.sql(), err)
		}
		assertNoPins(t, o.btree, "served "+q.sql())
		return []*dsdb.Result{ref, res}
	}},
	{"fresh vs WAL-recovered", "TestOracle", false, false, func(t *testing.T, o *oracle, _ *dsdb.DB, q oquery, _ *dsdb.Result) []*dsdb.Result {
		return []*dsdb.Result{run(t, o.fresh, q.sql()), run(t, o.recovered, q.sql())}
	}},
	{"pruned vs full-width", "TestGroupByTwinAgrees", false, true, func(t *testing.T, o *oracle, db *dsdb.DB, q oquery, _ *dsdb.Result) []*dsdb.Result {
		// The base groups q's rows by q's group columns (or one or two it
		// draws) under q's aggregates (or one or two it draws). Its twin
		// inserts among the items aggregates over columns the base does
		// not read, which widens its scans and its GROUP BY sort and
		// moves every column both keep. A twin with nothing to widen is
		// not run.
		g, cols := gen{o, rand.New(rand.NewSource(q.seed))}, o.columns(q.from)
		base := oquery{from: q.from, where: q.where, group: q.group, limit: -1}
		if strings.Join(q.group, "") == "" {
			base.group = nil
			for _, c := range shuffled(g.rng, cols)[:1+g.rng.Intn(2)] {
				base.group = append(base.group, c.Name)
			}
		}
		base.items = slices.DeleteFunc(slices.Clone(q.items), func(it string) bool { return !aggItem.MatchString(it) })
		if len(base.items) == 0 {
			for k := range 1 + g.rng.Intn(2) {
				base.items = append(base.items, fmt.Sprintf("%s as a%d", g.aggregate(cols[g.rng.Intn(len(cols))]), k))
			}
		}
		base.items, base.order = append(slices.Clone(base.group), base.items...), base.group
		twin, unread := base, slices.DeleteFunc(slices.Clone(cols), func(c dsdb.Column) bool { return strings.Contains(base.sql(), c.Name) })
		if len(unread) == 0 {
			return nil
		}
		for i, c := range shuffled(g.rng, unread)[:min(len(unread), 1+g.rng.Intn(2))] {
			agg := g.aggregate(c)
			for agg == "count(*)" { // reads no column
				agg = g.aggregate(c)
			}
			twin.items = slices.Insert(twin.items, g.rng.Intn(len(twin.items)+1), fmt.Sprintf("%s as x%d", agg, i))
		}
		base.items = shuffled(g.rng, base.items)
		a, b := run(t, db, base.sql()), run(t, db, twin.sql())
		kept := &dsdb.Result{Columns: a.Columns}
		for _, row := range b.Rows {
			kept.Rows = append(kept.Rows, make([]dsdb.Value, len(a.Columns)))
			for i, c := range a.Columns {
				kept.Rows[len(kept.Rows)-1][i] = row[slices.Index(b.Columns, c)]
			}
		}
		return []*dsdb.Result{a, kept}
	}},
	{"64-frame vs 2048-frame pool", "TestOracle", false, false, func(t *testing.T, o *oracle, _ *dsdb.DB, q oquery, ref *dsdb.Result) []*dsdb.Result {
		return []*dsdb.Result{run(t, o.small, q.sql()), ref}
	}},
	{"streamed vs materialized", "TestExecMatchesQuery", false, false, func(t *testing.T, o *oracle, db *dsdb.DB, q oquery, ref *dsdb.Result) []*dsdb.Result {
		return []*dsdb.Result{stream(t, db, q.sql()), ref}
	}},
	{"streamed vs raw executor", "TestStreamingMatchesSeedMaterialized", false, false, func(t *testing.T, o *oracle, db *dsdb.DB, q oquery, ref *dsdb.Result) []*dsdb.Result {
		// The raw side compiles q on an engine that tpcd.Load filled
		// (B-tree indexes) and runs the plan to completion, as the kernel
		// did before dsdb.
		cq, err := sql.CompileQuery(o.raw, executor.NewCtx(nil), q.sql())
		if err != nil {
			t.Fatalf("raw %s: %v", q.sql(), err)
		}
		tuples, err := exectest.Run(cq.Plan)
		if n := o.raw.Buf.PinnedFrames(); err != nil || n != 0 {
			t.Fatalf("raw %s: %v, %d frames still pinned", q.sql(), err, n)
		}
		res := &dsdb.Result{Columns: ref.Columns} // the raw plan's rows, under the streamed names
		for _, tup := range tuples {
			res.Rows = append(res.Rows, tup)
		}
		return []*dsdb.Result{stream(t, db, q.sql()), res}
	}},
	{"index range vs sequential scan", "TestOracle", true, false, func(t *testing.T, o *oracle, _ *dsdb.DB, q oquery, ref *dsdb.Result) []*dsdb.Result {
		return []*dsdb.Result{ref, run(t, o.btree, unindexable(q.sql()))}
	}},
	{"query vs respelling", "TestOracle", true, false, func(t *testing.T, o *oracle, _ *dsdb.DB, q oquery, ref *dsdb.Result) []*dsdb.Result {
		rng, re := rand.New(rand.NewSource(q.seed)), q
		re.from, re.where = shuffled(rng, q.from), shuffled(rng, q.where)
		for i, c := range re.where {
			if m := joinPred.FindStringSubmatch(c); m != nil && rng.Intn(2) == 0 {
				re.where[i] = m[2] + " = " + m[1]
			}
		}
		return []*dsdb.Result{ref, run(t, o.btree, re.sql())}
	}},
	{"LIMIT n is a prefix", "TestOracle", false, false, func(t *testing.T, o *oracle, _ *dsdb.DB, q oquery, ref *dsdb.Result) []*dsdb.Result {
		limited := q
		limited.limit = -1
		all := run(t, o.btree, limited.sql())
		limited.limit = rand.New(rand.NewSource(q.seed)).Intn(len(all.Rows) + 2)
		prefix := &dsdb.Result{Columns: all.Columns, Rows: all.Rows[:min(limited.limit, len(all.Rows))]}
		return []*dsdb.Result{run(t, o.btree, limited.sql()), prefix}
	}},
	{"count(*) of p plus count(*) of not p", "TestOracle", false, false, func(t *testing.T, o *oracle, _ *dsdb.DB, q oquery, _ *dsdb.Result) []*dsdb.Result {
		// The join predicates stay and the filters p partition what they
		// join: TPC-D data holds no NULLs.
		joins := slices.DeleteFunc(slices.Clone(q.where), func(c string) bool { return !joinPred.MatchString(c) })
		p := strings.Join(slices.DeleteFunc(slices.Clone(q.where), joinPred.MatchString), " and ")
		count := func(filter ...string) *dsdb.Result {
			return run(t, o.btree, oquery{items: []string{"count(*)"}, from: q.from, where: append(slices.Clone(joins), filter...), limit: -1}.sql())
		}
		all := count()
		n := count(p).Rows[0][0].I + count("not (" + p + ")").Rows[0][0].I
		return []*dsdb.Result{{Columns: all.Columns, Rows: [][]dsdb.Value{{dsdb.NewInt(n)}}}, all}
	}},
}

// check runs rows on q, with q's result on db as the reference,
// reports each disagreement and returns whether q returned rows.
func (o *oracle) check(t *testing.T, db *dsdb.DB, q oquery, rows []oracleRow) bool {
	ref := run(t, db, q.sql())
	for _, r := range rows {
		sides := r.run(t, o, db, q, ref)
		for i := 0; i < len(sides); i += 2 {
			if d := differ(sides[i], sides[i+1], r.loose); d != "" {
				t.Errorf("%s: %s\n  %s", r.name, q.sql(), d)
			}
		}
	}
	return len(ref.Rows) > 0
}

// differ says how a and b differ, or returns "" when they agree: byte
// for byte, or, if loose, with every Float datum within relTol.
func differ(a, b *dsdb.Result, loose bool) string {
	switch da, db := benchDigest(a), benchDigest(b); {
	case !slices.Equal(a.Columns, b.Columns) || da != db && (!loose || len(a.Rows) != len(b.Rows)):
		return fmt.Sprintf("%v %s and %v %s", a.Columns, da, b.Columns, db)
	case da == db:
		return ""
	}
	for i, row := range a.Rows {
		for j, x := range row {
			if y := b.Rows[i][j]; x != y && !(x.T == dsdb.Float && y.T == dsdb.Float && math.Abs(x.F-y.F) <= relTol*max(math.Abs(x.F), math.Abs(y.F))) {
				return fmt.Sprintf("row %d column %d: %v and %v", i, j, x, y)
			}
		}
	}
	return ""
}

// Each test runs the rows that name it; the five named for a test of
// their own took over that pair test's checks and kept its name.
func TestOracle(t *testing.T)                                { checkRows(t) }
func TestGroupByTwinAgrees(t *testing.T)                     { checkRows(t) }
func TestReusedPlanEqualsFresh(t *testing.T)                 { checkRows(t) }
func TestExecMatchesQuery(t *testing.T)                      { checkRows(t) }
func TestResultCacheServesRepeatsByteIdentical(t *testing.T) { checkRows(t) }
func TestStreamingMatchesSeedMaterialized(t *testing.T)      { checkRows(t) }

// checkRows runs the rows that name t over the TPC-D texts and
// generated queries, on both index kinds if they run per kind.
func checkRows(t *testing.T) {
	rows := slices.DeleteFunc(slices.Clone(oracleRows), func(r oracleRow) bool { return r.test != t.Name() })
	if len(rows) == 0 {
		t.Fatalf("no oracle row names %s", t.Name())
	}
	o := openOracle()
	if !rows[0].perKind {
		o.checkAll(t, o.btree, rows)
		return
	}
	t.Run("btree", func(t *testing.T) { o.checkAll(t, o.btree, rows) })
	t.Run("hash", func(t *testing.T) { o.checkAll(t, o.hash, rows) })
}

// checkAll runs rows with db as the reference over the TPC-D texts and
// generated queries.
func (o *oracle) checkAll(t *testing.T, db *dsdb.DB, rows []oracleRow) {
	for _, q := range tpcdQueries(t) {
		o.check(t, db, q, rows)
	}
	g, nonEmpty := gen{o, rand.New(rand.NewSource(7))}, 0
	for range oracleQueries {
		if o.check(t, db, g.query(), rows) {
			nonEmpty++
		}
	}
	if nonEmpty < oracleQueries/2 {
		t.Fatalf("only %d of %d generated queries returned rows: the generator tests too little", nonEmpty, oracleQueries)
	}
}

// FuzzOracle runs every oracle row on the query a seed generates, and
// the per-kind rows also on the hash database.
func FuzzOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		o := openOracle()
		q := gen{o, rand.New(rand.NewSource(seed))}.query()
		o.check(t, o.btree, q, oracleRows)
		o.check(t, o.hash, q, slices.DeleteFunc(slices.Clone(oracleRows), func(r oracleRow) bool { return !r.perKind }))
	})
}

// oracle holds the databases the rows run on, opened once per process.
// All hold TPC-D at oracleSF, seed 42; fresh and recovered also hold
// durableMutations, applied to fresh and replayed from the log into
// recovered.
type oracle struct {
	btree, hash, small, cached, fresh, recovered *dsdb.DB
	raw                                          *engine.DB     // loaded by tpcd.Load
	srv                                          *server.Server // serves btree
	client                                       *client.DB
	dir                                          string          // recovered's data directory
	ran                                          map[string]bool // db and text of each one-shot run of the reuse row
	tables                                       []string
	cols                                         map[string][]dsdb.Column // per table
	bounds                                       map[string][2]dsdb.Value // min and max per column
}

var oracleOnce sync.Once
var theOracle *oracle

// openOracle opens the oracle's databases on its first call; on a
// working host that cannot fail, so a failure panics.
func openOracle() *oracle {
	oracleOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dsdb-oracle-")
		must(err)
		o := &oracle{dir: dir, ran: map[string]bool{}, cols: map[string][]dsdb.Column{}, bounds: map[string][2]dsdb.Value{}, raw: engine.Open(2048)}
		var durable *dsdb.DB
		// One option per database; B-tree and seed 42 are the defaults.
		opts := []dsdb.Option{dsdb.WithIndexKind(dsdb.BTree), dsdb.WithIndexKind(dsdb.Hash),
			dsdb.WithBufferFrames(64), dsdb.WithResultCache(cacheBudget), dsdb.WithSeed(42), dsdb.WithDataDir(dir)}
		for i, db := range []**dsdb.DB{&o.btree, &o.hash, &o.small, &o.cached, &o.fresh, &durable} {
			*db, err = dsdb.Open(dsdb.WithTPCD(oracleSF), dsdb.WithSeed(42), opts[i])
			must(err)
		}
		for _, m := range durableMutations() {
			must(m(durable))
			must(m(o.fresh))
		}
		durable.Abandon()
		o.recovered, err = dsdb.Open(dsdb.WithDataDir(dir))
		must(err)
		must(tpcd.Load(o.raw, tpcd.Config{SF: oracleSF, Seed: 42, Indexes: dsdb.BTree}))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		must(err)
		o.srv = server.New(o.btree)
		go o.srv.Serve(ln)
		o.client, err = client.Dial(ln.Addr().String())
		must(err)
		for _, tb := range o.btree.Engine().Cat.Tables() {
			o.tables, o.cols[tb.Name] = append(o.tables, tb.Name), tb.Schema.Columns
			var items []string
			for _, c := range tb.Schema.Columns {
				items = append(items, "min("+c.Name+")", "max("+c.Name+")")
			}
			res, err := o.btree.Exec(context.Background(), "select "+strings.Join(items, ", ")+" from "+tb.Name)
			must(err)
			for i, c := range tb.Schema.Columns {
				o.bounds[c.Name] = [2]dsdb.Value{res.Rows[0][2*i], res.Rows[0][2*i+1]}
			}
		}
		theOracle = o
	})
	return theOracle
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// TestMain shuts the oracle's server down and removes its data
// directory once every test has run.
func TestMain(m *testing.M) {
	code := m.Run()
	if theOracle != nil {
		theOracle.srv.Close()
		os.RemoveAll(theOracle.dir)
	}
	os.Exit(code)
}

// run executes text on db and checks that it leaves no frame pinned.
func run(t *testing.T, db *dsdb.DB, text string) *dsdb.Result {
	res, err := db.Exec(context.Background(), text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	assertNoPins(t, db, text)
	return res
}

// stream reads text's rows one at a time through Query and checks
// that it leaves no frame pinned.
func stream(t *testing.T, db *dsdb.DB, text string) *dsdb.Result {
	res, err := materialize(db.Query(context.Background(), text))
	if err != nil {
		t.Fatalf("streamed %s: %v", text, err)
	}
	assertNoPins(t, db, "streamed "+text)
	return res
}

// runCached streams text from the cached database: a fill must miss,
// counting one miss, and a hit must count one hit and take the plan
// the fill left in the pool.
func (o *oracle) runCached(t *testing.T, text string, hit bool) *dsdb.Result {
	st, _ := o.cached.ResultCacheStats()
	reused := o.cached.PlanStats().Reused
	res, served := cacheHit(t, o.cached, text)
	assertNoPins(t, o.cached, "cached "+text)
	now, _ := o.cached.ResultCacheStats()
	_, uncached := o.btree.ResultCacheStats()
	got := fmt.Sprint(served, now.Hits-st.Hits, now.Misses-st.Misses, uncached)
	if want := map[bool]string{false: "false 0 1 false", true: "true 1 0 false"}[hit]; got != want {
		t.Errorf("cached %s: hit, hits, misses and a cache on the uncached database %q, want %q", text, got, want)
	}
	if n := o.cached.PlanStats().Reused - reused; hit && n != 1 {
		t.Errorf("cached %s: the hit reused %d plans, want the fill's", text, n)
	}
	return res
}

// columns lists the columns of tables.
func (o *oracle) columns(tables []string) (cols []dsdb.Column) {
	for _, tb := range tables {
		cols = append(cols, o.cols[tb]...)
	}
	return cols
}

var (
	tpcdClauses = regexp.MustCompile(`^select (.+?) from (.+?)(?: where (.+?))?(?: group by (.+?))?(?: order by (.+?))?(?: limit (\d+))?$`)
	joinPred    = regexp.MustCompile(`^([a-z_]+) = ([a-z_]+)$`)
	aggItem     = regexp.MustCompile(`^(count|sum|avg|min|max)\(`)
	between     = regexp.MustCompile(`(\w+) between ('[^']*'|-?[\w.]+) and ('[^']*'|-?[\w.]+)`)
	comparison  = regexp.MustCompile(`('[^']*'|-?[\w.]+) (<=|>=|<>|<|>|=) ('[^']*'|-?[\w.]+)`)
	negated     = map[string]string{"<": ">=", ">=": "<", ">": "<=", "<=": ">", "=": "<>", "<>": "="}
)

// tpcdQueries returns the TPC-D texts in clauses; each must render
// back to its text, whitespace aside.
func tpcdQueries(t *testing.T) []oquery {
	var qs []oquery
	for _, n := range dsdb.TPCDQueryNumbers() {
		text, _ := dsdb.TPCDQuery(n)
		text = strings.Join(strings.Fields(text), " ")
		// A text the pattern misses has empty clauses and fails below.
		m := append(tpcdClauses.FindStringSubmatch(text), make([]string, 7)...)
		list := func(i int) []string { return strings.Split(m[i], ", ") } // [""] for a missing clause
		q := oquery{items: list(1), from: list(2), group: list(4), order: list(5), limit: -1, seed: int64(n)}
		for _, c := range strings.Split(between.ReplaceAllString(m[3], "$1 between $2 AND $3"), " and ") {
			q.where = append(q.where, strings.Replace(c, " AND ", " and ", 1)) // a between's own and
		}
		fmt.Sscan(m[6], &q.limit) // leaves -1 when there is no LIMIT
		if q.sql() != text {
			t.Fatalf("Q%d renders as %q", n, q.sql())
		}
		qs = append(qs, q)
	}
	return qs
}

// unindexable respells every comparison of a column with a literal in
// the query text as the negation of its complement, which no index
// serves.
func unindexable(text string) string {
	text = between.ReplaceAllString(text, "($1 >= $2 and $1 <= $3)")
	return comparison.ReplaceAllStringFunc(text, func(s string) string {
		m := comparison.FindStringSubmatch(s)
		if isLiteral(m[1]) == isLiteral(m[3]) {
			return s // two columns: a join, or a filter within a row
		}
		return "not (" + m[1] + " " + negated[m[2]] + " " + m[3] + ")"
	})
}

func isLiteral(s string) bool { return strings.ContainsRune("'-0123456789", rune(s[0])) }

func shuffled[T any](rng *rand.Rand, s []T) []T {
	s = slices.Clone(s)
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

// fkJoins are the TPC-D foreign keys a generated query joins on.
var fkJoins = [][4]string{
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

// int64Limits are the extreme integer literals the grammar can spell.
var int64Limits = []string{"9223372036854775807", "-9223372036854775807"}

// gen draws queries over the TPC-D schema: one table, or that table
// joined with up to two parents by foreign key (so no join fans out),
// one or two filters, a plain, grouped or single-row
// aggregate select list ordered by every output column (group columns
// first), and now and then a LIMIT.
type gen struct {
	o   *oracle
	rng *rand.Rand
}

func (g gen) query() oquery {
	q := oquery{from: []string{g.o.tables[g.rng.Intn(len(g.o.tables))]}, limit: -1, seed: g.rng.Int63()}
	joins := g.rng.Intn(3)
	for _, i := range g.rng.Perm(len(fkJoins)) {
		if j := fkJoins[i]; len(q.where) < joins && slices.Contains(q.from, j[0]) && !slices.Contains(q.from, j[2]) {
			q.from = append(q.from, j[2])
			q.where = append(q.where, j[1]+" = "+j[3])
		}
	}
	cols := g.o.columns(q.from)
	for range 1 + g.rng.Intn(2) {
		q.where = append(q.where, g.pred(cols))
	}
	perm, shape := g.rng.Perm(len(cols)), g.rng.Intn(3) // plain, grouped, one aggregate row
	if shape == 1 {
		for _, i := range perm[:1+g.rng.Intn(2)] {
			q.group = append(q.group, cols[i].Name)
		}
	}
	q.items = slices.Clone(q.group)
	for k := range 1 + g.rng.Intn(3) {
		item := cols[perm[(2+k)%len(perm)]].Name
		if shape > 0 {
			item = fmt.Sprintf("%s as a%d", g.aggregate(cols[perm[(2+k)%len(perm)]]), k)
		}
		q.items = append(q.items, item)
	}
	for _, it := range q.items {
		q.order = append(q.order, it[strings.LastIndex(it, " ")+1:]+[]string{"", "", " desc"}[g.rng.Intn(3)])
	}
	q.items = shuffled(g.rng, q.items)
	if g.rng.Intn(4) == 0 {
		q.limit = g.rng.Intn(20)
	}
	return q
}

// aggregate renders count, sum, avg, min or max over c, or count(*);
// sum and avg only over numbers.
func (g gen) aggregate(c dsdb.Column) string {
	fn := []string{"count", "sum", "avg", "min", "max", "count(*)"}[g.rng.Intn(6)]
	if fn == "count(*)" {
		return fn
	}
	if (fn == "sum" || fn == "avg") && (c.Type == dsdb.Str || c.Type == dsdb.Date) {
		fn = "max"
	}
	return fn + "(" + c.Name + ")"
}

// pred draws one filter over cols, now and then negated or or-ed with
// a second.
func (g gen) pred(cols []dsdb.Column) string {
	switch g.rng.Intn(6) {
	case 0:
		return "not (" + g.atom(cols) + ")"
	case 1:
		return "(" + g.atom(cols) + " or " + g.atom(cols) + ")"
	}
	return g.atom(cols)
}

// atom draws a range, a bound, an equality or an in list over one
// column of cols, a bound at an int64 limit over an integer column, or
// a like over a string column.
func (g gen) atom(cols []dsdb.Column) string {
	c := cols[g.rng.Intn(len(cols))]
	f := g.rng.Float64() * 0.8
	lo, hi := g.lit(c, f), g.lit(c, f+0.05+g.rng.Float64()*0.5)
	op, limit := []string{"<", "<=", ">", ">="}[g.rng.Intn(4)], int64Limits[g.rng.Intn(2)]
	switch k, side := g.rng.Intn(6), g.rng.Intn(2); {
	case k == 0:
		return c.Name + " between " + lo + " and " + hi
	case k == 1:
		return []string{c.Name + " " + op + " " + lo, hi + " " + op + " " + c.Name}[side]
	case k == 2:
		return c.Name + " = " + lo
	case k == 3:
		return c.Name + " in (" + lo + ", " + hi + ", " + g.lit(c, g.rng.Float64()) + ")"
	case k == 4 && c.Type == dsdb.Int:
		return []string{c.Name + " " + op + " " + limit, limit + " " + op + " " + c.Name}[side]
	case k == 4 && c.Type == dsdb.Str:
		s := strings.Trim(lo, "'")
		i := g.rng.Intn(len(s) + 1)
		return c.Name + " like '" + []string{s[:i] + "%", "%" + s[i:min(i+3, len(s))] + "%"}[side] + "'"
	}
	return c.Name + " <> " + lo
}

// lit renders the value at fraction f of c's range (for a string
// column, its minimum or maximum) and now and then, for an integer
// column, an int64 limit.
func (g gen) lit(c dsdb.Column, f float64) string {
	b := g.o.bounds[c.Name]
	switch at := (dsdb.Value{T: c.Type, I: b[0].I + int64(f*float64(b[1].I-b[0].I))}); {
	case c.Type == dsdb.Int && g.rng.Intn(6) == 0:
		return int64Limits[g.rng.Intn(2)]
	case c.Type == dsdb.Int:
		return at.String()
	case c.Type == dsdb.Date:
		return "'" + at.String() + "'"
	case c.Type == dsdb.Float:
		return fmt.Sprintf("%.2f", b[0].F+f*(b[1].F-b[0].F))
	}
	return "'" + b[min(int(f*2), 1)].S + "'"
}
