package executor

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/db/access"
	"repro/internal/db/buffer"
	"repro/internal/db/catalog"
	"repro/internal/db/probe"
	"repro/internal/db/storage"
	"repro/internal/db/value"
)

// testDB: table t(a int, b int, s varchar) with n rows
// (i, i%7, name), plus a btree on a and a hash index on b.
type testDB struct {
	heap  *access.Heap
	btree *access.BTree
	hash  *access.HashIndex
	sch   *catalog.Schema
	n     int
}

func newTestDB(t *testing.T, n int) *testDB {
	t.Helper()
	st := storage.NewStore(3)
	m := buffer.New(st, 256)
	h := access.NewHeap(m, 0)
	bt, err := access.CreateBTree(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	hx, err := access.CreateHashIndex(m, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < n; i++ {
		row := Tuple{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 7)),
			value.NewStr(names[i%len(names)]),
		}
		tid, err := h.Insert(row, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := bt.Insert(int64(i), tid); err != nil {
			t.Fatal(err)
		}
		if err := hx.Insert(int64(i%7), tid); err != nil {
			t.Fatal(err)
		}
	}
	sch := catalog.NewSchema(
		catalog.Column{Name: "a", Type: value.Int},
		catalog.Column{Name: "b", Type: value.Int},
		catalog.Column{Name: "s", Type: value.Str},
	)
	return &testDB{heap: h, btree: bt, hash: hx, sch: sch, n: n}
}

// drain runs a plan to completion, keeping a copy of every tuple: the
// one Next returns is the operator's slot. Tests that collect rows go
// through here.
func drain(t *testing.T, n Node) []Tuple {
	t.Helper()
	if err := n.Open(); err != nil {
		t.Fatal(err)
	}
	var (
		out  []Tuple
		slab Slab
	)
	for {
		tup, ok, err := n.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, slab.Copy(tup))
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func intvar(i int) *Var { return &Var{Idx: i, T: value.Int} }
func intconst(v int64) *Const {
	return &Const{V: value.NewInt(v)}
}

func TestSeqScanAll(t *testing.T) {
	db := newTestDB(t, 100)
	scan := &SeqScan{C: NewCtx(nil), Heap: db.heap, Out: db.sch}
	rows := drain(t, scan)
	if len(rows) != 100 {
		t.Fatalf("got %d rows, want 100", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d out of order: %v", i, r)
		}
	}
}

func TestSeqScanWithQual(t *testing.T) {
	db := newTestDB(t, 100)
	qual := &BinOp{Op: OpLT, L: intvar(0), R: intconst(10)}
	scan := &SeqScan{C: NewCtx(nil), Heap: db.heap, Out: db.sch, Quals: []Expr{qual}}
	rows := drain(t, scan)
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
}

func TestIndexScanBTreeRange(t *testing.T) {
	db := newTestDB(t, 200)
	scan := &IndexScan{
		C: NewCtx(nil), Heap: db.heap, Out: db.sch,
		BTree: db.btree, Lo: 50, Hi: 59, HasLo: true, HasHi: true,
	}
	rows := drain(t, scan)
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(50+i) {
			t.Fatalf("row %d = %v, want a=%d", i, r, 50+i)
		}
	}
}

func TestIndexScanHashEquality(t *testing.T) {
	db := newTestDB(t, 140) // 140/7 = 20 rows per b value
	scan := &IndexScan{
		C: NewCtx(nil), Heap: db.heap, Out: db.sch,
		HashIdx: db.hash, EqKey: 3,
	}
	rows := drain(t, scan)
	if len(rows) != 20 {
		t.Fatalf("got %d rows, want 20", len(rows))
	}
	for _, r := range rows {
		if r[1].I != 3 {
			t.Fatalf("hash scan returned b=%d", r[1].I)
		}
	}
}

func TestFilterAndProject(t *testing.T) {
	db := newTestDB(t, 50)
	scan := &SeqScan{C: NewCtx(nil), Heap: db.heap, Out: db.sch}
	filt := &Filter{C: NewCtx(nil), Child: scan,
		Quals: []Expr{&BinOp{Op: OpGE, L: intvar(0), R: intconst(45)}}}
	proj := &ProjectNode{C: NewCtx(nil), Child: filt,
		Exprs: []Expr{
			&BinOp{Op: OpMul, L: intvar(0), R: intconst(2)},
			&Var{Idx: 2, T: value.Str},
		},
		Names: []string{"a2", "s"}}
	rows := drain(t, proj)
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	if rows[0][0].I != 90 {
		t.Fatalf("projection wrong: %v", rows[0])
	}
	if proj.Schema().Columns[0].Name != "a2" {
		t.Fatal("projection schema name wrong")
	}
}

func TestHashJoin(t *testing.T) {
	db := newTestDB(t, 70)
	// Join t with itself on a=b: for each outer row with b=k, matches
	// inner rows with a=k -> exactly one inner (a is unique).
	outer := &SeqScan{C: NewCtx(nil), Heap: db.heap, Out: db.sch}
	inner := &SeqScan{C: NewCtx(nil), Heap: db.heap, Out: db.sch}
	join := &HashJoin{C: NewCtx(nil), Outer: outer, Inner: inner,
		OuterKey: 1, InnerKey: 0}
	rows := drain(t, join)
	if len(rows) != 70 {
		t.Fatalf("got %d join rows, want 70", len(rows))
	}
	for _, r := range rows {
		if r[1].I != r[3].I {
			t.Fatalf("join key mismatch: %v", r)
		}
	}
	if join.Schema().Len() != 6 {
		t.Fatalf("join schema has %d cols, want 6", join.Schema().Len())
	}
}

func TestNestLoopMatchesHashJoin(t *testing.T) {
	db := newTestDB(t, 30)
	mk := func() (Node, Node) {
		return &SeqScan{C: NewCtx(nil), Heap: db.heap, Out: db.sch},
			&SeqScan{C: NewCtx(nil), Heap: db.heap, Out: db.sch}
	}
	o1, i1 := mk()
	nl := &NestLoop{C: NewCtx(nil), Outer: o1, Inner: i1,
		Quals: []Expr{&BinOp{Op: OpEQ, L: intvar(1), R: &Var{Idx: 3, T: value.Int}}}}
	o2, i2 := mk()
	hj := &HashJoin{C: NewCtx(nil), Outer: o2, Inner: i2, OuterKey: 1, InnerKey: 0}
	nlRows := drain(t, nl)
	hjRows := drain(t, hj)
	if len(nlRows) != len(hjRows) {
		t.Fatalf("NL=%d HJ=%d rows", len(nlRows), len(hjRows))
	}
	key := func(r Tuple) [2]int64 { return [2]int64{r[0].I, r[3].I} }
	seen := map[[2]int64]int{}
	for _, r := range nlRows {
		seen[key(r)]++
	}
	for _, r := range hjRows {
		seen[key(r)]--
	}
	for k, v := range seen {
		if v != 0 {
			t.Fatalf("row multiset differs at %v", k)
		}
	}
}

func TestIndexLoopJoin(t *testing.T) {
	db := newTestDB(t, 60)
	outer := &SeqScan{C: NewCtx(nil), Heap: db.heap, Out: db.sch,
		Quals: []Expr{&BinOp{Op: OpLT, L: intvar(0), R: intconst(5)}}}
	join := &IndexLoopJoin{C: NewCtx(nil), Outer: outer, OuterKey: 1,
		Heap: db.heap, BTree: db.btree, InnerSch: db.sch}
	rows := drain(t, join)
	// Outer rows a=0..4 with b = a%7 = a; each probes btree on a=b:
	// exactly one inner match each.
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if r[1].I != r[3].I {
			t.Fatalf("index join key mismatch: %v", r)
		}
	}
}

func TestMergeJoinWithDuplicates(t *testing.T) {
	c := NewCtx(nil)
	sch := catalog.NewSchema(catalog.Column{Name: "k", Type: value.Int})
	mkRows := func(keys ...int64) []Tuple {
		out := make([]Tuple, len(keys))
		for i, k := range keys {
			out[i] = Tuple{value.NewInt(k)}
		}
		return out
	}
	outer := &ValuesScan{C: c, Out: sch, Rows: mkRows(1, 2, 2, 3, 5)}
	inner := &ValuesScan{C: c, Out: sch, Rows: mkRows(2, 2, 3, 4)}
	join := &MergeJoin{C: c, Outer: outer, Inner: inner, OuterKey: 0, InnerKey: 0}
	rows := drain(t, join)
	// Matches: outer 2 x inner {2,2} twice (2 outer dups) = 4, outer 3 x inner {3} = 1.
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	counts := map[int64]int{}
	for _, r := range rows {
		if r[0].I != r[1].I {
			t.Fatalf("merge join mismatch: %v", r)
		}
		counts[r[0].I]++
	}
	if counts[2] != 4 || counts[3] != 1 {
		t.Fatalf("duplicate handling wrong: %v", counts)
	}
}

// Property: MergeJoin over sorted random multisets equals the naive
// cross-filter join.
func TestMergeJoinMatchesNaive(t *testing.T) {
	c := NewCtx(nil)
	sch := catalog.NewSchema(catalog.Column{Name: "k", Type: value.Int})
	f := func(a, b []uint8) bool {
		av := append([]uint8(nil), a...)
		bv := append([]uint8(nil), b...)
		sort.Slice(av, func(i, j int) bool { return av[i] < av[j] })
		sort.Slice(bv, func(i, j int) bool { return bv[i] < bv[j] })
		mk := func(ks []uint8) []Tuple {
			out := make([]Tuple, len(ks))
			for i, k := range ks {
				out[i] = Tuple{value.NewInt(int64(k % 8))}
			}
			return out
		}
		// Keys mod 8 after sorting breaks order; re-sort the tuples.
		ar, br := mk(av), mk(bv)
		sort.Slice(ar, func(i, j int) bool { return ar[i][0].I < ar[j][0].I })
		sort.Slice(br, func(i, j int) bool { return br[i][0].I < br[j][0].I })
		join := &MergeJoin{C: c,
			Outer:    &ValuesScan{C: c, Out: sch, Rows: ar},
			Inner:    &ValuesScan{C: c, Out: sch, Rows: br},
			OuterKey: 0, InnerKey: 0}
		if err := join.Open(); err != nil {
			return false
		}
		got := 0
		for {
			_, ok, err := join.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			got++
		}
		want := 0
		for _, x := range ar {
			for _, y := range br {
				if x[0].I == y[0].I {
					want++
				}
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A sort keeps every column of its child's rows, or with Cols only
// those, and its keys and schema index the row it keeps.
func TestSortOperator(t *testing.T) {
	db := newTestDB(t, 97)
	for _, narrow := range []bool{false, true} {
		scan := &SeqScan{C: NewCtx(nil), Heap: db.heap, Out: db.sch}
		srt := &Sort{C: NewCtx(nil), Child: scan,
			Keys: []SortKey{{Col: 1}, {Col: 0, Desc: true}}}
		if narrow {
			srt.Out, srt.Cols = numSch, numCols // (a, b) of (a, b, s)
		}
		rows := drain(t, srt)
		if len(rows) != 97 {
			t.Fatalf("narrow=%v: got %d rows", narrow, len(rows))
		}
		for i, r := range rows {
			if len(r) != srt.Schema().Len() {
				t.Fatalf("narrow=%v: row %d = %v, schema %d columns", narrow, i, r, srt.Schema().Len())
			}
		}
		for i := 1; i < len(rows); i++ {
			a, b := rows[i-1], rows[i]
			if a[1].I > b[1].I {
				t.Fatal("primary key not ascending")
			}
			if a[1].I == b[1].I && a[0].I < b[0].I {
				t.Fatal("secondary key not descending")
			}
		}
	}
}

// Rows hands back every copied row in copy order, across chunks, in
// one exactly-sized index.
func TestSlabRows(t *testing.T) {
	for _, n := range []int{0, 1, 4, 5, 64, 1000} {
		var s Slab
		for i := 0; i < n; i++ {
			s.CopyCols(Tuple{value.NewInt(int64(i)), value.NewInt(-1), value.NewStr(strconv.Itoa(i))}, []int{0, 2})
		}
		rows := s.Rows()
		if len(rows) != n || cap(rows) != n {
			t.Fatalf("n=%d: len %d cap %d", n, len(rows), cap(rows))
		}
		for i, r := range rows {
			if len(r) != 2 || cap(r) != 2 || r[0].I != int64(i) || r[1].S != strconv.Itoa(i) {
				t.Fatalf("n=%d: row %d = %v (cap %d)", n, i, r, cap(r))
			}
		}
	}
	var zero Slab
	for i := 0; i < 3; i++ {
		zero.Copy(Tuple{})
	}
	if rows := zero.Rows(); len(rows) != 3 || len(rows[2]) != 0 {
		t.Fatalf("zero-width rows = %v", rows)
	}
}

func TestAggregates(t *testing.T) {
	db := newTestDB(t, 10) // a = 0..9
	scan := &SeqScan{C: NewCtx(nil), Heap: db.heap, Out: db.sch}
	agg := &Agg{C: NewCtx(nil), Child: scan, Specs: []AggSpec{
		{Func: AggCount},
		{Func: AggSum, Arg: intvar(0)},
		{Func: AggAvg, Arg: intvar(0)},
		{Func: AggMin, Arg: intvar(0)},
		{Func: AggMax, Arg: intvar(0)},
	}}
	rows := drain(t, agg)
	if len(rows) != 1 {
		t.Fatalf("agg returned %d rows", len(rows))
	}
	r := rows[0]
	if r[0].I != 10 || r[1].I != 45 || r[2].F != 4.5 || r[3].I != 0 || r[4].I != 9 {
		t.Fatalf("agg results wrong: %v", r)
	}
}

func TestGroupAgg(t *testing.T) {
	db := newTestDB(t, 70) // b = a%7: 10 rows per group
	scan := &SeqScan{C: NewCtx(nil), Heap: db.heap, Out: db.sch}
	srt := &Sort{C: NewCtx(nil), Child: scan, Keys: []SortKey{{Col: 1}}}
	grp := &GroupAgg{C: NewCtx(nil), Child: srt, GroupBy: []int{1},
		Specs: []AggSpec{{Func: AggCount}, {Func: AggSum, Arg: intvar(0)}}}
	rows := drain(t, grp)
	if len(rows) != 7 {
		t.Fatalf("got %d groups, want 7", len(rows))
	}
	for _, r := range rows {
		if r[1].I != 10 {
			t.Fatalf("group %d has count %d, want 10", r[0].I, r[1].I)
		}
		// sum of {b, b+7, ..., b+63} = 10b + 7*45... a%7==b values are
		// b, b+7, ... b+63: sum = 10b + 7*(0+1+..+9) = 10b + 315.
		if r[2].I != 10*r[0].I+315 {
			t.Fatalf("group %d sum = %d", r[0].I, r[2].I)
		}
	}
}

// openCounter counts the Opens of the node it wraps.
type openCounter struct {
	Node
	opens int
}

func (o *openCounter) Open() error { o.opens++; return o.Node.Open() }

// TestMaterialRescans checks that a nested loop's rescans replay the
// Material's store without running its child again, while each new
// execution of the plan runs the child once.
func TestMaterialRescans(t *testing.T) {
	c := NewCtx(nil)
	sch := catalog.NewSchema(catalog.Column{Name: "k", Type: value.Int})
	rows := []Tuple{{value.NewInt(1)}, {value.NewInt(2)}}
	child := &openCounter{Node: &ValuesScan{C: c, Out: sch, Rows: rows}}
	outer := &ValuesScan{C: c, Out: sch, Rows: []Tuple{{value.NewInt(7)}, {value.NewInt(8)}, {value.NewInt(9)}}}
	plan := &NestLoop{C: c, Outer: outer, Inner: &Material{C: c, Child: child}}
	for run := 1; run <= 2; run++ {
		if got := drain(t, plan); len(got) != 6 {
			t.Fatalf("run %d: %d rows, want 3 outer x 2 inner", run, len(got))
		}
		if child.opens != run {
			t.Fatalf("run %d: child opened %d times, want once per execution", run, child.opens)
		}
	}
}

// TestMaterialReloadsOnReexecution re-opens a plan holding a Material
// after the Material's child data changed, as a reused or prepared plan
// is: the rows and the probe sequence must be those of a fresh plan
// over the new data, not a replay of the previous execution's store.
func TestMaterialReloadsOnReexecution(t *testing.T) {
	var events []probe.ID
	c := NewCtx(funcTracer(func(id probe.ID) { events = append(events, id) }))
	sch := catalog.NewSchema(catalog.Column{Name: "k", Type: value.Int})
	ints := func(vs ...int64) []Tuple {
		var out []Tuple
		for _, v := range vs {
			out = append(out, Tuple{value.NewInt(v)})
		}
		return out
	}
	build := func(data []Tuple) (Node, *ValuesScan) {
		child := &ValuesScan{C: c, Out: sch, Rows: data}
		outer := &ValuesScan{C: c, Out: sch, Rows: ints(10, 20)}
		return &NestLoop{C: c, Outer: outer, Inner: &Material{C: c, Child: child}}, child
	}
	plan, child := build(ints(1, 2))
	drain(t, plan)
	child.Rows = ints(3, 4, 5)
	events = nil
	got := drain(t, plan)
	gotEvents := events

	fresh, _ := build(ints(3, 4, 5))
	events = nil
	want := drain(t, fresh)
	if len(got) != len(want) {
		t.Fatalf("re-executed plan returned %d rows, a fresh plan %d", len(got), len(want))
	}
	for i := range want {
		if got[i][0].I != want[i][0].I || got[i][1].I != want[i][1].I {
			t.Fatalf("row %d: re-executed %v, fresh %v", i, got[i], want[i])
		}
	}
	if !slices.Equal(gotEvents, events) {
		t.Fatalf("re-executed plan emitted %d probes, a fresh plan %d: the probe sequences differ", len(gotEvents), len(events))
	}
}

func TestLimit(t *testing.T) {
	db := newTestDB(t, 50)
	scan := &SeqScan{C: NewCtx(nil), Heap: db.heap, Out: db.sch}
	lim := &Limit{C: NewCtx(nil), Child: scan, N: 7}
	rows := drain(t, lim)
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
}

func TestExprEvaluation(t *testing.T) {
	c := NewCtx(nil)
	row := Tuple{value.NewInt(6), value.NewStr("BRAZIL"), value.NewFloat(0.5)}
	cases := []struct {
		e    Expr
		want value.Value
	}{
		{&BinOp{Op: OpAdd, L: intvar(0), R: intconst(4)}, value.NewInt(10)},
		{&BinOp{Op: OpMul, L: intvar(0), R: &Var{Idx: 2, T: value.Float}}, value.NewFloat(3)},
		{&BinOp{Op: OpDiv, L: intvar(0), R: intconst(4)}, value.NewFloat(1.5)},
		{&BinOp{Op: OpEQ, L: &Var{Idx: 1, T: value.Str}, R: &Const{V: value.NewStr("BRAZIL")}}, value.NewBool(true)},
		{&AndExpr{Args: []Expr{
			&BinOp{Op: OpGT, L: intvar(0), R: intconst(5)},
			&BinOp{Op: OpLT, L: intvar(0), R: intconst(7)},
		}}, value.NewBool(true)},
		{&OrExpr{Args: []Expr{
			&BinOp{Op: OpGT, L: intvar(0), R: intconst(100)},
			&BinOp{Op: OpLT, L: intvar(0), R: intconst(7)},
		}}, value.NewBool(true)},
		{&NotExpr{Arg: &BinOp{Op: OpGT, L: intvar(0), R: intconst(100)}}, value.NewBool(true)},
		{NewLike(&Var{Idx: 1, T: value.Str}, "BRA%", false), value.NewBool(true)},
		{NewLike(&Var{Idx: 1, T: value.Str}, "%ZIL", false), value.NewBool(true)},
		{NewLike(&Var{Idx: 1, T: value.Str}, "%RAZ%", false), value.NewBool(true)},
		{NewLike(&Var{Idx: 1, T: value.Str}, "%USA%", false), value.NewBool(false)},
		{&InExpr{Arg: intvar(0), List: []value.Value{value.NewInt(3), value.NewInt(6)}}, value.NewBool(true)},
		{&InExpr{Arg: intvar(0), List: []value.Value{value.NewInt(3)}}, value.NewBool(false)},
	}
	for i, tc := range cases {
		got := tc.e.Eval(c, row)
		if got.T != tc.want.T || value.Compare(got, tc.want) != 0 {
			t.Errorf("case %d (%s): got %v, want %v", i, tc.e, got, tc.want)
		}
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "hel%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "h%o", true},
		{"hello", "h%x%o", false},
		{"special requests", "%special%requests%", true},
		{"", "%", true},
		{"abc", "", false},
	}
	for _, tc := range cases {
		if got := matchFrags(tc.s, strings.Split(tc.p, "%")); got != tc.want {
			t.Errorf("LIKE %q on %q = %v", tc.p, tc.s, got)
		}
	}
}

func TestNullComparisonsAreFalse(t *testing.T) {
	c := NewCtx(nil)
	row := Tuple{value.NewNull()}
	e := &BinOp{Op: OpEQ, L: intvar(0), R: intconst(0)}
	if e.Eval(c, row).Bool() {
		t.Fatal("NULL = 0 must be false")
	}
}

// TestSeqScanReopen re-runs one node instance, as a prepared
// statement would: Open must reset cleanly each time.
func TestSeqScanReopen(t *testing.T) {
	db := newTestDB(t, 200)
	scan := &SeqScan{C: NewCtx(nil), Heap: db.heap, Out: db.sch}
	first := drain(t, scan)
	second := drain(t, scan)
	if len(first) != 200 || len(second) != 200 {
		t.Fatalf("reopen: got %d then %d rows, want 200 both times", len(first), len(second))
	}
}

// TestSeqScanEmptyHeap must terminate immediately.
func TestSeqScanEmptyHeap(t *testing.T) {
	db := newTestDB(t, 0)
	if rows := drain(t, &SeqScan{C: NewCtx(nil), Heap: db.heap, Out: db.sch}); len(rows) != 0 {
		t.Fatalf("empty heap yielded %d rows", len(rows))
	}
}
