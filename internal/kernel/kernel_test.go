package kernel

import (
	"slices"
	"testing"

	"repro/internal/db/access"
	"repro/internal/db/buffer"
	"repro/internal/db/catalog"
	"repro/internal/db/executor"
	"repro/internal/db/probe"
	"repro/internal/db/storage"
	"repro/internal/db/value"
	"repro/internal/program"
)

func TestImageBuilds(t *testing.T) {
	img := New(DefaultConfig())
	if err := img.Prog.Validate(); err != nil {
		t.Fatalf("program invalid: %v", err)
	}
	t.Logf("image: %d procs, %d blocks, %d instrs",
		img.Prog.NumProcs(), img.Prog.NumBlocks(), img.Prog.NumInstructions())
}

func TestEveryProbeHasAPath(t *testing.T) {
	img := New(Config{ColdProcs: 5, Seed: 1})
	for id := probe.ID(0); id < probe.NumProbes; id++ {
		if len(img.Path(id)) == 0 && id != probe.BufTableLookup && id != probe.HeapDeform && id != probe.HashFunc {
			t.Errorf("probe %d has no path", id)
		}
	}
}

// TestFastSessionRecordsTheSameTrace: a non-validating session records
// each probe's path with one fixed-size store and its precomputed
// instruction count; the trace must be the one a validating session
// records block by block.
func TestFastSessionRecordsTheSameTrace(t *testing.T) {
	img := New(Config{ColdProcs: 5, Seed: 1})
	fast, checked := img.NewSession(false), img.NewSession(true)
	for id := probe.ID(0); id < probe.NumProbes; id++ {
		fast.Emit(id)
		checked.Emit(id)
	}
	got, want := fast.Trace(), checked.Trace()
	if got.Instrs != want.Instrs || !slices.Equal(got.Blocks, want.Blocks) {
		t.Fatalf("non-validating session: %d events / %d instrs, validating: %d / %d (or contents differ)",
			got.Len(), got.Instrs, want.Len(), want.Instrs)
	}
}

// Every probe path must be internally consistent: consecutive blocks
// within one path must form legal static transitions (call edges jump
// to callee entries, which single paths never do, so within a path all
// transitions are fall-through/branch edges).
func TestProbePathsAreStaticChains(t *testing.T) {
	img := New(Config{ColdProcs: 5, Seed: 1})
	for id := probe.ID(0); id < probe.NumProbes; id++ {
		path := img.Path(id)
		for i := 1; i < len(path); i++ {
			if !img.Prog.ValidEdge(path[i-1], path[i]) {
				t.Errorf("probe %d: illegal edge %s -> %s", id,
					img.Prog.Block(path[i-1]).Name, img.Prog.Block(path[i]).Name)
			}
		}
	}
}

func TestOpsSeedNamesExist(t *testing.T) {
	img := New(Config{ColdProcs: 5, Seed: 1})
	for _, name := range OpsSeedNames {
		if _, ok := img.Prog.ProcByName(name); !ok {
			t.Errorf("ops seed %q not in image", name)
		}
	}
}

func TestColdCodeIsCold(t *testing.T) {
	img := New(DefaultConfig())
	cold := 0
	for i := range img.Prog.Procs {
		if img.Prog.Procs[i].Cold {
			cold++
		}
	}
	if cold != DefaultConfig().ColdProcs {
		t.Fatalf("cold procs = %d, want %d", cold, DefaultConfig().ColdProcs)
	}
}

func TestColdCodeDeterministic(t *testing.T) {
	a := New(Config{ColdProcs: 50, Seed: 7})
	b := New(Config{ColdProcs: 50, Seed: 7})
	if a.Prog.NumBlocks() != b.Prog.NumBlocks() ||
		a.Prog.NumInstructions() != b.Prog.NumInstructions() {
		t.Fatal("cold generation not deterministic")
	}
	for i := 0; i < a.Prog.NumBlocks(); i++ {
		ba, bb := a.Prog.Block(program.BlockID(i)), b.Prog.Block(program.BlockID(i))
		if ba.Name != bb.Name || ba.Size != bb.Size || ba.Kind != bb.Kind {
			t.Fatalf("block %d differs between identical seeds", i)
		}
	}
}

// buildEnv creates a small table with btree and hash indices and an
// image session; used to drive every operator shape under validation.
type env struct {
	img   *Image
	ses   *Session
	ctx   *executor.Ctx
	heap  *access.Heap
	btree *access.BTree
	hash  *access.HashIndex
	sch   *catalog.Schema
}

func newEnv(t *testing.T, rows int) *env {
	t.Helper()
	img := New(Config{ColdProcs: 10, Seed: 3})
	ses := img.NewSession(true)
	st := storage.NewStore(3)
	m := buffer.New(st, 64)
	heap := access.NewHeap(m, 0)
	bt, err := access.CreateBTree(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	hx, err := access.CreateHashIndex(m, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		row := executor.Tuple{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 5)),
			value.NewFloat(float64(i) * 1.5),
		}
		tid, err := heap.Insert(row, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := bt.Insert(int64(i), tid); err != nil {
			t.Fatal(err)
		}
		if err := hx.Insert(int64(i%5), tid); err != nil {
			t.Fatal(err)
		}
	}
	sch := catalog.NewSchema(
		catalog.Column{Name: "a", Type: value.Int},
		catalog.Column{Name: "b", Type: value.Int},
		catalog.Column{Name: "f", Type: value.Float},
	)
	return &env{img: img, ses: ses, ctx: executor.NewCtx(ses),
		heap: heap, btree: bt, hash: hx, sch: sch}
}

func (e *env) drain(t *testing.T, n executor.Node) int {
	t.Helper()
	if err := n.Open(); err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		_, ok, err := n.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	return count
}

func intvar(i int) executor.Expr {
	return &executor.Var{Idx: i, T: value.Int}
}
func intconst(v int64) executor.Expr {
	return &executor.Const{V: value.NewInt(v)}
}

// TestAllQueryShapesValidate runs every operator shape under a
// validating session: any probe-protocol violation (illegal edge,
// unbalanced call/return) fails the test. This is the master check
// that the engine instrumentation and the kernel CFGs agree.
func TestAllQueryShapesValidate(t *testing.T) {
	e := newEnv(t, 60)
	c := e.ctx

	seq := func(quals ...executor.Expr) executor.Node {
		return &executor.SeqScan{C: c, Heap: e.heap, Out: e.sch, Quals: quals}
	}

	shapes := map[string]func() executor.Node{
		"seqscan": func() executor.Node { return seq() },
		"seqscan+qual": func() executor.Node {
			return seq(&executor.BinOp{Op: executor.OpLT, L: intvar(0), R: intconst(10)})
		},
		"indexscan-btree": func() executor.Node {
			return &executor.IndexScan{C: c, Heap: e.heap, Out: e.sch,
				BTree: e.btree, Lo: 10, Hi: 30, HasLo: true, HasHi: true}
		},
		"indexscan-btree+qual": func() executor.Node {
			return &executor.IndexScan{C: c, Heap: e.heap, Out: e.sch,
				BTree: e.btree, Lo: 10, Hi: 30, HasLo: true, HasHi: true,
				Quals: []executor.Expr{&executor.BinOp{Op: executor.OpEQ, L: intvar(1), R: intconst(2)}}}
		},
		"indexscan-hash": func() executor.Node {
			return &executor.IndexScan{C: c, Heap: e.heap, Out: e.sch,
				HashIdx: e.hash, EqKey: 3}
		},
		"filter+project": func() executor.Node {
			return &executor.ProjectNode{C: c,
				Child: &executor.Filter{C: c, Child: seq(),
					Quals: []executor.Expr{&executor.BinOp{Op: executor.OpGE, L: intvar(0), R: intconst(50)}}},
				Exprs: []executor.Expr{
					&executor.BinOp{Op: executor.OpMul, L: intvar(0), R: intconst(3)},
				}}
		},
		"hashjoin": func() executor.Node {
			return &executor.HashJoin{C: c, Outer: seq(), Inner: seq(),
				OuterKey: 1, InnerKey: 0}
		},
		"hashjoin+qual": func() executor.Node {
			return &executor.HashJoin{C: c, Outer: seq(), Inner: seq(),
				OuterKey: 1, InnerKey: 0,
				Quals: []executor.Expr{&executor.BinOp{Op: executor.OpLT, L: intvar(2), R: &executor.Const{V: value.NewFloat(30)}}}}
		},
		"nestloop": func() executor.Node {
			return &executor.NestLoop{C: c,
				Outer: seq(&executor.BinOp{Op: executor.OpLT, L: intvar(0), R: intconst(4)}),
				Inner: seq(&executor.BinOp{Op: executor.OpLT, L: intvar(0), R: intconst(4)}),
				Quals: []executor.Expr{&executor.BinOp{Op: executor.OpEQ, L: intvar(1), R: &executor.Var{Idx: 4, T: value.Int}}}}
		},
		"indexloopjoin-btree": func() executor.Node {
			return &executor.IndexLoopJoin{C: c,
				Outer:    seq(&executor.BinOp{Op: executor.OpLT, L: intvar(0), R: intconst(5)}),
				OuterKey: 1, Heap: e.heap, BTree: e.btree, InnerSch: e.sch}
		},
		"indexloopjoin-hash": func() executor.Node {
			return &executor.IndexLoopJoin{C: c,
				Outer:    seq(&executor.BinOp{Op: executor.OpLT, L: intvar(0), R: intconst(5)}),
				OuterKey: 1, Heap: e.heap, HashIdx: e.hash, InnerSch: e.sch}
		},
		"sort": func() executor.Node {
			return &executor.Sort{C: c, Child: seq(),
				Keys: []executor.SortKey{{Col: 1}, {Col: 0, Desc: true}}}
		},
		"mergejoin": func() executor.Node {
			return &executor.MergeJoin{C: c,
				Outer:    &executor.Sort{C: c, Child: seq(), Keys: []executor.SortKey{{Col: 1}}},
				Inner:    &executor.Sort{C: c, Child: seq(), Keys: []executor.SortKey{{Col: 1}}},
				OuterKey: 1, InnerKey: 1}
		},
		"agg": func() executor.Node {
			return &executor.Agg{C: c, Child: seq(), Specs: []executor.AggSpec{
				{Func: executor.AggCount},
				{Func: executor.AggSum, Arg: intvar(0)},
				{Func: executor.AggAvg, Arg: &executor.Var{Idx: 2, T: value.Float}},
			}}
		},
		"group": func() executor.Node {
			return &executor.GroupAgg{C: c,
				Child:   &executor.Sort{C: c, Child: seq(), Keys: []executor.SortKey{{Col: 1}}},
				GroupBy: []int{1},
				Specs: []executor.AggSpec{
					{Func: executor.AggCount},
					{Func: executor.AggSum, Arg: intvar(0)},
				}}
		},
		"material": func() executor.Node {
			return &executor.Material{C: c, Child: seq()}
		},
		"limit": func() executor.Node {
			return &executor.Limit{C: c, Child: seq(), N: 5}
		},
		"complex": func() executor.Node {
			// Project(Group(Sort(HashJoin(seq, idx)))) with expressions.
			join := &executor.HashJoin{C: c, Outer: seq(), Inner: seq(),
				OuterKey: 1, InnerKey: 0}
			srt := &executor.Sort{C: c, Child: join, Keys: []executor.SortKey{{Col: 1}}}
			grp := &executor.GroupAgg{C: c, Child: srt, GroupBy: []int{1},
				Specs: []executor.AggSpec{
					{Func: executor.AggSum, Arg: &executor.BinOp{Op: executor.OpMul,
						L: &executor.Var{Idx: 2, T: value.Float}, R: intvar(0)}},
					{Func: executor.AggCount},
				}}
			return &executor.ProjectNode{C: c, Child: grp,
				Exprs: []executor.Expr{intvar(0), intvar(1)}}
		},
	}
	for name, mk := range shapes {
		before := e.ses.Trace().Len()
		n := e.drain(t, mk())
		if err := e.ses.Err(); err != nil {
			t.Fatalf("shape %q: trace validation failed: %v", name, err)
		}
		after := e.ses.Trace().Len()
		if after <= before {
			t.Errorf("shape %q: no trace events recorded", name)
		}
		_ = n
	}
	t.Logf("total trace: %d block events, %d instrs",
		e.ses.Trace().Len(), e.ses.Trace().Instrs)
}

// TestTraceMatchesStaticEdges replays the recorded trace and checks
// every transition explicitly (the recorder validated online; this
// re-checks offline on the stored trace).
func TestTraceMatchesStaticEdges(t *testing.T) {
	e := newEnv(t, 40)
	c := e.ctx
	scan := &executor.SeqScan{C: c, Heap: e.heap, Out: e.sch,
		Quals: []executor.Expr{&executor.BinOp{Op: executor.OpLT, L: intvar(1), R: intconst(3)}}}
	agg := &executor.Agg{C: c, Child: scan, Specs: []executor.AggSpec{
		{Func: executor.AggSum, Arg: intvar(0)},
	}}
	e.drain(t, agg)
	if err := e.ses.Err(); err != nil {
		t.Fatal(err)
	}
	tr := e.ses.Trace()
	bad := 0
	depth := 0
	skipNext := false
	for i := 0; i < tr.Len(); i++ {
		if i > 0 && !skipNext && !e.img.Prog.ValidEdge(tr.Blocks[i-1], tr.Blocks[i]) {
			bad++
		}
		skipNext = false
		switch e.img.Prog.Block(tr.Blocks[i]).Kind {
		case program.KindCall:
			depth++
		case program.KindReturn:
			if depth > 0 {
				depth--
			} else {
				// Return above the trace start: the next transition is
				// unvalidatable, as in the recorder.
				skipNext = true
			}
		}
	}
	if bad != 0 {
		t.Fatalf("%d invalid transitions in trace of %d events", bad, tr.Len())
	}
}
