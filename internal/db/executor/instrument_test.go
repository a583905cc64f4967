package executor

import (
	"strings"
	"testing"
	"time"

	"repro/dsdb/obs"
	"repro/internal/db/probe"
	"repro/internal/db/value"
)

// TestInstrumentCountsRows: every wrapper reports exactly the
// cardinality that flowed through its operator.
func TestInstrumentCountsRows(t *testing.T) {
	db := newTestDB(t, 100)
	c := NewCtx(nil)
	scan := &SeqScan{C: c, Heap: db.heap, Out: db.sch, Table: "t"}
	filt := &Filter{C: c, Child: scan,
		Quals: []Expr{&BinOp{Op: OpLT, L: intvar(0), R: intconst(30)}}}
	root := Instrument(c, filt)
	rows := drain(t, root)
	if len(rows) != 30 {
		t.Fatalf("got %d rows, want 30", len(rows))
	}
	if root.Stats.Rows != 30 {
		t.Fatalf("filter wrapper counted %d rows, want 30", root.Stats.Rows)
	}
	child, ok := filt.Child.(*Instrumented)
	if !ok {
		t.Fatal("Instrument did not rewire the filter's child")
	}
	if child.Stats.Rows != 100 {
		t.Fatalf("scan wrapper counted %d rows, want 100", child.Stats.Rows)
	}
	if root.Stats.Loops != 1 || child.Stats.Loops != 1 {
		t.Fatalf("loops = %d/%d, want 1/1", root.Stats.Loops, child.Stats.Loops)
	}
	if root.Stats.Wall < child.Stats.Wall {
		t.Fatalf("parent wall %v below child wall %v (wall must be inclusive)",
			root.Stats.Wall, child.Stats.Wall)
	}
}

// TestInstrumentNestLoopLoops: the inner side of a nested loop is
// re-opened once per outer tuple; Loops records every rescan.
func TestInstrumentNestLoopLoops(t *testing.T) {
	c := NewCtx(nil)
	db := newTestDB(t, 5)
	outer := &SeqScan{C: c, Heap: db.heap, Out: db.sch, Table: "t"}
	inner := &SeqScan{C: c, Heap: db.heap, Out: db.sch, Table: "t"}
	nl := &NestLoop{C: c, Outer: outer, Inner: inner,
		Quals: []Expr{&BinOp{Op: OpEQ, L: intvar(0), R: &Var{Idx: 3, T: value.Int}}}}
	root := Instrument(c, nl)
	rows := drain(t, root)
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	in := nl.Inner.(*Instrumented)
	// One Open from the join's Open plus one rescan per exhausted pass.
	if in.Stats.Loops < 5 {
		t.Fatalf("inner loops = %d, want >= 5 (one per outer tuple)", in.Stats.Loops)
	}
	if in.Stats.Rows != 25 {
		t.Fatalf("inner rows = %d, want 25 (5 rescans x 5 tuples)", in.Stats.Rows)
	}
}

// funcTracer adapts a func to probe.Tracer for tests.
type funcTracer func(probe.ID)

func (f funcTracer) Emit(id probe.ID) { f(id) }

// TestAnalyzeTracerAttribution: with analyze mode on, buffer-pool
// probe events and IO waits land on the operator the session is
// currently inside, and the chain still forwards to the base tracer.
func TestAnalyzeTracerAttribution(t *testing.T) {
	var hits, misses int
	base := funcTracer(func(id probe.ID) {
		switch id {
		case probe.BufGetHit:
			hits++
		case probe.BufGetMiss:
			misses++
		}
	})
	c := NewCtx(base)
	c.SetAnalyze(true)
	var op OpStats
	c.curOp = &op
	c.emit(probe.BufGetHit)
	c.emit(probe.BufGetHit)
	c.emit(probe.BufGetMiss)
	if op.BufHits() != 2 || op.BufMisses() != 1 {
		t.Fatalf("attributed %d/%d, want 2/1", op.BufHits(), op.BufMisses())
	}
	if hits != 2 || misses != 1 {
		t.Fatalf("base tracer saw %d/%d, want 2/1 (events must still forward)", hits, misses)
	}
	if w, ok := c.Tr.(interface{ AddIOWait(time.Duration) }); ok {
		w.AddIOWait(3 * time.Millisecond)
	} else {
		t.Fatal("analyze tracer must expose AddIOWait for the buffer pool")
	}
	// curOp nil (between operators) must not panic or misattribute.
	c.curOp = nil
	c.emit(probe.BufGetHit)
	if op.BufHits() != 2 {
		t.Fatal("event without a current operator was misattributed")
	}
	// Switching analyze off restores the plain chain.
	c.SetAnalyze(false)
	if _, ok := c.Tr.(analyzeTracer); ok {
		t.Fatal("SetAnalyze(false) left the analyze tracer installed")
	}
}

// TestRetraceChoosesRecorder: the recorder is fixed per execution — nil
// unless a session tracer is attached — and a span reaches the access
// methods through Tr either way, so IO waits are attributed to it.
func TestRetraceChoosesRecorder(t *testing.T) {
	sp := obs.New(obs.Config{}).Begin("", "q")
	for _, base := range []probe.Tracer{nil, probe.NopTracer{}} {
		c := NewCtx(base)
		if c.rec != nil || c.Tr != nil {
			t.Fatalf("NewCtx(%T): rec %T, Tr %T, want both nil", base, c.rec, c.Tr)
		}
		c.SetSpan(sp)
		if c.rec != nil || probe.Resolve(c.Tr) != nil {
			t.Fatalf("untraced observed: rec %T, Tr %T resolves to a recorder", c.rec, c.Tr)
		}
		if _, ok := c.Tr.(interface{ AddIOWait(time.Duration) }); !ok {
			t.Fatalf("untraced observed: Tr %T carries no AddIOWait", c.Tr)
		}
		c.SetSpan(nil)
		if c.rec != nil || c.Tr != nil {
			t.Fatalf("span detached: rec %T, Tr %T, want both nil", c.rec, c.Tr)
		}
	}
	ct := probe.NewCountingTracer()
	c := NewCtx(ct)
	c.SetSpan(sp)
	if c.rec != probe.Tracer(ct) {
		t.Fatalf("traced observed: rec %T, want the session tracer", c.rec)
	}
	probe.Emit(probe.Resolve(c.Tr), probe.BufGetHit)
	if ct.Count(probe.BufGetHit) != 1 {
		t.Fatal("traced observed: events handed down through Tr were not recorded")
	}
	w, ok := c.Tr.(interface{ AddIOWait(time.Duration) })
	if !ok {
		t.Fatalf("traced observed: Tr %T carries no AddIOWait", c.Tr)
	}
	w.AddIOWait(time.Millisecond)
	if got := sp.Stage(obs.StageIO); got != time.Millisecond {
		t.Fatalf("span IO stage = %v, want 1ms", got)
	}
}

// TestOrdinaryExecutionHasNoAnalyzeState: a plain context never sets
// curOp or the analyzing flag — the invariant behind the "near-zero
// cost when not analyzing" claim.
func TestOrdinaryExecutionHasNoAnalyzeState(t *testing.T) {
	db := newTestDB(t, 50)
	c := NewCtx(nil)
	scan := &SeqScan{C: c, Heap: db.heap, Out: db.sch, Table: "t"}
	drain(t, scan)
	if c.analyzing || c.curOp != nil {
		t.Fatal("uninstrumented execution touched analyze state")
	}
	if _, ok := c.Tr.(analyzeTracer); ok {
		t.Fatal("uninstrumented execution got an analyze tracer")
	}
}

// TestExplainLinesRendering pins the plan text for a hand-built tree:
// root unindented, children arrowed two spaces deeper, predicates on
// indented detail lines.
func TestExplainLinesRendering(t *testing.T) {
	db := newTestDB(t, 10)
	c := NewCtx(nil)
	scan := &SeqScan{C: c, Heap: db.heap, Out: db.sch, Table: "t",
		Quals: []Expr{&BinOp{Op: OpLT, L: &Var{Idx: 0, Name: "a", T: value.Int}, R: intconst(5)}}}
	srt := &Sort{C: c, Child: scan, Keys: []SortKey{{Col: 1}, {Col: 0, Desc: true}}}
	lim := &Limit{C: c, Child: srt, N: 3}
	got := ExplainLines(lim, false)
	want := []string{
		"Limit 3",
		"  -> Sort (b, a desc)",
		"    -> Seq Scan on t",
		"         Filter: (a < 5)",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestExplainAnalyzeLineShape: executed wrappers render the counter
// suffix with every field present.
func TestExplainAnalyzeLineShape(t *testing.T) {
	db := newTestDB(t, 20)
	c := NewCtx(nil)
	scan := &SeqScan{C: c, Heap: db.heap, Out: db.sch, Table: "t"}
	root := Instrument(c, scan)
	drain(t, root)
	lines := ExplainLines(root, true)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	l := lines[0]
	for _, frag := range []string{"Seq Scan on t (actual rows=20 loops=1 time=",
		"self=", "buf_hits=", "buf_misses="} {
		if !strings.Contains(l, frag) {
			t.Fatalf("analyze line %q missing %q", l, frag)
		}
	}
}

// TestTopOp: the dominant operator of an executed tree is one of its
// labels, and uninstrumented trees report none.
func TestTopOp(t *testing.T) {
	db := newTestDB(t, 200)
	c := NewCtx(nil)
	scan := &SeqScan{C: c, Heap: db.heap, Out: db.sch, Table: "t"}
	srt := &Sort{C: c, Child: scan, Keys: []SortKey{{Col: 0, Desc: true}}}
	root := Instrument(c, srt)
	drain(t, root)
	top := TopOp(root)
	if top != "Sort (a desc)" && top != "Seq Scan on t" {
		t.Fatalf("TopOp = %q, want one of the plan's labels", top)
	}
	if got := TopOp(scan); got != "" {
		t.Fatalf("TopOp on an uninstrumented node = %q, want empty", got)
	}
}
