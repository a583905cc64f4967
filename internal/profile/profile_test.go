package profile_test

import (
	"math"
	"testing"

	"repro/internal/profile"
	"repro/internal/profile/profiletest"
	"repro/internal/program"
	"repro/internal/trace"
)

// loopProgram: main loop calling helper, with a cold error procedure
// that never runs.
func loopProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder()
	m := b.Proc("main", "core")
	m.Fall("entry", 3)
	m.Cond("loop", 2, "exit")
	m.Call("callh", 1, "helper")
	m.Jump("back", 2, "loop")
	m.Ret("exit", 1)
	h := b.Proc("helper", "lib")
	h.Cond("entry", 4, "slow")
	h.Ret("ret", 1)
	h.Jump("slow", 6, "ret2")
	h.Ret("ret2", 1)
	c := b.ColdProc("elog", "error")
	c.Fall("entry", 10)
	c.Ret("ret", 1)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// record runs `iters` loop iterations; every `slowEvery`-th helper call
// takes the slow path.
func record(t *testing.T, p *program.Program, iters, slowEvery int) *trace.Trace {
	t.Helper()
	tr := trace.New(p)
	r := trace.NewRecorder(tr, true)
	id := p.MustBlock
	r.Block(id("main.entry"))
	for i := 0; i < iters; i++ {
		r.Block(id("main.loop"))
		r.Block(id("main.callh"))
		r.Block(id("helper.entry"))
		if slowEvery > 0 && i%slowEvery == slowEvery-1 {
			r.Block(id("helper.slow"))
			r.Block(id("helper.ret2"))
		} else {
			r.Block(id("helper.ret"))
		}
		r.Block(id("main.back"))
	}
	r.Block(id("main.loop"))
	r.Block(id("main.exit"))
	if err := r.Err(); err != nil {
		t.Fatalf("trace validation: %v", err)
	}
	return tr
}

func TestBlockAndEdgeCounts(t *testing.T) {
	p := loopProgram(t)
	tr := record(t, p, 10, 5)
	pr := profiletest.FromTrace(tr)
	id := p.MustBlock
	if got := pr.Weight(id("main.loop")); got != 11 {
		t.Fatalf("main.loop weight = %d, want 11", got)
	}
	if got := pr.Weight(id("helper.entry")); got != 10 {
		t.Fatalf("helper.entry weight = %d, want 10", got)
	}
	if got := pr.Weight(id("helper.slow")); got != 2 {
		t.Fatalf("helper.slow weight = %d, want 2", got)
	}
	if got := pr.Weight(id("elog.entry")); got != 0 {
		t.Fatalf("cold block executed %d times", got)
	}
	if got := pr.EdgeCount[profile.Edge{id("main.loop"), id("main.exit")}]; got != 1 {
		t.Fatalf("loop->exit edge = %d, want 1", got)
	}
	if got := pr.EdgeCount[profile.Edge{id("main.callh"), id("helper.entry")}]; got != 10 {
		t.Fatalf("call edge = %d, want 10", got)
	}
	if pr.DynBlocks != uint64(tr.Len()) {
		t.Fatalf("DynBlocks = %d, want %d", pr.DynBlocks, tr.Len())
	}
	if pr.DynInstrs != tr.Instrs {
		t.Fatalf("DynInstrs = %d, want %d", pr.DynInstrs, tr.Instrs)
	}
}

func TestSuccsSorted(t *testing.T) {
	p := loopProgram(t)
	tr := record(t, p, 10, 5)
	pr := profiletest.FromTrace(tr)
	id := p.MustBlock
	succs := pr.Succs(id("helper.entry"))
	if len(succs) != 2 {
		t.Fatalf("helper.entry has %d dynamic successors, want 2", len(succs))
	}
	if succs[0].To != id("helper.ret") || succs[0].Count != 8 {
		t.Fatalf("dominant successor = %+v, want helper.ret x8", succs[0])
	}
	if succs[1].Count != 2 {
		t.Fatalf("minor successor = %+v, want x2", succs[1])
	}
	if succs := pr.Succs(id("elog.entry")); len(succs) != 0 {
		t.Fatalf("unexecuted block has successors %+v", succs)
	}
}

func TestFootprint(t *testing.T) {
	p := loopProgram(t)
	tr := record(t, p, 10, 5)
	pr := profiletest.FromTrace(tr)
	fs := pr.Footprint()
	if fs.TotalProcs != 3 || fs.ExecProcs != 2 {
		t.Fatalf("procs = %d/%d, want 2/3", fs.ExecProcs, fs.TotalProcs)
	}
	if fs.TotalBlocks != 11 || fs.ExecBlocks != 9 {
		t.Fatalf("blocks = %d/%d, want 9/11", fs.ExecBlocks, fs.TotalBlocks)
	}
	if fs.TotalInstrs != p.NumInstructions() {
		t.Fatal("total instr mismatch")
	}
	wantExec := p.NumInstructions() - 11 // cold proc has 11 instrs
	if fs.ExecInstrs != wantExec {
		t.Fatalf("exec instrs = %d, want %d", fs.ExecInstrs, wantExec)
	}
	if math.Abs(fs.PctProcs()-100*2.0/3.0) > 1e-9 {
		t.Fatalf("PctProcs = %v", fs.PctProcs())
	}
}

func TestCumulativeRefsMonotoneAndComplete(t *testing.T) {
	p := loopProgram(t)
	tr := record(t, p, 50, 3)
	pr := profiletest.FromTrace(tr)
	cum := pr.CumulativeRefs()
	if len(cum) != 9 {
		t.Fatalf("cum length = %d, want 9 executed blocks", len(cum))
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatal("cumulative curve must be non-decreasing")
		}
	}
	if math.Abs(cum[len(cum)-1]-1.0) > 1e-9 {
		t.Fatalf("curve must end at 1.0, got %v", cum[len(cum)-1])
	}
	if n := pr.BlocksForCoverage(1.0); n != 9 {
		t.Fatalf("BlocksForCoverage(1.0) = %d, want 9", n)
	}
	if n := pr.BlocksForCoverage(0.1); n != 1 {
		t.Fatalf("BlocksForCoverage(0.1) = %d, want 1", n)
	}
}

func TestPopularSetCoversRequestedFraction(t *testing.T) {
	p := loopProgram(t)
	tr := record(t, p, 50, 3)
	pr := profiletest.FromTrace(tr)
	set := pr.PopularSet(0.75)
	var covered uint64
	for b := range set {
		covered += pr.BlockCount[b]
	}
	if float64(covered) < 0.75*float64(pr.DynBlocks) {
		t.Fatalf("popular set covers %d of %d references", covered, pr.DynBlocks)
	}
	// Must be a prefix of the popularity ranking: every member at least
	// as popular as every non-member.
	var minIn uint64 = math.MaxUint64
	for b := range set {
		if pr.BlockCount[b] < minIn {
			minIn = pr.BlockCount[b]
		}
	}
	for b, c := range pr.BlockCount {
		if c > minIn && !set[program.BlockID(b)] {
			t.Fatalf("block %d (count %d) excluded while min in-set count is %d", b, c, minIn)
		}
	}
}

func TestReuseDistance(t *testing.T) {
	p := loopProgram(t)
	tr := record(t, p, 20, 0) // never slow: loop body is 11 instrs/iter
	id := p.MustBlock
	track := map[program.BlockID]bool{id("main.loop"): true}
	st := profile.Reuse(tr, track, []uint64{5, 100})
	if st.Reexecutions != 20 {
		t.Fatalf("reexecutions = %d, want 20", st.Reexecutions)
	}
	// Per iteration, between two main.loop executions: callh(1) +
	// helper.entry(4) + helper.ret(1) + back(2) = 8 instructions.
	if st.Prob[0] != 0 {
		t.Fatalf("P(dist<5) = %v, want 0 (distance is 8)", st.Prob[0])
	}
	if st.Prob[1] != 1 {
		t.Fatalf("P(dist<100) = %v, want 1", st.Prob[1])
	}
}

func TestReuseThresholdsSorted(t *testing.T) {
	p := loopProgram(t)
	tr := record(t, p, 5, 0)
	id := p.MustBlock
	st := profile.Reuse(tr, map[program.BlockID]bool{id("main.loop"): true}, []uint64{250, 100})
	if st.Thresholds[0] != 100 || st.Thresholds[1] != 250 {
		t.Fatalf("thresholds not sorted: %v", st.Thresholds)
	}
	if st.Prob[0] > st.Prob[1] {
		t.Fatal("P(<100) cannot exceed P(<250)")
	}
}

func TestTypeBreakdown(t *testing.T) {
	p := loopProgram(t)
	tr := record(t, p, 10, 2) // helper branch 50/50 -> unpredictable
	pr := profiletest.FromTrace(tr)
	st := pr.TypeBreakdown()

	// Static classes among the 9 executed blocks: fallthrough 1
	// (main.entry), branch 4 (main.loop, main.back, helper.entry,
	// helper.slow), call 1, return 3.
	if got := st.Rows[profile.ClassFallThrough].StaticPct; math.Abs(got-100.0/9) > 1e-9 {
		t.Fatalf("fallthrough static pct = %v", got)
	}
	if got := st.Rows[profile.ClassBranch].StaticPct; math.Abs(got-400.0/9) > 1e-9 {
		t.Fatalf("branch static pct = %v", got)
	}
	// Fall-through, call, return rows are 100% predictable by
	// construction (fixed target / return-address stack).
	for _, cl := range []profile.TypeClass{profile.ClassFallThrough, profile.ClassCall, profile.ClassReturn} {
		if got := st.Rows[cl].PredictablePct; math.Abs(got-100) > 1e-9 {
			t.Fatalf("%v predictable pct = %v, want 100", cl, got)
		}
	}
	// helper.entry alternates 50/50 so its executions are unpredictable;
	// main.loop is 11/12 taken-to-callh (below 0.95), also unpredictable;
	// main.back and helper.slow are unconditional (predictable).
	br := st.Rows[profile.ClassBranch]
	if br.PredictablePct >= 100 {
		t.Fatalf("branch predictability should be <100, got %v", br.PredictablePct)
	}
	if st.OverallPct <= 0 || st.OverallPct >= 100 {
		t.Fatalf("overall predictability = %v, want in (0,100)", st.OverallPct)
	}
	// Dynamic percentages must sum to 100.
	var sum float64
	for _, r := range st.Rows {
		sum += r.DynamicPct
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("dynamic percentages sum to %v", sum)
	}
}

func TestTypeClassString(t *testing.T) {
	want := map[profile.TypeClass]string{
		profile.ClassFallThrough: "Fall-through",
		profile.ClassBranch:      "Branch",
		profile.ClassCall:        "Subroutine call",
		profile.ClassReturn:      "Subroutine return",
	}
	for cl, s := range want {
		if cl.String() != s {
			t.Errorf("%d.String() = %q, want %q", cl, cl.String(), s)
		}
	}
}

// TestAddTraceAccumulates: the reference profile of two traces adds
// their counts, with no transition from the first trace's last event
// to the second's first.
func TestAddTraceAccumulates(t *testing.T) {
	p := loopProgram(t)
	t1 := record(t, p, 5, 0)
	t2 := record(t, p, 7, 0)
	pr := profiletest.FromTrace(t1, t2)
	if pr.DynBlocks != uint64(t1.Len()+t2.Len()) {
		t.Fatal("the traces' block counts did not accumulate")
	}
	id := p.MustBlock
	if got := pr.EdgeCount[profile.Edge{From: id("main.exit"), To: id("main.entry")}]; got != 0 {
		t.Fatalf("main.exit -> main.entry counted %d times, want 0: no transition joins two traces", got)
	}
	if got := pr.Weight(id("main.entry")); got != 2 {
		t.Fatalf("main.entry weight = %d, want 2", got)
	}
}

func TestProcWeight(t *testing.T) {
	p := loopProgram(t)
	tr := record(t, p, 4, 0)
	pr := profiletest.FromTrace(tr)
	helper, _ := p.ProcByName("helper")
	elog, _ := p.ProcByName("elog")
	if got := pr.ProcWeight(helper.ID); got != 4 {
		t.Fatalf("helper proc weight = %d, want 4", got)
	}
	if got := pr.ProcWeight(elog.ID); got != 0 {
		t.Fatalf("cold proc weight = %d, want 0", got)
	}
}
