package profile_test

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"repro/internal/db/catalog"
	"repro/internal/db/engine"
	"repro/internal/db/executor"
	"repro/internal/db/executor/exectest"
	"repro/internal/db/sql"
	"repro/internal/kernel"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/tpcd"
	"repro/internal/trace"
)

// kernelTrace records TPC-D queries over the instrumented kernel: the
// trace AddTrace meets in the pipeline, with return blocks that have
// several continuations and blocks that never run.
func kernelTrace(t *testing.T, queries ...int) *trace.Trace {
	t.Helper()
	db := engine.Open(2048)
	if err := tpcd.Load(db, tpcd.Config{SF: 0.0005, Seed: 42, Indexes: catalog.BTree}); err != nil {
		t.Fatal(err)
	}
	img := kernel.New(kernel.Config{ColdProcs: 10, Seed: 1})
	ses := img.NewSession(true)
	c := executor.NewCtx(ses)
	for _, qn := range queries {
		q, _ := tpcd.Query(qn)
		cq, err := sql.CompileQuery(db, c, q)
		if err == nil {
			_, err = exectest.Run(cq.Plan)
		}
		if err != nil {
			t.Fatalf("Q%d: %v", qn, err)
		}
	}
	if err := ses.Err(); err != nil {
		t.Fatal(err)
	}
	return ses.Trace()
}

// refProfile is AddTrace as it was: a map increment per event, block
// sizes through Program.Block.
type refProfile struct {
	blockCount           []uint64
	edgeCount            map[profile.Edge]uint64
	dynBlocks, dynInstrs uint64
}

func newRefProfile(p *program.Program) *refProfile {
	return &refProfile{blockCount: make([]uint64, p.NumBlocks()), edgeCount: make(map[profile.Edge]uint64)}
}

func (r *refProfile) addTrace(t *trace.Trace) {
	last := program.NoBlock
	prog := t.Program()
	for _, b := range t.Blocks {
		r.blockCount[b]++
		r.dynInstrs += uint64(prog.Block(b).Size)
		if last != program.NoBlock {
			r.edgeCount[profile.Edge{From: last, To: b}]++
		}
		last = b
	}
	r.dynBlocks += uint64(len(t.Blocks))
}

// succs is Succs over the reference edge counts: decreasing count,
// ties by BlockID.
func (r *refProfile) succs(b program.BlockID) []profile.EdgeWeight {
	var out []profile.EdgeWeight
	for e, c := range r.edgeCount {
		if e.From == b {
			out = append(out, profile.EdgeWeight{To: e.To, Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].To < out[j].To
	})
	return out
}

// requireEqualsReference fails t unless got has want's counts, totals
// and Succs order, and returns the most successors a block has.
func requireEqualsReference(t *testing.T, what string, got *profile.Profile, want *refProfile) int {
	t.Helper()
	if got.DynBlocks != want.dynBlocks || got.DynInstrs != want.dynInstrs {
		t.Fatalf("%s: %d blocks / %d instrs, reference %d / %d", what,
			got.DynBlocks, got.DynInstrs, want.dynBlocks, want.dynInstrs)
	}
	if !slices.Equal(got.BlockCount, want.blockCount) {
		t.Fatalf("%s: BlockCount differs from the reference", what)
	}
	if !maps.Equal(got.EdgeCount, want.edgeCount) {
		t.Fatalf("%s: EdgeCount has %d edges, reference %d (or counts differ)", what,
			len(got.EdgeCount), len(want.edgeCount))
	}
	fanout := 0
	for b := range got.BlockCount {
		g, w := got.Succs(program.BlockID(b)), want.succs(program.BlockID(b))
		if !slices.Equal(g, w) {
			t.Fatalf("%s: Succs(%s) = %v, reference %v", what, got.Prog.Block(program.BlockID(b)).Name, g, w)
		}
		fanout = max(fanout, len(g))
	}
	return fanout
}

// requireLongChains fails t if the widest block has fewer than four
// successors: then the trace does not exercise long successor chains.
func requireLongChains(t *testing.T, what string, fanout int) {
	t.Helper()
	if fanout < 4 {
		t.Fatalf("%s: widest block has %d successors; the trace does not exercise long successor chains", what, fanout)
	}
}

// TestFromTraceEqualsMapPerEvent: counting transitions in successor
// chains and filling EdgeCount once at the end gives what a map
// increment per event gave — counts, totals and Succs order — for one
// trace and for traces accumulated into one profile.
func TestFromTraceEqualsMapPerEvent(t *testing.T) {
	t1 := kernelTrace(t, tpcd.AllQueryNumbers()...)
	want := newRefProfile(t1.Program())
	want.addTrace(t1)
	got := profile.FromTrace(t1)
	requireLongChains(t, "FromTrace", requireEqualsReference(t, "FromTrace", got, want))

	// A second trace over the same image lands on the first's counts;
	// the successor chains are per call, EdgeCount is not.
	t2 := trace.New(t1.Program())
	t2.Blocks = t1.Blocks[len(t1.Blocks)/3:]
	got.AddTrace(t2)
	want.addTrace(t2)
	requireLongChains(t, "AddTrace", requireEqualsReference(t, "AddTrace", got, want))
}

// TestAddTraceChunksEqualReference: split into one to seven chunks,
// each counting from the event before it, AddTrace gives the reference
// profile for an empty trace, a one-event trace, a trace shorter than
// the chunk count, the kernel trace, and two traces added to one
// profile, with no edge between them.
func TestAddTraceChunksEqualReference(t *testing.T) {
	kt := kernelTrace(t, tpcd.AllQueryNumbers()...)
	prog := kt.Program()
	part := func(blocks []program.BlockID) *trace.Trace {
		tr := trace.New(prog)
		tr.Blocks = blocks
		return tr
	}
	cases := []struct {
		name   string
		traces []*trace.Trace
		long   bool // the traces exercise long successor chains
	}{
		{"empty", []*trace.Trace{part(nil)}, false},
		{"one event", []*trace.Trace{part(kt.Blocks[:1])}, false},
		{"three events", []*trace.Trace{part(kt.Blocks[:3])}, false},
		{"kernel", []*trace.Trace{kt}, true},
		{"two traces", []*trace.Trace{kt, part(kt.Blocks[len(kt.Blocks)/3:])}, true},
	}
	for _, c := range cases {
		for chunks := 1; chunks <= 7; chunks++ {
			got, want := profile.New(prog), newRefProfile(prog)
			for _, tr := range c.traces {
				got.AddTraceChunks(tr, chunks)
				want.addTrace(tr)
			}
			what := fmt.Sprintf("%s, %d chunks", c.name, chunks)
			if fanout := requireEqualsReference(t, what, got, want); c.long {
				requireLongChains(t, what, fanout)
			}
		}
	}
}
