package trace

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/program"
)

// testProgram builds the same main/helper pair used by the program
// package tests.
func testProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder()
	m := b.Proc("main", "core")
	m.Fall("entry", 3)
	m.Cond("loop", 2, "exit")
	m.Call("callh", 1, "helper")
	m.Jump("back", 2, "loop")
	m.Ret("exit", 1)
	h := b.Proc("helper", "lib")
	h.Fall("entry", 4)
	h.Ret("ret", 1)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// emitRun records N iterations of the main loop then the exit path.
func emitRun(t *testing.T, p *program.Program, r *Recorder, iters int) {
	t.Helper()
	id := p.MustBlock
	r.Block(id("main.entry"))
	for i := 0; i < iters; i++ {
		r.Block(id("main.loop"))
		r.Block(id("main.callh"))
		r.Block(id("helper.entry"))
		r.Block(id("helper.ret"))
		r.Block(id("main.back"))
	}
	r.Block(id("main.loop"))
	r.Block(id("main.exit"))
}

func TestRecorderValidRun(t *testing.T) {
	p := testProgram(t)
	tr := New(p)
	r := NewRecorder(tr, true)
	emitRun(t, p, r, 3)
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected validation error: %v", err)
	}
	wantBlocks := 1 + 3*5 + 2
	if tr.Len() != wantBlocks {
		t.Fatalf("trace length = %d, want %d", tr.Len(), wantBlocks)
	}
	wantInstr := uint64(3 + 3*(2+1+4+1+2) + 2 + 1)
	if tr.Instrs != wantInstr {
		t.Fatalf("Instrs = %d, want %d", tr.Instrs, wantInstr)
	}
}

func TestRecorderCatchesIllegalTransition(t *testing.T) {
	p := testProgram(t)
	r := NewRecorder(New(p), true)
	r.Block(p.MustBlock("main.entry"))
	r.Block(p.MustBlock("main.exit")) // entry falls through to loop, not exit
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "illegal transition") {
		t.Fatalf("want illegal-transition error, got %v", err)
	}
}

func TestRecorderCatchesWrongReturn(t *testing.T) {
	p := testProgram(t)
	// Build a second caller so a wrong continuation exists.
	b := program.NewBuilder()
	f := b.Proc("f", "m")
	f.Call("c1", 1, "g")
	f.Call("c2", 1, "g")
	f.Ret("exit", 1)
	g := b.Proc("g", "m")
	g.Ret("entry", 1)
	p2, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	_ = p
	r := NewRecorder(New(p2), true)
	r.Block(p2.MustBlock("f.c1"))
	r.Block(p2.MustBlock("g.entry"))
	r.Block(p2.MustBlock("f.exit")) // should return to f.c2
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "expected continuation") {
		t.Fatalf("want continuation error, got %v", err)
	}
}

func TestReturnAboveTraceStartIsTolerated(t *testing.T) {
	// Tracing may begin mid-execution: a return with an empty stack is
	// legal and the following transition is simply unvalidated.
	p := testProgram(t)
	r := NewRecorder(New(p), true)
	r.Block(p.MustBlock("helper.entry"))
	r.Block(p.MustBlock("helper.ret")) // no call on the stack
	r.Block(p.MustBlock("main.entry")) // arbitrary next block: fine
	r.Block(p.MustBlock("main.loop"))  // validated again from here
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	r.Block(p.MustBlock("main.entry")) // loop -> entry is illegal
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "illegal transition") {
		t.Fatalf("validation should resume after unknown transition, got %v", err)
	}
}

// TestMarksAndAppend records two queries back to back into one trace,
// as a session does: each query's mark sits where its events start.
func TestMarksAndAppend(t *testing.T) {
	p := testProgram(t)
	t1 := New(p)
	emitRun(t, p, NewRecorder(t1, true), 1)
	t2 := New(p)
	emitRun(t, p, NewRecorder(t2, true), 2)

	total := New(p)
	r := NewRecorder(total, false)
	r.Mark("q1")
	emitRun(t, p, r, 1)
	r.Mark("q2")
	emitRun(t, p, r, 2)
	if total.Len() != t1.Len()+t2.Len() {
		t.Fatalf("appended length = %d, want %d", total.Len(), t1.Len()+t2.Len())
	}
	if total.Instrs != t1.Instrs+t2.Instrs {
		t.Fatal("appended instruction count mismatch")
	}
	if len(total.Marks) != 2 {
		t.Fatalf("marks = %d, want 2", len(total.Marks))
	}
	if total.Marks[0].Label != "q1" || total.Marks[0].Pos != 0 {
		t.Fatalf("mark 0 = %+v", total.Marks[0])
	}
	if total.Marks[1].Label != "q2" || total.Marks[1].Pos != t1.Len() {
		t.Fatalf("mark 1 = %+v, want pos %d", total.Marks[1], t1.Len())
	}
}

// TestTryPathLeavesTheRestToPath: TryPath records nothing and reports
// false for everything Path must do some other way — a validating
// recorder, a path wider than PathWidth, a path whose capacity is short
// of it, a recording with no room — and takes a fitting path whole.
func TestTryPathLeavesTheRestToPath(t *testing.T) {
	p := testProgram(t)
	id := p.MustBlock
	path := append(make([]program.BlockID, 0, PathWidth), id("main.loop"), id("main.exit"))
	wide := make([]program.BlockID, PathWidth+1)
	for i := range wide {
		wide[i] = id("main.entry")
	}
	roomy := func() *Trace {
		tr := New(p)
		tr.Blocks = make([]program.BlockID, 0, PathWidth)
		return tr
	}
	for _, c := range []struct {
		name     string
		tr       *Trace
		validate bool
		path     []program.BlockID
	}{
		{"validating", roomy(), true, path},
		{"wider than PathWidth", roomy(), false, wide},
		{"capacity short of PathWidth", roomy(), false, slices.Clip(path)},
		{"no room", New(p), false, path},
	} {
		if NewRecorder(c.tr, c.validate).TryPath(c.path, 7) || c.tr.Len() != 0 || c.tr.Instrs != 0 {
			t.Errorf("%s: TryPath took the path (%d events / %d instrs recorded)", c.name, c.tr.Len(), c.tr.Instrs)
		}
	}
	tr := roomy()
	if !NewRecorder(tr, false).TryPath(path, 7) || !slices.Equal(tr.Blocks, path) || tr.Instrs != 7 {
		t.Fatalf("a fitting path: %v / %d instrs recorded, want %v / 7", tr.Blocks, tr.Instrs, path)
	}
}

// TestPathEmitsEachBlock: a path is recorded as its blocks, one event
// each, by a validating recorder block by block and by a non-validating
// one in one copy, across growth steps too.
func TestPathEmitsEachBlock(t *testing.T) {
	p := testProgram(t)
	id := p.MustBlock
	entry := []program.BlockID{id("main.entry")}
	iter := []program.BlockID{id("main.loop"), id("main.callh"), id("helper.entry"), id("helper.ret"), id("main.back")}
	exit := []program.BlockID{id("main.loop"), id("main.exit")}
	instrs := func(path []program.BlockID) (n uint64) {
		for _, b := range path {
			n += uint64(p.Block(b).Size)
		}
		return n
	}
	record := func(validate bool) *Trace {
		tr := New(p)
		r := NewRecorder(tr, validate)
		r.Path(entry, instrs(entry))
		for i := 0; i < minGrow; i++ {
			r.Path(iter, instrs(iter))
		}
		r.Path(exit, instrs(exit))
		if r.Err() != nil {
			t.Fatalf("validate=%v: %v", validate, r.Err())
		}
		return tr
	}
	want := New(p)
	emitRun(t, p, NewRecorder(want, true), minGrow)
	for _, validate := range []bool{true, false} {
		if got := record(validate); got.Instrs != want.Instrs || !slices.Equal(got.Blocks, want.Blocks) {
			t.Errorf("validate=%v: %d events / %d instrs, want %d / %d (or contents differ)",
				validate, got.Len(), got.Instrs, want.Len(), want.Instrs)
		}
	}
}

// Property: every dynamic transition recorded by a validating recorder
// that reports no error is a legal static edge (returns validated via
// the stack).
func TestDynamicEdgesAreStaticEdges(t *testing.T) {
	p := testProgram(t)
	tr := New(p)
	r := NewRecorder(tr, true)
	emitRun(t, p, r, 10)
	if err := r.Err(); err != nil {
		t.Fatalf("validation: %v", err)
	}
	for i := 1; i < tr.Len(); i++ {
		from, to := tr.Blocks[i-1], tr.Blocks[i]
		if !p.ValidEdge(from, to) {
			t.Fatalf("recorded transition %s -> %s is not a static edge",
				p.Block(from).Name, p.Block(to).Name)
		}
	}
}

// TestRecordingAcrossGrowthSteps: the recorder grows Trace.Blocks
// itself (doubling from minGrow) rather than through append. A
// recording that crosses several growth steps, block by block through
// a validating recorder or path by path through the fixed-size store
// of a non-validating one, must be exactly the events, marks and
// instruction count a naive append gives, must have been moved into at
// most four slices on the way (64K, 128K, 256K, 512K events — so less
// than its final size was ever copied).
func TestRecordingAcrossGrowthSteps(t *testing.T) {
	p := testProgram(t)
	const iters = 60_000 // 5 events each: > 256K events
	record := func(markEvery int, fixed bool) (*Trace, *Trace, int) {
		got, want := New(p), New(p)
		r := NewRecorder(got, !fixed)
		grows, lastCap := 0, 0
		emit := func(names ...string) {
			path := make([]program.BlockID, 0, PathWidth)
			var instrs uint64
			for _, name := range names {
				b := p.MustBlock(name)
				path = append(path, b)
				instrs += uint64(p.Block(b).Size)
			}
			if fixed {
				r.Path(path, instrs)
			} else {
				for _, b := range path {
					r.Block(b)
				}
			}
			want.Blocks = append(want.Blocks, path...)
			want.Instrs += instrs
			if c := cap(got.Blocks); c != lastCap {
				if c < minGrow || (lastCap != 0 && c != 2*lastCap) {
					t.Fatalf("capacity went %d -> %d events", lastCap, c)
				}
				grows, lastCap = grows+1, c
			}
		}
		emit("main.entry")
		for i := 0; i < iters; i++ {
			if i%markEvery == 0 {
				label := "q" + string(rune('a'+i/markEvery%26))
				r.Mark(label)
				want.Marks = append(want.Marks, Mark{Pos: len(want.Blocks), Label: label})
			}
			emit("main.loop", "main.callh", "helper.entry", "helper.ret", "main.back")
		}
		emit("main.loop", "main.exit")
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		return got, want, grows
	}
	equal := func(what string, got, want *Trace) {
		t.Helper()
		if got.Instrs != want.Instrs || !slices.Equal(got.Blocks, want.Blocks) || !slices.Equal(got.Marks, want.Marks) {
			t.Fatalf("%s: %d events / %d instrs / %d marks, want %d / %d / %d (or contents differ)", what,
				got.Len(), got.Instrs, len(got.Marks), want.Len(), want.Instrs, len(want.Marks))
		}
	}

	for _, fixed := range []bool{false, true} {
		how := "block by block"
		if fixed {
			how = "fixed store"
		}
		got, want, grows := record(7_000, fixed)
		if got.Len() <= 256<<10 {
			t.Fatalf("%s: recorded %d events, want more than 256K", how, got.Len())
		}
		if grows != 4 {
			t.Fatalf("%s: recording of %d events took %d slices, want 4 (64K, 128K, 256K, 512K)", how, got.Len(), grows)
		}
		equal(how+": recording", got, want)
	}
}

// TestStorageRecorderEqualsPlain: a Storage's recorder, validating or
// storing paths, records across many chunks exactly what a plain
// recorder records — events, marks at positions counted from the start,
// instruction count — and reads any range of it back; a recorder after
// Release records into the chunks it handed back.
func TestStorageRecorderEqualsPlain(t *testing.T) {
	p := testProgram(t)
	iter := []program.BlockID{p.MustBlock("main.loop"), p.MustBlock("main.callh"), p.MustBlock("helper.entry"), p.MustBlock("helper.ret"), p.MustBlock("main.back")}
	path := append(make([]program.BlockID, 0, PathWidth), iter...)
	var instrs uint64
	for _, b := range iter {
		instrs += uint64(p.Block(b).Size)
	}
	var s Storage
	for _, validate := range []bool{true, false} {
		want := New(p)
		plain, r := NewRecorder(want, validate), s.Recorder(p, validate)
		for _, rec := range []*Recorder{plain, r} {
			rec.Block(p.MustBlock("main.entry"))
			for i := 0; i < 4*chunkEvents/len(iter); i++ {
				if i%10_000 == 0 {
					rec.Mark(fmt.Sprint("q", i))
				}
				rec.Path(path, instrs)
			}
		}
		if r.Err() != nil || len(r.full) < 3 {
			t.Fatalf("validate=%v: %v after %d full chunks", validate, r.Err(), len(r.full))
		}
		got := r.AppendEvents(nil, 0, r.Len())
		if r.Len() != want.Len() || r.Instrs() != want.Instrs || !slices.Equal(r.Marks(), want.Marks) || !slices.Equal(got, want.Blocks) {
			t.Fatalf("validate=%v: %d events / %d instrs / %d marks, plain %d / %d / %d (or contents differ)",
				validate, r.Len(), r.Instrs(), len(r.Marks()), want.Len(), want.Instrs, len(want.Marks))
		}
		for _, rg := range [][2]int{{0, 0}, {5, 9}, {chunkEvents - 3, chunkEvents + 4}, {chunkEvents, 2*chunkEvents + 1}, {r.Len() - 2, r.Len()}} {
			if got := r.AppendEvents([]program.BlockID{0}, rg[0], rg[1]); !slices.Equal(got[1:], want.Blocks[rg[0]:rg[1]]) {
				t.Fatalf("validate=%v: events %d to %d read back wrong", validate, rg[0], rg[1])
			}
		}
		kept := len(r.full) + 1
		r.Release()
		if len(s.free) != kept {
			t.Fatalf("validate=%v: storage keeps %d chunks, the recorder filled %d", validate, len(s.free), kept)
		}
	}
	n := len(s.free)
	if s.Recorder(p, false); len(s.free) != n-1 {
		t.Fatalf("a new recorder left %d of the %d kept chunks", len(s.free), n)
	}
}
