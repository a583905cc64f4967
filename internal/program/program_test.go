package program

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// buildTestProgram constructs a small two-procedure program:
//
//	main:  entry(3) -> loop(2) -cond-> body… ; calls helper; returns
//	helper: entry(4) -> ret(1)
func buildTestProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder()
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

func TestBuildBasic(t *testing.T) {
	p := buildTestProgram(t)
	if got, want := p.NumProcs(), 2; got != want {
		t.Fatalf("NumProcs = %d, want %d", got, want)
	}
	if got, want := p.NumBlocks(), 7; got != want {
		t.Fatalf("NumBlocks = %d, want %d", got, want)
	}
	if got, want := p.NumInstructions(), uint64(3+2+1+2+1+4+1); got != want {
		t.Fatalf("NumInstructions = %d, want %d", got, want)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBlockLookupAndKinds(t *testing.T) {
	p := buildTestProgram(t)
	loop, ok := p.BlockByName("main.loop")
	if !ok {
		t.Fatal("main.loop not found")
	}
	if loop.Kind != KindCondBranch {
		t.Fatalf("main.loop kind = %v, want condbranch", loop.Kind)
	}
	exit := p.MustBlock("main.exit")
	if loop.TakenSucc() != exit {
		t.Fatalf("taken successor of loop = %d, want exit %d", loop.TakenSucc(), exit)
	}
	callh := p.Block(p.MustBlock("main.callh"))
	if callh.Kind != KindCall {
		t.Fatalf("callh kind = %v, want call", callh.Kind)
	}
	if callh.Callee != p.MustProc("helper") {
		t.Fatalf("callh callee = %d, want helper", callh.Callee)
	}
	if callh.FallSucc() != p.MustBlock("main.back") {
		t.Fatal("call continuation should be main.back")
	}
	ret := p.Block(p.MustBlock("helper.ret"))
	if ret.Kind != KindReturn || len(ret.Succs) != 0 {
		t.Fatal("helper.ret should be a return with no successors")
	}
}

func TestValidEdge(t *testing.T) {
	p := buildTestProgram(t)
	id := p.MustBlock
	cases := []struct {
		from, to string
		want     bool
	}{
		{"main.entry", "main.loop", true},    // fall-through
		{"main.entry", "main.exit", false},   // not a successor
		{"main.loop", "main.callh", true},    // cond not-taken
		{"main.loop", "main.exit", true},     // cond taken
		{"main.loop", "main.back", false},    // not a successor
		{"main.callh", "helper.entry", true}, // call edge
		{"main.callh", "helper.ret", false},  // call must hit entry
		{"main.back", "main.loop", true},     // jump
		{"helper.ret", "main.back", true},    // return to continuation
		{"helper.ret", "main.entry", false},  // not a continuation
	}
	for _, c := range cases {
		if got := p.ValidEdge(id(c.from), id(c.to)); got != c.want {
			t.Errorf("ValidEdge(%s -> %s) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("unknown branch target", func(t *testing.T) {
		b := NewBuilder()
		pr := b.Proc("f", "m")
		pr.Cond("entry", 1, "nowhere")
		pr.Ret("r", 1)
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unknown label") {
			t.Fatalf("want unknown-label error, got %v", err)
		}
	})
	t.Run("unknown callee", func(t *testing.T) {
		b := NewBuilder()
		pr := b.Proc("f", "m")
		pr.Call("entry", 1, "ghost")
		pr.Ret("r", 1)
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unknown procedure") {
			t.Fatalf("want unknown-procedure error, got %v", err)
		}
	})
	t.Run("fall off end", func(t *testing.T) {
		b := NewBuilder()
		b.Proc("f", "m").Fall("entry", 1)
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "falls off") {
			t.Fatalf("want falls-off-end error, got %v", err)
		}
	})
	t.Run("empty proc", func(t *testing.T) {
		b := NewBuilder()
		b.Proc("f", "m")
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "no blocks") {
			t.Fatalf("want no-blocks error, got %v", err)
		}
	})
	t.Run("call needs continuation", func(t *testing.T) {
		b := NewBuilder()
		b.Proc("g", "m").Ret("entry", 1)
		b.Proc("f", "m").Call("entry", 1, "g")
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "continuation") {
			t.Fatalf("want continuation error, got %v", err)
		}
	})
}

func TestBuilderPanicsOnDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on duplicate proc name")
		}
	}()
	b := NewBuilder()
	b.Proc("f", "m")
	b.Proc("f", "m")
}

func TestOriginalLayout(t *testing.T) {
	p := buildTestProgram(t)
	l := OriginalLayout(p)
	if err := l.Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Blocks must be consecutive in declaration order starting at 0.
	var want uint64
	for i := range p.Procs {
		for _, bid := range p.Procs[i].Blocks {
			if got := l.AddrOf(bid); got != want {
				t.Fatalf("block %s addr = %d, want %d", p.Block(bid).Name, got, want)
			}
			want += p.Block(bid).SizeBytes()
		}
	}
	if l.End != want {
		t.Fatalf("End = %d, want %d", l.End, want)
	}
	if l.End != p.NumInstructions()*InstrBytes {
		t.Fatalf("End = %d, want %d bytes", l.End, p.NumInstructions()*InstrBytes)
	}
}

func TestLayoutValidateCatchesOverlap(t *testing.T) {
	p := buildTestProgram(t)
	l := OriginalLayout(p)
	// Force an overlap.
	l.Addr[l.Order[1]] = l.Addr[l.Order[0]]
	if err := l.Validate(p); err == nil {
		t.Fatal("Validate should reject overlapping blocks")
	}
}

func TestLayoutValidateCatchesDuplicateOrder(t *testing.T) {
	p := buildTestProgram(t)
	l := OriginalLayout(p)
	l.Order[1] = l.Order[0]
	if err := l.Validate(p); err == nil {
		t.Fatal("Validate should reject duplicated order entries")
	}
}

// Property: NewLayoutFromOrder over any permutation yields a valid
// layout whose End equals the total code size.
func TestLayoutPermutationProperty(t *testing.T) {
	p := buildTestProgram(t)
	n := p.NumBlocks()
	f := func(seed uint32) bool {
		// Derive a permutation from the seed (Fisher–Yates with an
		// xorshift generator, no external deps).
		order := make([]BlockID, n)
		for i := range order {
			order[i] = BlockID(i)
		}
		s := seed | 1
		for i := n - 1; i > 0; i-- {
			s ^= s << 13
			s ^= s >> 17
			s ^= s << 5
			j := int(s) % (i + 1)
			if j < 0 {
				j = -j
			}
			order[i], order[j] = order[j], order[i]
		}
		l := NewLayoutFromOrder("perm", p, order)
		return l.Validate(p) == nil && l.End == p.NumInstructions()*InstrBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewLayoutFromAddrsSortsAndComputesEnd(t *testing.T) {
	p := buildTestProgram(t)
	addr := make([]uint64, p.NumBlocks())
	// Reverse layout with gaps.
	var a uint64 = 1 << 20
	for i := p.NumBlocks() - 1; i >= 0; i-- {
		addr[BlockID(i)] = a
		a += p.Block(BlockID(i)).SizeBytes() + 64
	}
	l := NewLayoutFromAddrs("gappy", p, addr)
	if err := l.Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if l.Order[0] != BlockID(p.NumBlocks()-1) {
		t.Fatalf("first block in order = %d, want %d", l.Order[0], p.NumBlocks()-1)
	}
	wantEnd := addr[0] + p.Block(0).SizeBytes()
	if l.End != wantEnd {
		t.Fatalf("End = %d, want %d", l.End, wantEnd)
	}
}

func TestBlockKindString(t *testing.T) {
	kinds := map[BlockKind]string{
		KindFallThrough: "fallthrough",
		KindCondBranch:  "condbranch",
		KindJump:        "jump",
		KindCall:        "call",
		KindReturn:      "return",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", uint8(k), got, want)
		}
	}
	if !KindCondBranch.IsBranch() || !KindJump.IsBranch() || KindCall.IsBranch() {
		t.Error("IsBranch misclassifies kinds")
	}
}

func TestColdProcAndAutoLabels(t *testing.T) {
	b := NewBuilder()
	c := b.ColdProc("unused_error_path", "elog")
	c.Fall("", 2) // auto label b0
	c.Ret("", 1)  // auto label b1
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	pr, _ := p.ProcByName("unused_error_path")
	if !pr.Cold {
		t.Fatal("proc should be cold")
	}
	if _, ok := p.BlockByName("unused_error_path.b0"); !ok {
		t.Fatal("auto label b0 missing")
	}
}

// TestBlockIDIsTwoBytes pins the width of a trace event: widening
// BlockID doubles every recorded trace, so it has to be a deliberate
// change of this test.
func TestBlockIDIsTwoBytes(t *testing.T) {
	if got := reflect.TypeOf(BlockID(0)).Size(); got != 2 {
		t.Fatalf("BlockID is %d bytes, want 2", got)
	}
	if int(NoBlock) != MaxBlocks {
		t.Fatalf("NoBlock %d is not the first ID past MaxBlocks %d", NoBlock, MaxBlocks)
	}
}

// TestBuildBlockLimit: an image of MaxBlocks blocks builds, with its
// last block at the last valid ID; one more block is an error that
// names the count, never a wrapped BlockID.
func TestBuildBlockLimit(t *testing.T) {
	build := func(n int) (*Program, error) {
		b := NewBuilder()
		pr := b.Proc("f", "m")
		for i := 0; i < n-1; i++ {
			pr.Fall("", 1)
		}
		pr.Ret("", 1)
		return b.Build()
	}
	p, err := build(MaxBlocks)
	if err != nil {
		t.Fatalf("%d blocks: %v", MaxBlocks, err)
	}
	if last := p.Procs[0].Blocks[MaxBlocks-1]; last != NoBlock-1 || p.Block(last).Kind != KindReturn {
		t.Fatalf("last block is %d (%s), want %d, the return", last, p.Block(last).Kind, NoBlock-1)
	}
	if _, err := build(MaxBlocks + 1); err == nil || !strings.Contains(err.Error(), "65536 blocks") {
		t.Fatalf("%d blocks: want an error naming the count, got %v", MaxBlocks+1, err)
	}
}
