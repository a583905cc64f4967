package program

import (
	"reflect"
	"slices"
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
	loop := p.Block(p.MustBlock("main.loop"))
	if loop.Kind != KindCondBranch {
		t.Fatalf("main.loop kind = %v, want condbranch", loop.Kind)
	}
	exit := p.MustBlock("main.exit")
	if loop.Succs[1] != exit {
		t.Fatalf("taken successor of loop = %d, want exit %d", loop.Succs[1], exit)
	}
	callh := p.Block(p.MustBlock("main.callh"))
	if callh.Kind != KindCall {
		t.Fatalf("callh kind = %v, want call", callh.Kind)
	}
	if callh.Callee != p.procByName["helper"] {
		t.Fatalf("callh callee = %d, want helper", callh.Callee)
	}
	if callh.Succs[0] != p.MustBlock("main.back") {
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
	// Blocks must be consecutive in declaration order starting at 0.
	var want uint64
	for i := range p.Procs {
		for _, bid := range p.Procs[i].Blocks {
			if got := l.Addr[bid]; got != want {
				t.Fatalf("block %s addr = %d, want %d", p.Block(bid).Name, got, want)
			}
			want += p.Block(bid).SizeBytes()
		}
	}
	if end := layoutEnd(p, l); end != p.NumInstructions()*InstrBytes {
		t.Fatalf("end = %d, want %d bytes", end, p.NumInstructions()*InstrBytes)
	}
}

// layoutEnd is the first byte address past the last block of l.
func layoutEnd(p *Program, l *Layout) uint64 {
	last := l.Order[len(l.Order)-1]
	return l.Addr[last] + p.Block(last).SizeBytes()
}

// TestLayoutValidateCatchesOverlap: a layout is checked where it is
// made. NewLayoutFromAddrs refuses blocks that overlap, a shared start
// included, naming both, and an address map of the wrong length.
func TestLayoutValidateCatchesOverlap(t *testing.T) {
	p := buildTestProgram(t)
	orig := OriginalLayout(p) // main.entry at 0, 3 instructions
	for _, c := range []struct {
		name, block string
		at          uint64
		other       string
	}{
		{"shared start", "main.loop", 0, "main.entry"},
		{"partial overlap", "main.loop", 2 * InstrBytes, "main.entry"},
		{"inside another", "main.exit", InstrBytes, "main.entry"},
	} {
		addr := slices.Clone(orig.Addr)
		addr[p.MustBlock(c.block)] = c.at
		l, err := NewLayoutFromAddrs("bad", p, addr)
		if l != nil || err == nil || !strings.Contains(err.Error(), "overlap") ||
			!strings.Contains(err.Error(), c.block) || !strings.Contains(err.Error(), c.other) {
			t.Errorf("%s: got %v, %v; want no layout and an overlap error naming %s and %s", c.name, l, err, c.block, c.other)
		}
	}
	if _, err := NewLayoutFromAddrs("short", p, orig.Addr[1:]); err == nil {
		t.Error("NewLayoutFromAddrs took one address too few")
	}
}

// TestLayoutValidateCatchesDuplicateOrder: NewLayoutFromOrder refuses
// a block that appears twice, is missing or does not exist.
func TestLayoutValidateCatchesDuplicateOrder(t *testing.T) {
	p := buildTestProgram(t)
	orig := OriginalLayout(p)
	for _, c := range []struct {
		name  string
		order []BlockID
		want  string
	}{
		{"duplicate", append([]BlockID{orig.Order[0]}, orig.Order[:len(orig.Order)-1]...), "main.entry appears twice"},
		{"missing", orig.Order[:len(orig.Order)-1], "helper.ret is missing"},
		{"unknown", append(slices.Clone(orig.Order), BlockID(p.NumBlocks())), "no block 7"},
	} {
		l, err := NewLayoutFromOrder("bad", p, c.order)
		if l != nil || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, %v; want no layout and an error containing %q", c.name, l, err, c.want)
		}
	}
}

// Property: NewLayoutFromOrder over any permutation yields a layout
// that ends at the total code size.
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
		l, err := NewLayoutFromOrder("perm", p, order)
		return err == nil && layoutEnd(p, l) == p.NumInstructions()*InstrBytes
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
	l, err := NewLayoutFromAddrs("gappy", p, addr)
	if err != nil {
		t.Fatal(err)
	}
	if l.Order[0] != BlockID(p.NumBlocks()-1) {
		t.Fatalf("first block in order = %d, want %d", l.Order[0], p.NumBlocks()-1)
	}
	wantEnd := addr[0] + p.Block(0).SizeBytes()
	if end := layoutEnd(p, l); end != wantEnd {
		t.Fatalf("end = %d, want %d", end, wantEnd)
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
	if _, ok := p.blockByName["unused_error_path.b0"]; !ok {
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
