package core

import (
	"testing"

	"repro/internal/profile"
	"repro/internal/program"
)

// figure3 reconstructs the paper's Figure 3 weighted graph (node
// weights and branch probabilities scaled by 10 to integer counts):
//
//	A1(100) -1.0-> A2(100) -0.9-> A3(100) -0.55-> A4(60) -0.6-> A7(76) -1.0-> A8(100)
//	A2 -0.1-> B1(10)            A3 -0.45-> A5(45)  A4 -0.4-> A6(24)
//	A8 -> {A6: .35, B1: .35, C5: .30}   A5 -1.0-> A7   A6 -1.0-> A7
//
// With ExecThresh 40 (paper: 4) and BranchThresh 0.4 the builder must
// produce main trace A1,A2,A3,A4,A7,A8 and secondary trace {A5}; B1
// and C5 are discarded by the branch threshold and A6 by the exec
// threshold.
func figure3(t *testing.T) (*program.Program, *profile.Profile) {
	t.Helper()
	b := program.NewBuilder()
	f := b.Proc("A", "fig3")
	f.Fall("A1", 4)
	f.Cond("A2", 4, "B1")
	f.Cond("A3", 4, "A5")
	f.Cond("A4", 4, "A6")
	f.Cond("A5", 4, "A7")
	f.Fall("A6", 4)
	f.Fall("A7", 4)
	f.Cond("A8", 4, "C5")
	f.Fall("B1", 8)
	f.Ret("C5", 8)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr := profile.New(p)
	w := map[string]uint64{
		"A1": 100, "A2": 100, "A3": 100, "A4": 60, "A5": 45,
		"A6": 24, "A7": 76, "A8": 100, "B1": 10, "C5": 30,
	}
	for name, c := range w {
		pr.BlockCount[p.MustBlock("A."+name)] = c
		pr.DynBlocks += c
	}
	e := func(from, to string, c uint64) {
		pr.EdgeCount[profile.Edge{
			From: p.MustBlock("A." + from),
			To:   p.MustBlock("A." + to),
		}] = c
	}
	e("A1", "A2", 100)
	e("A2", "A3", 90)
	e("A2", "B1", 10)
	e("A3", "A4", 55)
	e("A3", "A5", 45)
	e("A4", "A7", 36)
	e("A4", "A6", 24)
	e("A5", "A7", 45)
	e("A6", "A7", 24)
	e("A7", "A8", 76)
	e("A8", "A6", 35)
	e("A8", "B1", 35)
	e("A8", "C5", 30)
	return p, pr
}

func fig3Params() Params {
	return Params{ExecThreshold: 40, BranchThreshold: 0.4, CacheBytes: 1024, CFABytes: 256}
}

func names(p *program.Program, ids []program.BlockID) []string {
	out := make([]string, len(ids))
	for i, b := range ids {
		out[i] = p.Block(b).Name
	}
	return out
}

func equalNames(got []string, want ...string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestPaperFigure3 checks the worked example of Section 5.2 verbatim.
func TestPaperFigure3(t *testing.T) {
	p, pr := figure3(t)
	visited := make([]bool, p.NumBlocks())
	seqs := BuildSequences(pr, []program.BlockID{p.MustBlock("A.A1")}, fig3Params(), visited)
	if len(seqs) != 2 {
		t.Fatalf("got %d sequences, want 2 (main + secondary)", len(seqs))
	}
	if !equalNames(names(p, seqs[0].Blocks), "A.A1", "A.A2", "A.A3", "A.A4", "A.A7", "A.A8") {
		t.Fatalf("main trace = %v", names(p, seqs[0].Blocks))
	}
	if seqs[0].Secondary {
		t.Fatal("first trace must be the main trace")
	}
	if !equalNames(names(p, seqs[1].Blocks), "A.A5") {
		t.Fatalf("secondary trace = %v, want [A.A5]", names(p, seqs[1].Blocks))
	}
	if !seqs[1].Secondary {
		t.Fatal("A5 trace must be marked secondary")
	}
	// B1 (branch threshold), C5 (branch threshold) and A6 (exec
	// threshold) must remain outside all sequences.
	for _, n := range []string{"A.B1", "A.C5", "A.A6"} {
		if visited[p.MustBlock(n)] {
			t.Errorf("%s must not be part of any sequence", n)
		}
	}
}

func TestBuildAllSequencesCoversEveryExecutedBlock(t *testing.T) {
	p, pr := figure3(t)
	seqs, firstPass := BuildAllSequences(pr, []program.BlockID{p.MustBlock("A.A1")}, fig3Params())
	if firstPass != 2 {
		t.Fatalf("firstPass = %d, want 2", firstPass)
	}
	in := make(map[program.BlockID]int)
	for _, s := range seqs {
		for _, b := range s.Blocks {
			in[b]++
		}
	}
	for _, b := range pr.ExecutedBlocks() {
		if in[b] != 1 {
			t.Errorf("executed block %s appears %d times in sequences, want 1",
				p.Block(b).Name, in[b])
		}
	}
}

func TestAutoSeedsOrder(t *testing.T) {
	b := program.NewBuilder()
	for _, n := range []string{"f", "g", "h"} {
		b.Proc(n, "m").Ret("entry", 4)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr := profile.New(p)
	pr.BlockCount[p.MustBlock("f.entry")] = 5
	pr.BlockCount[p.MustBlock("g.entry")] = 50
	// h never executed.
	seeds := AutoSeeds(pr)
	if len(seeds) != 2 {
		t.Fatalf("got %d seeds, want 2 (cold procs excluded)", len(seeds))
	}
	if seeds[0] != p.MustBlock("g.entry") || seeds[1] != p.MustBlock("f.entry") {
		t.Fatal("seeds must be sorted by decreasing popularity")
	}
}

func TestOpsSeedsFiltersAndSorts(t *testing.T) {
	b := program.NewBuilder()
	for _, n := range []string{"ExecSeqScan", "ExecHashJoin", "ExecSort", "helper"} {
		b.Proc(n, "executor").Ret("entry", 4)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr := profile.New(p)
	pr.BlockCount[p.MustBlock("ExecSeqScan.entry")] = 10
	pr.BlockCount[p.MustBlock("ExecHashJoin.entry")] = 30
	pr.BlockCount[p.MustBlock("helper.entry")] = 99 // not an op: must not appear
	seeds := OpsSeeds(pr, []string{"ExecSeqScan", "ExecHashJoin", "ExecSort", "NoSuchOp"})
	if len(seeds) != 2 {
		t.Fatalf("got %d seeds, want 2", len(seeds))
	}
	if seeds[0] != p.MustBlock("ExecHashJoin.entry") || seeds[1] != p.MustBlock("ExecSeqScan.entry") {
		t.Fatalf("ops seeds wrong order")
	}
}

// mapProgram builds one proc with uniformly sized blocks for mapping
// tests: each block is 16 bytes (4 instructions).
func mapProgram(t *testing.T, n int) *program.Program {
	t.Helper()
	b := program.NewBuilder()
	f := b.Proc("f", "m")
	for i := 0; i < n-1; i++ {
		f.Fall("", 4)
	}
	f.Ret("", 4)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func seqOf(ids ...program.BlockID) Sequence { return Sequence{Blocks: ids} }

func TestMapSequencesCFAAndChunks(t *testing.T) {
	// 12 blocks of 16 bytes. Cache 64 bytes, CFA 32 bytes.
	p := mapProgram(t, 12)
	params := Params{CacheBytes: 64, CFABytes: 32}
	// First pass: seq0 (2 blocks = 32B: fills CFA exactly),
	// seq1 (1 block: does not fit CFA anymore -> non-CFA area).
	// Later: seq2 (2 blocks = 32B: fills chunk0 non-CFA after... seq1
	// took 16B of chunk0's 32B non-CFA, so seq2 moves to chunk1),
	// seq3 (1 block: fits chunk1 remainder).
	seqs := []Sequence{
		seqOf(0, 1),
		seqOf(2),
		seqOf(3, 4),
		seqOf(5),
	}
	l, err := MapSequences("stc", p, seqs, 2, params)
	if err != nil {
		t.Fatal(err)
	}
	want := map[program.BlockID]uint64{
		0: 0,  // CFA
		1: 16, // CFA
		2: 32, // chunk0 non-CFA
		3: 96, // chunk1 non-CFA start (64+32)
		4: 112,
		5: 48, // chunk0 non-CFA remainder? no: placed after seq2...
	}
	// Correction: sequences are placed in order; seq3 comes after seq2,
	// whose end is 128 = chunk2 boundary, so cursor moves to chunk2's
	// non-CFA start: 128+32 = 160.
	want[5] = 160
	for b, a := range want {
		if l.Addr[b] != a {
			t.Errorf("block %d at %d, want %d", b, l.Addr[b], a)
		}
	}
	// Cold blocks 6..11 fill after the next chunk boundary (192...).
	if l.Addr[6] != 192 {
		t.Errorf("first cold block at %d, want 192", l.Addr[6])
	}
	for i := program.BlockID(7); i < 12; i++ {
		if l.Addr[i] != l.Addr[i-1]+16 {
			t.Errorf("cold blocks must be consecutive at %d", i)
		}
	}
}

func TestMapSequencesSpanningSequenceSplits(t *testing.T) {
	// A sequence larger than the non-CFA area splits at the chunk
	// boundary: the CFA offsets of every logical cache stay free.
	p := mapProgram(t, 8)
	params := Params{CacheBytes: 64, CFABytes: 32}
	seqs := []Sequence{
		seqOf(0, 1, 2), // 48B > 32B non-CFA: splits into chunk 1
		seqOf(3),
	}
	l, err := MapSequences("stc", p, seqs, 0, params) // no CFA sequences
	if err != nil {
		t.Fatal(err)
	}
	want := map[program.BlockID]uint64{
		0: 32,  // chunk 0 non-CFA
		1: 48,  // still fits chunk 0
		2: 96,  // split: chunk 1 non-CFA start
		3: 112, // next sequence continues in chunk 1
	}
	for b, a := range want {
		if l.Addr[b] != a {
			t.Errorf("block %d at %d, want %d", b, l.Addr[b], a)
		}
	}
	// No sequence block may occupy a CFA offset of any chunk.
	for b := program.BlockID(0); b < 4; b++ {
		if off := l.Addr[b] % 64; off < 32 {
			t.Errorf("block %d at CFA offset %d", b, off)
		}
	}
}

func TestMapSequencesEmptyProfileAllCold(t *testing.T) {
	p := mapProgram(t, 4)
	params := Params{CacheBytes: 64, CFABytes: 32}
	l, err := MapSequences("stc", p, nil, 0, params)
	if err != nil {
		t.Fatal(err)
	}
	if l.Addr[0] != 0 {
		t.Fatalf("cold code must start at 0 when no sequences exist, got %d", l.Addr[0])
	}
}

func TestBuildProducesValidLayoutWithAllBlocks(t *testing.T) {
	p, pr := figure3(t)
	params := fig3Params()
	l, err := Build("stc-auto", pr, AutoSeeds(pr), params)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "stc-auto" {
		t.Fatalf("name = %q", l.Name)
	}
	// The main trace must be contiguous in the layout.
	blocks := []string{"A.A1", "A.A2", "A.A3", "A.A4", "A.A7", "A.A8"}
	for i := 1; i < len(blocks); i++ {
		prev := p.MustBlock(blocks[i-1])
		cur := p.MustBlock(blocks[i])
		if l.Addr[cur] != l.Addr[prev]+p.Block(prev).SizeBytes() {
			t.Errorf("%s must immediately follow %s", blocks[i], blocks[i-1])
		}
	}
}

func TestSequenceSizeBytes(t *testing.T) {
	p := mapProgram(t, 3)
	s := seqOf(0, 1)
	if got := s.SizeBytes(p); got != 32 {
		t.Fatalf("SizeBytes = %d, want 32", got)
	}
}
