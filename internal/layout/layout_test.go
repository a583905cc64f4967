package layout

import (
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/profile/profiletest"
	"repro/internal/program"
	"repro/internal/trace"
)

// callerProgram: main calls two helpers with different frequencies and
// has a hot and a cold intra-procedure path.
func callerProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder()
	m := b.Proc("main", "core")
	m.Cond("entry", 4, "cold") // hot fall-through, rare branch to cold
	m.Call("callhot", 2, "hot")
	m.Call("callrare", 2, "rare")
	m.Jump("loop", 2, "entry")
	m.Fall("cold", 6)
	m.Ret("exit", 2)
	h := b.Proc("hot", "lib")
	h.Ret("entry", 4)
	r := b.Proc("rare", "lib")
	r.Ret("entry", 4)
	c := b.ColdProc("never", "error")
	c.Ret("entry", 12)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// run produces a trace with n loop iterations; helpers called each
// iteration, "rare" only every 10th.
func run(t *testing.T, p *program.Program, n int) *profile.Profile {
	t.Helper()
	tr := trace.New(p)
	rec := trace.NewRecorder(tr, true)
	id := p.MustBlock
	for i := 0; i < n; i++ {
		rec.Block(id("main.entry"))
		rec.Block(id("main.callhot"))
		rec.Block(id("hot.entry"))
		rec.Block(id("main.callrare"))
		if i%10 == 9 {
			rec.Block(id("rare.entry"))
			// Return goes to main.loop.
		} else {
			rec.Block(id("rare.entry"))
		}
		rec.Block(id("main.loop"))
	}
	rec.Block(id("main.entry"))
	rec.Block(id("main.cold"))
	rec.Block(id("main.exit"))
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	return profiletest.FromTrace(tr)
}

func TestPettisHansenValidAndHotFirst(t *testing.T) {
	p := callerProgram(t)
	pr := run(t, p, 100)
	l, err := PettisHansen(pr)
	if err != nil {
		t.Fatal(err)
	}
	// Every executed block must precede every never-executed block.
	var maxHot, minCold uint64 = 0, ^uint64(0)
	for b := 0; b < p.NumBlocks(); b++ {
		a := l.Addr[program.BlockID(b)]
		if pr.Weight(program.BlockID(b)) > 0 {
			if a > maxHot {
				maxHot = a
			}
		} else if a < minCold {
			minCold = a
		}
	}
	if maxHot >= minCold {
		t.Fatalf("hot code (max %d) must precede fluff (min %d)", maxHot, minCold)
	}
}

func TestPettisHansenChainsHotPath(t *testing.T) {
	p := callerProgram(t)
	pr := run(t, p, 100)
	l, err := PettisHansen(pr)
	if err != nil {
		t.Fatal(err)
	}
	// Within main, the hot chain entry->callhot->callrare->loop must be
	// consecutive (each chained along the heaviest edges).
	chain := []string{"main.entry", "main.callhot", "main.callrare", "main.loop"}
	for i := 1; i < len(chain); i++ {
		prev, cur := p.MustBlock(chain[i-1]), p.MustBlock(chain[i])
		if l.Addr[cur] != l.Addr[prev]+p.Block(prev).SizeBytes() {
			t.Errorf("%s should fall through to %s", chain[i-1], chain[i])
		}
	}
}

func TestPettisHansenPlacesCallersNearCallees(t *testing.T) {
	p := callerProgram(t)
	pr := run(t, p, 100)
	l, err := PettisHansen(pr)
	if err != nil {
		t.Fatal(err)
	}
	// "hot" is called 101 times, "rare" 101 times too (both called per
	// iteration in this trace), "never" not at all: never must be last.
	never := l.Addr[p.MustBlock("never.entry")]
	for _, n := range []string{"main", "hot", "rare"} {
		if l.Addr[p.MustBlock(n+".entry")] > never {
			t.Errorf("executed proc %s placed after cold proc", n)
		}
	}
}

func TestTorrellasCFAHoldsTopBlocks(t *testing.T) {
	p := callerProgram(t)
	pr := run(t, p, 100)
	params := core.Params{
		ExecThreshold:   10,
		BranchThreshold: 0.3,
		CacheBytes:      128,
		CFABytes:        32,
	}
	l, err := Torrellas(pr, params)
	if err != nil {
		t.Fatal(err)
	}
	// The most popular blocks (by count) must occupy [0, CFABytes).
	blocks := pr.ExecutedBlocks()
	var cfaBytes uint64
	for _, b := range blocks {
		sz := p.Block(b).SizeBytes()
		if cfaBytes+sz > uint64(params.CFABytes) {
			break
		}
		if l.Addr[b] != cfaBytes {
			t.Errorf("popular block %s at %d, want %d (in CFA)",
				p.Block(b).Name, l.Addr[b], cfaBytes)
		}
		cfaBytes += sz
	}
	// Non-CFA blocks must avoid [0, CFABytes) offsets... only within
	// the sequence-mapped region; cold code may use any offset. Check
	// executed blocks outside the CFA don't sit below CFABytes in
	// chunk 0.
	for _, b := range blocks {
		a := l.Addr[b]
		if a < cfaBytes {
			continue // CFA members
		}
		if a < uint64(params.CFABytes) {
			t.Errorf("executed non-CFA block %s at %d overlaps the CFA",
				p.Block(b).Name, a)
		}
	}
}

func TestAllLayoutsAreValidPermutations(t *testing.T) {
	p := callerProgram(t)
	pr := run(t, p, 30)
	params := core.Params{ExecThreshold: 5, BranchThreshold: 0.3, CacheBytes: 256, CFABytes: 64}
	for name, build := range map[string]func() (*program.Layout, error){
		"P&H":  func() (*program.Layout, error) { return PettisHansen(pr) },
		"Torr": func() (*program.Layout, error) { return Torrellas(pr, params) },
		"stc":  func() (*program.Layout, error) { return core.Build("stc", pr, core.AutoSeeds(pr), params) },
	} {
		if l, err := build(); err != nil {
			t.Errorf("layout %s: %v", name, err)
		} else if l.Name != name {
			t.Errorf("layout %s is named %q", name, l.Name)
		}
	}
}
