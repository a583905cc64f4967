package stcpipe

import (
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/program"
)

// column parses column col (whitespace-separated; 0-based, or from the
// end when negative) of every line of a rendered table after the first
// skip lines.
func column(t testing.TB, table string, skip, col int) []float64 {
	t.Helper()
	var out []float64
	for _, line := range strings.Split(strings.TrimSpace(table), "\n")[skip:] {
		f := strings.Fields(line)
		i := col
		if i < 0 {
			i += len(f)
		}
		if i < 0 || i >= len(f) {
			t.Fatalf("line %q has no column %d", line, col)
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[i], "%"), 64)
		if err != nil {
			t.Fatalf("line %q column %d: %v", line, col, err)
		}
		out = append(out, v)
	}
	return out
}

// tinyReport is the smallest useful report, built once for the tests
// here: its own seed, and traces validated online against the CFG.
var tinyReport = sync.OnceValues(func() (*Report, error) {
	train, test, err := PaperTraces(0.0005, 7, Validate())
	if err != nil {
		return nil, err
	}
	return ReportOf(train, test), nil
})

// The tests below hold what the byte-exact goldens do not say about
// the paper flow — the protocol's shape and the orderings the paper's
// argument rests on, at a seed the goldens were not written with. They
// came with the flow from internal/experiments and keep their names.

func tiny(t *testing.T) *Report {
	t.Helper()
	r, err := tinyReport()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSetupProducesTraces(t *testing.T) {
	r := tiny(t)
	if r.train.Events() == 0 || r.test.Events() == 0 {
		t.Fatal("empty traces")
	}
	if n := len(r.train.MarkStats()); n != 5 {
		t.Fatalf("training marks = %d, want 5 queries", n)
	}
	if n := len(r.test.MarkStats()); n != 20 {
		t.Fatalf("test marks = %d, want 10 queries x 2 databases", n)
	}
}

func TestTable1InPaperBallpark(t *testing.T) {
	fs := tiny(t).train.Footprint()
	if fs.PctProcs() < 5 || fs.PctProcs() > 40 {
		t.Fatalf("%%procs = %v, outside plausible band", fs.PctProcs())
	}
	if fs.PctInstrs() < 3 || fs.PctInstrs() > 30 {
		t.Fatalf("%%instrs = %v", fs.PctInstrs())
	}
}

func TestFigure2Monotone(t *testing.T) {
	// The curve rows sit between the two header lines and the
	// checkpoint line.
	fig := strings.Split(strings.TrimSpace(tiny(t).Figure2()), "\n")
	curve := column(t, strings.Join(fig[:len(fig)-1], "\n"), 2, 2)
	if len(curve) < 5 {
		t.Fatal("too few curve points")
	}
	if !slices.IsSorted(curve) {
		t.Fatalf("curve not monotone: %v", curve)
	}
	if !strings.Contains(fig[len(fig)-1], "90%") {
		t.Fatal("Figure 2 format")
	}
}

// TestLayoutsAllValid: every configuration the report lays out yields
// its five layouts (a layout is checked for overlap where it is made),
// and the three CFA layouts (Torr, auto, ops: one mapper,
// core.MapSequences) keep every
// executed block outside chunk 0's CFA off offsets [0, CFABytes) of
// every chunk. Cold code is not held to that: it still starts at the
// chunk boundary after the last sequence, on CFA offsets, in every
// row (393 unexecuted blocks there at 4K/1K) — the mapper's open
// defect. Fixing it extends this one check to cold blocks.
func TestLayoutsAllValid(t *testing.T) {
	r := tiny(t)
	prog, prof := r.train.pipe.img.Prog, r.train.profileData()
	for _, p := range append([]Params{headline}, paperConfigs...) {
		cache, cfa := uint64(p.CacheBytes), uint64(p.CFABytes)
		for i, l := range r.layouts(p) {
			if i < 2 { // orig and P&H have no CFA
				continue
			}
			for b, a := range l.l.Addr {
				blk := program.BlockID(b)
				sz := prog.Block(blk).SizeBytes()
				if a+sz <= cfa {
					continue // in chunk 0's CFA
				}
				off := a % cache
				if off >= cfa && off+sz <= cache {
					continue
				}
				if prof.Weight(blk) > 0 {
					t.Errorf("%+v, layout %s: executed block %s at %d overlaps a CFA", p, l.Name(), prog.Block(blk).Name, a)
				}
			}
		}
	}
}

func TestSequentialityOrdering(t *testing.T) {
	// The paper's central claim: STC layouts beat the original layout
	// on instructions between taken branches. Rows sort by name: P&H,
	// Torr, auto, ops, orig.
	seq := column(t, tiny(t).Sequentiality(), 1, 1)
	if len(seq) != 5 {
		t.Fatalf("sequentiality rows = %d", len(seq))
	}
	if auto, ops, orig := seq[2], seq[3], seq[4]; ops <= orig || auto <= orig {
		t.Fatalf("ops (%v) and auto (%v) must beat orig (%v)", ops, auto, orig)
	}
}

func TestTable3ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	t3 := tiny(t).Table3()
	orig := column(t, t3, 2, -7)
	if len(orig) != len(paperConfigs) {
		t.Fatalf("got %d rows", len(orig))
	}
	// Miss rates must not increase with cache size for a fixed layout
	// (compare the first rows of the 1K and 8K groups, orig layout).
	if small, large := orig[0], orig[10]; large > small {
		t.Fatalf("orig misses grew with cache size: %v -> %v", small, large)
	}
	if !strings.Contains(t3, "victim") {
		t.Fatal("Table 3 format")
	}
}

func TestTable4TraceCacheSynergy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	t4 := tiny(t).Table4()
	tc, tcOps := column(t, t4, 2, -2), column(t, t4, 2, -1)
	if len(tc) != 1+len(paperConfigs) {
		t.Fatalf("got %d rows", len(tc))
	}
	// The paper's conclusion: TC+STC beats TC alone (the Ideal row).
	if !strings.HasPrefix(strings.Split(t4, "\n")[2], "Ideal") || tcOps[0] <= tc[0] {
		t.Fatalf("ideal TC+ops (%v) must beat TC (%v)", tcOps[0], tc[0])
	}
}

func TestAblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	ipc := column(t, tiny(t).Ablation(), 2, 2)
	if len(ipc) != 9 {
		t.Fatalf("got %d ablation points", len(ipc))
	}
	if slices.Min(ipc) <= 0 {
		t.Fatalf("non-positive IPC in ablation: %v", ipc)
	}
}

// TestSimulateSameAtAnyGOMAXPROCS: the fetch simulator splits a trace
// into one chunk per core, and a grid runs its cells concurrently, each
// cell as one serial walk. A paper trace long enough to split gives,
// for every layout and every kind of cache, one Result through the grid
// and through the cell's own Simulate at GOMAXPROCS 1 (one chunk: the
// serial walk) and 8.
func TestSimulateSameAtAnyGOMAXPROCS(t *testing.T) {
	r := tiny(t)
	// Two chunks of the fetch package's minimum length (64 K events).
	if n := r.test.Events(); n < 2<<16 {
		t.Fatalf("test trace has %d events, too few to split", n)
	}
	caches := []FetchConfig{
		{},
		{CacheBytes: 2048},
		{CacheBytes: 4096, Ways: 2},
		{CacheBytes: 2048, VictimEntries: 16},
		{CacheBytes: 2048, TraceCacheEntries: traceCacheEntries},
	}
	lays := r.layouts(headline)
	var cells []Cell
	for _, l := range lays {
		for _, fc := range caches {
			cells = append(cells, Cell{r.test, l, fc})
		}
	}
	type result struct{ grid, own []Result }
	at := func(procs int) (out result) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out.grid = must(SimulateGrid(cells))
		for _, c := range cells {
			out.own = append(out.own, must(r.test.Simulate(c.Layout, c.Fetch)))
		}
		return out
	}
	serial, split := at(1), at(8)
	for k, c := range cells {
		own := serial.own[k]
		if serial.grid[k] != own || split.grid[k] != own || split.own[k] != own {
			t.Errorf("%s %+v: the grid gives %+v at GOMAXPROCS 1 and %+v at 8, Simulate %+v at 1 and %+v at 8",
				c.Layout.Name(), c.Fetch, serial.grid[k], split.grid[k], own, split.own[k])
		}
	}
}
