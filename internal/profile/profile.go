// Package profile aggregates dynamic basic-block traces into the
// weighted control-flow graph used by the layout algorithms, and
// computes the locality characterizations of Section 4 of the paper:
// static-vs-executed footprint (Table 1), cumulative reference
// concentration (Figure 2), temporal reuse distance (Section 4.1) and
// block-type/predictability classification (Table 2).
package profile

import (
	"sort"

	"repro/internal/program"
	"repro/internal/trace"
)

// Edge is a dynamic transition between two basic blocks.
type Edge struct {
	From, To program.BlockID
}

// Profile is the weighted CFG obtained from one or more traces.
type Profile struct {
	Prog *program.Program
	// BlockCount[b] is the number of times block b executed.
	BlockCount []uint64
	// EdgeCount holds dynamic transition counts, including call edges
	// (call block -> callee entry) and return edges (return block ->
	// continuation).
	EdgeCount map[Edge]uint64
	// DynBlocks and DynInstrs are the dynamic block and instruction
	// totals.
	DynBlocks uint64
	DynInstrs uint64

	succs [][]EdgeWeight // lazily built adjacency, indexed by BlockID
}

// EdgeWeight is one outgoing transition with its dynamic count.
type EdgeWeight struct {
	To    program.BlockID
	Count uint64
}

// New returns an empty profile for the given program image.
func New(p *program.Program) *Profile {
	return &Profile{
		Prog:       p,
		BlockCount: make([]uint64, p.NumBlocks()),
		EdgeCount:  make(map[Edge]uint64),
	}
}

// FromTrace builds a profile from a single trace.
func FromTrace(t *trace.Trace) *Profile {
	p := New(t.Program())
	p.AddTrace(t)
	return p
}

// AddTrace accumulates a trace into the profile.
//
// The trace is split into one chunk per core, each at least 64 K events
// (trace.ChunkCount), and the chunks are counted concurrently. Each
// counts the transitions into its events, so a chunk after the first
// starts from the event before it. A block has a handful of dynamic
// successors, so a chunk counts in per-source successor chains (see
// chains): a few compares per event, where a map increment hashes. The
// later chunks' chains are merged into the first's, and EdgeCount is
// filled once at the end, one update per distinct edge. Every event but
// the trace's first is the target of exactly one of its transitions, so
// BlockCount and DynInstrs come from the merged in-edges and that first
// event, not from a count per event.
func (p *Profile) AddTrace(t *trace.Trace) { p.addTrace(t, trace.ChunkCount(t.Len())) }

// addTrace is AddTrace over a given number of chunks (capped at one per
// event).
func (p *Profile) addTrace(t *trace.Trace, chunks int) {
	p.succs = nil // invalidate adjacency cache
	blocks := t.Blocks
	n := len(blocks)
	if n == 0 {
		return
	}
	chunks = max(1, min(chunks, n))
	cs := make([]chains, chunks)
	trace.Parallel(chunks, func(k int) {
		from := max(trace.ChunkStart(k, chunks, n)-1, 0)
		cs[k] = newChains(p.Prog.NumBlocks())
		cs[k].count(blocks[from:trace.ChunkStart(k+1, chunks, n)])
	})
	all := &cs[0]
	for _, c := range cs[1:] {
		for from, i := range c.head {
			for ; i != 0; i = c.succ[i].next {
				all.succ[all.slot(program.BlockID(from), c.succ[i].to)].count += c.succ[i].count
			}
		}
	}
	first := blocks[0]
	p.BlockCount[first]++
	p.DynInstrs += uint64(p.Prog.Block(first).Size)
	for from, i := range all.head {
		for ; i != 0; i = all.succ[i].next {
			e := &all.succ[i]
			p.EdgeCount[Edge{program.BlockID(from), e.to}] += e.count
			p.BlockCount[e.to] += e.count
			p.DynInstrs += e.count * uint64(p.Prog.Block(e.to).Size)
		}
	}
	p.DynBlocks += uint64(n)
}

// chains counts transitions in per-source successor chains held in one
// slice: head[b] starts block b's chain, succ[i].next links it, in order
// of first occurrence; 0 ends a chain, so slot 0 is a dummy. (The widest
// block of the kernel has eight successors; moving the hot one to the
// front measured slower.)
type chains struct {
	head []int32
	succ []successor
}

type successor struct {
	to    program.BlockID
	next  int32
	count uint64
}

func newChains(blocks int) chains {
	return chains{head: make([]int32, blocks), succ: make([]successor, 1, 1024)}
}

// count counts the transitions between consecutive events.
func (c *chains) count(events []program.BlockID) {
	for j := 1; j < len(events); j++ {
		c.succ[c.slot(events[j-1], events[j])].count++
	}
}

// slot returns the index of the transition from -> to in succ, adding
// it to from's chain if it is not there yet.
func (c *chains) slot(from, to program.BlockID) int32 {
	prev, i := int32(0), c.head[from]
	for i != 0 && c.succ[i].to != to {
		prev, i = i, c.succ[i].next
	}
	if i != 0 {
		return i
	}
	c.succ = append(c.succ, successor{to: to})
	if i = int32(len(c.succ) - 1); prev == 0 {
		c.head[from] = i
	} else {
		c.succ[prev].next = i
	}
	return i
}

// Weight returns the execution count of block b.
func (p *Profile) Weight(b program.BlockID) uint64 { return p.BlockCount[b] }

// ProcWeight returns the execution count of a procedure's entry block,
// the popularity measure used for seed selection.
func (p *Profile) ProcWeight(id program.ProcID) uint64 {
	return p.BlockCount[p.Prog.Procs[id].Entry]
}

// Succs returns the dynamic successors of block b with their counts,
// sorted by decreasing count (ties broken by BlockID for determinism).
func (p *Profile) Succs(b program.BlockID) []EdgeWeight {
	if p.succs == nil {
		p.buildAdjacency()
	}
	return p.succs[b]
}

func (p *Profile) buildAdjacency() {
	p.succs = make([][]EdgeWeight, p.Prog.NumBlocks())
	for e, c := range p.EdgeCount {
		p.succs[e.From] = append(p.succs[e.From], EdgeWeight{To: e.To, Count: c})
	}
	for _, s := range p.succs {
		sort.Slice(s, func(i, j int) bool {
			if s[i].Count != s[j].Count {
				return s[i].Count > s[j].Count
			}
			return s[i].To < s[j].To
		})
	}
}

// ExecutedBlocks returns the IDs of all blocks with non-zero count,
// sorted by decreasing count (ties by ID).
func (p *Profile) ExecutedBlocks() []program.BlockID {
	var out []program.BlockID
	for b, c := range p.BlockCount {
		if c > 0 {
			out = append(out, program.BlockID(b))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := p.BlockCount[out[i]], p.BlockCount[out[j]]
		if ci != cj {
			return ci > cj
		}
		return out[i] < out[j]
	})
	return out
}

// FootprintStats is Table 1 of the paper: total static program
// elements and the fraction actually executed by the training set.
type FootprintStats struct {
	TotalProcs, ExecProcs   int
	TotalBlocks, ExecBlocks int
	TotalInstrs, ExecInstrs uint64
}

// PctProcs returns the executed-procedure percentage.
func (f FootprintStats) PctProcs() float64 { return pct(uint64(f.ExecProcs), uint64(f.TotalProcs)) }

// PctBlocks returns the executed-block percentage.
func (f FootprintStats) PctBlocks() float64 { return pct(uint64(f.ExecBlocks), uint64(f.TotalBlocks)) }

// PctInstrs returns the executed-instruction percentage.
func (f FootprintStats) PctInstrs() float64 { return pct(f.ExecInstrs, f.TotalInstrs) }

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Footprint computes Table 1.
func (p *Profile) Footprint() FootprintStats {
	var fs FootprintStats
	fs.TotalProcs = p.Prog.NumProcs()
	fs.TotalBlocks = p.Prog.NumBlocks()
	fs.TotalInstrs = p.Prog.NumInstructions()
	procExec := make([]bool, p.Prog.NumProcs())
	for b, c := range p.BlockCount {
		if c == 0 {
			continue
		}
		blk := p.Prog.Block(program.BlockID(b))
		fs.ExecBlocks++
		fs.ExecInstrs += uint64(blk.Size)
		procExec[blk.Proc] = true
	}
	for _, e := range procExec {
		if e {
			fs.ExecProcs++
		}
	}
	return fs
}

// CumulativeRefs computes Figure 2: element i of the result is the
// fraction (0..1) of all dynamic block references captured by the i+1
// most popular static blocks.
func (p *Profile) CumulativeRefs() []float64 {
	blocks := p.ExecutedBlocks()
	out := make([]float64, len(blocks))
	var cum uint64
	for i, b := range blocks {
		cum += p.BlockCount[b]
		out[i] = float64(cum) / float64(p.DynBlocks)
	}
	return out
}

// BlocksForCoverage returns the smallest number of most-popular static
// blocks that capture at least frac (0..1) of dynamic references.
func (p *Profile) BlocksForCoverage(frac float64) int {
	cum := p.CumulativeRefs()
	for i, f := range cum {
		if f >= frac {
			return i + 1
		}
	}
	return len(cum)
}

// PopularSet returns the set of most popular blocks that together
// capture at least frac of the dynamic references (the paper's
// "subset ... which concentrate 75% of the dynamic basic block
// references").
func (p *Profile) PopularSet(frac float64) map[program.BlockID]bool {
	blocks := p.ExecutedBlocks()
	set := make(map[program.BlockID]bool)
	var cum uint64
	target := frac * float64(p.DynBlocks)
	for _, b := range blocks {
		if float64(cum) >= target {
			break
		}
		set[b] = true
		cum += p.BlockCount[b]
	}
	return set
}
