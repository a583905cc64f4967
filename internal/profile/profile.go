// Package profile holds the weighted control-flow graph of one or more
// dynamic basic-block traces, the input of the layout algorithms, and
// computes the locality characterizations of Section 4 of the paper:
// static-vs-executed footprint (Table 1), cumulative reference
// concentration (Figure 2), temporal reuse distance (Section 4.1) and
// block-type/predictability classification (Table 2).
//
// The package walks no trace to count the graph: the kernel image
// assembles it from the probe-pair counts its sessions take while they
// record (kernel.Image.Profile), and the serial walk over the events
// lives on only as the tests' reference (package profiletest).
package profile

import (
	"sort"

	"repro/internal/program"
)

// Edge is a dynamic transition between two basic blocks.
type Edge struct {
	From, To program.BlockID
}

// Profile is the weighted CFG of one or more traces.
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
