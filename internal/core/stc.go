// Package core implements the paper's primary contribution: the
// Software Trace Cache (STC) basic-block reordering algorithm of
// Section 5. It has three parts:
//
//  1. Seed selection (Section 5.1): either the entry points of all
//     functions in decreasing popularity order (auto), or the entry
//     points of the Executor operations (ops).
//  2. Sequence building (Section 5.2): a greedy walk of the weighted
//     CFG from each seed, following the most frequently executed path,
//     bounded by an Exec Threshold (minimum basic-block weight) and a
//     Branch Threshold (minimum transition probability). Rejected but
//     valid transitions seed secondary traces.
//  3. Sequence mapping (Section 5.3): sequences are placed in a
//     logical array of cache-sized chunks; the first sequences fill a
//     Conflict Free Area (CFA) that later code never overlaps, the
//     rest fill the remaining area chunk by chunk, and all leftover
//     (cold) code is appended afterwards. MapSequences is the one
//     mapper of the tree: the Torrellas et al. baseline
//     (internal/layout) differs only in what it hands it as first-pass
//     sequences.
package core

import (
	"cmp"
	"slices"

	"repro/internal/profile"
	"repro/internal/program"
)

// Params configures sequence building and mapping.
type Params struct {
	// ExecThreshold is the minimum dynamic execution count for a block
	// to be included in a sequence.
	ExecThreshold uint64
	// BranchThreshold is the minimum transition probability for an
	// outgoing arc to be followed or noted.
	BranchThreshold float64
	// CacheBytes is the target instruction-cache size (one logical
	// cache chunk).
	CacheBytes int
	// CFABytes is the size of the Conflict Free Area reserved at the
	// start of every logical cache chunk.
	CFABytes int
}

// Sequence is one basic-block trace produced by the greedy builder.
type Sequence struct {
	Blocks []program.BlockID
	// Secondary is true for traces grown from noted transitions rather
	// than directly from a seed.
	Secondary bool
}

// SizeBytes returns the total code size of the sequence.
func (s *Sequence) SizeBytes(p *program.Program) uint64 {
	var n uint64
	for _, b := range s.Blocks {
		n += p.Block(b).SizeBytes()
	}
	return n
}

// AutoSeeds returns the entry points of all executed procedures in
// decreasing order of popularity (entry-block execution count), the
// paper's "auto" seed selection.
func AutoSeeds(pr *profile.Profile) []program.BlockID {
	entries := make([]program.BlockID, len(pr.Prog.Procs))
	for i := range pr.Prog.Procs {
		entries[i] = pr.Prog.Procs[i].Entry
	}
	return hottestFirst(pr, entries)
}

// OpsSeeds returns the entry points of the named procedures (the
// Executor operations), in decreasing popularity order — the paper's
// knowledge-based "ops" seed selection. Unknown or never-executed
// procedures are skipped.
func OpsSeeds(pr *profile.Profile, procNames []string) []program.BlockID {
	var entries []program.BlockID
	for _, name := range procNames {
		if proc, ok := pr.Prog.ProcByName(name); ok {
			entries = append(entries, proc.Entry)
		}
	}
	return hottestFirst(pr, entries)
}

// hottestFirst keeps the executed blocks of bs, in place, and orders
// them by decreasing execution count, ties by ID.
func hottestFirst(pr *profile.Profile, bs []program.BlockID) []program.BlockID {
	bs = slices.DeleteFunc(bs, func(b program.BlockID) bool { return pr.Weight(b) == 0 })
	slices.SortFunc(bs, func(a, b program.BlockID) int {
		return cmp.Or(cmp.Compare(pr.Weight(b), pr.Weight(a)), cmp.Compare(a, b))
	})
	return bs
}

// BuildSequences runs one pass of the greedy trace builder (Section
// 5.2) from the given seeds. visited is updated in place; pass a fresh
// slice of len NumBlocks for a standalone run. Sequences are returned
// in construction order: for each seed, its main trace followed by its
// secondary traces.
func BuildSequences(pr *profile.Profile, seeds []program.BlockID, p Params, visited []bool) []Sequence {
	var seqs []Sequence
	for _, seed := range seeds {
		// Pending transitions noted for future examination (FIFO).
		pending := []program.BlockID{seed}
		first := true
		for len(pending) > 0 {
			start := pending[0]
			pending = pending[1:]
			if visited[start] || pr.Weight(start) < p.ExecThreshold {
				first = false
				continue
			}
			seq := Sequence{Secondary: !first}
			first = false
			b := start
			for b != program.NoBlock && !visited[b] && pr.Weight(b) >= p.ExecThreshold {
				visited[b] = true
				seq.Blocks = append(seq.Blocks, b)
				// Follow the most frequently executed acceptable path;
				// note the other acceptable transitions.
				succs := pr.Succs(b)
				var total uint64
				for _, s := range succs {
					total += s.Count
				}
				next := program.NoBlock
				for _, s := range succs {
					if total == 0 {
						break
					}
					prob := float64(s.Count) / float64(total)
					if prob < p.BranchThreshold {
						break // sorted by count: the rest are lower
					}
					if visited[s.To] {
						continue
					}
					if next == program.NoBlock {
						next = s.To
					} else {
						pending = append(pending, s.To)
					}
				}
				b = next
			}
			if len(seq.Blocks) > 0 {
				seqs = append(seqs, seq)
			}
		}
	}
	return seqs
}

// BuildAllSequences runs the builder in passes of decreasing
// thresholds until every executed block belongs to a sequence: pass 1
// with the given params (these sequences are the CFA candidates),
// later passes with relaxed thresholds over all executed procedure
// entries, and a final sweep seeding any still-unplaced executed
// blocks directly. The returned pass-1 count tells the mapper how many
// leading sequences came from the first pass.
func BuildAllSequences(pr *profile.Profile, seeds []program.BlockID, p Params) (seqs []Sequence, firstPass int) {
	visited := make([]bool, pr.Prog.NumBlocks())
	seqs = BuildSequences(pr, seeds, p, visited)
	firstPass = len(seqs)

	// Relaxation passes over all executed entries.
	relaxed := p
	auto := AutoSeeds(pr)
	for _, sc := range []struct {
		exec   uint64
		branch float64
	}{
		{p.ExecThreshold / 4, p.BranchThreshold / 2},
		{1, 0.05},
		{1, 0},
	} {
		relaxed.ExecThreshold = max64(sc.exec, 1)
		relaxed.BranchThreshold = sc.branch
		seqs = append(seqs, BuildSequences(pr, auto, relaxed, visited)...)
	}
	// Final sweep: any executed block not yet placed becomes a seed
	// itself (e.g. blocks only reachable through transitions that
	// tracing never observed from an entry).
	remaining := p
	remaining.ExecThreshold = 1
	remaining.BranchThreshold = 0
	rest := pr.ExecutedBlocks()
	var restSeeds []program.BlockID
	for _, b := range rest {
		if !visited[b] {
			restSeeds = append(restSeeds, b)
		}
	}
	seqs = append(seqs, BuildSequences(pr, restSeeds, remaining, visited)...)
	return seqs, firstPass
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// MapSequences implements the Section 5.3 mapping. The first-pass
// sequences fill the Conflict Free Area — offsets [0, CFABytes) of the
// logical cache array — until one no longer fits. All other sequences
// fill the non-CFA area of successive logical caches: offsets
// [CFABytes, CacheBytes) of chunk 0, then of chunk 1, and so on, so
// they can never evict the CFA. Remaining blocks (cold code and any
// unsequenced block) are appended after the last chunk, filling the
// entire address space without geometry constraints.
//
// It serves both CFA layouts: STC passes its first-pass sequences,
// layout.Torrellas one single-block sequence per hot block, so a
// change to where non-CFA or cold code goes is made here alone. It
// fails where the geometry makes two blocks overlap, as a block larger
// than the area outside the CFA does (program.NewLayoutFromAddrs).
func MapSequences(name string, prog *program.Program, seqs []Sequence, firstPass int, p Params) (*program.Layout, error) {
	addr := make([]uint64, prog.NumBlocks())
	placed := make([]bool, prog.NumBlocks())
	cacheB := uint64(p.CacheBytes)
	cfaB := uint64(p.CFABytes)

	place := func(seq *Sequence, at uint64) uint64 {
		for _, b := range seq.Blocks {
			addr[b] = at
			placed[b] = true
			at += prog.Block(b).SizeBytes()
		}
		return at
	}

	var maxUsed uint64 // highest byte address occupied by any sequence

	// 1. CFA: first-pass sequences from offset 0. Sequences that do not
	// fit the remaining CFA space are left for the non-CFA area (with
	// knowledge-based seeds the very first sequence can exceed the
	// whole CFA; skipping it must not starve the area).
	var cfaCursor uint64
	skipped := make([]int, 0, len(seqs))
	for i := 0; i < firstPass; i++ {
		sz := seqs[i].SizeBytes(prog)
		if cfaCursor+sz > cfaB {
			skipped = append(skipped, i)
			continue
		}
		cfaCursor = place(&seqs[i], cfaCursor)
	}
	maxUsed = cfaCursor

	// 2. Everything else into the non-CFA area, chunk by chunk. The CFA
	// offsets of every logical cache stay free of code (the paper's
	// Figure 4); sequences longer than the remaining region are split
	// at the chunk boundary, trading one discontinuity for keeping the
	// CFA conflict-free.
	chunk := uint64(0)
	cursor := cfaB // offset within the current chunk
	placeSplit := func(seq *Sequence) {
		for _, blk := range seq.Blocks {
			sz := prog.Block(blk).SizeBytes()
			if cursor+sz > cacheB {
				chunk++
				cursor = cfaB
			}
			addr[blk] = chunk*cacheB + cursor
			placed[blk] = true
			cursor += sz
			if a := chunk*cacheB + cursor; a > maxUsed {
				maxUsed = a
			}
		}
	}
	rest := make([]int, 0, len(seqs))
	rest = append(rest, skipped...)
	for i := firstPass; i < len(seqs); i++ {
		rest = append(rest, i)
	}
	for _, i := range rest {
		sz := seqs[i].SizeBytes(prog)
		if cursor+sz > cacheB && cursor > cfaB && sz <= cacheB-cfaB {
			// Fits in a fresh chunk without splitting: move on.
			chunk++
			cursor = cfaB
		}
		placeSplit(&seqs[i])
	}

	// 3. Cold and unsequenced code after the next chunk boundary,
	// filling the entire address space.
	var end uint64
	if maxUsed > 0 {
		end = (maxUsed + cacheB - 1) / cacheB * cacheB
	}
	for pi := range prog.Procs {
		for _, b := range prog.Procs[pi].Blocks {
			if !placed[b] {
				addr[b] = end
				placed[b] = true
				end += prog.Block(b).SizeBytes()
			}
		}
	}
	return program.NewLayoutFromAddrs(name, prog, addr)
}

// Build computes the full STC layout for a profile: sequences from the
// given seeds, mapped with the given parameters.
func Build(name string, pr *profile.Profile, seeds []program.BlockID, p Params) (*program.Layout, error) {
	seqs, firstPass := BuildAllSequences(pr, seeds, p)
	return MapSequences(name, pr.Prog, seqs, firstPass, p)
}

// FitExecThreshold finds the smallest ExecThreshold whose first-pass
// sequences fit the CFA. This operationalizes Section 5.3: "The size
// of this CFA is determined by the Exec and Branch Thresholds used for
// the first pass" — the paper picks thresholds to realize a target CFA
// size; we invert that relation by binary search (the pass-1 footprint
// shrinks monotonically as the threshold grows).
func FitExecThreshold(pr *profile.Profile, seeds []program.BlockID, p Params) uint64 {
	passSize := func(th uint64) uint64 {
		q := p
		q.ExecThreshold = th
		visited := make([]bool, pr.Prog.NumBlocks())
		seqs := BuildSequences(pr, seeds, q, visited)
		var total uint64
		for i := range seqs {
			total += seqs[i].SizeBytes(pr.Prog)
		}
		return total
	}
	var hi uint64 = 1
	for _, w := range pr.BlockCount {
		if w > hi {
			hi = w
		}
	}
	lo := uint64(1)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if passSize(mid) <= uint64(p.CFABytes) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
