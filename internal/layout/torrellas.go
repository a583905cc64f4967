package layout

import (
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/program"
)

// Torrellas computes the layout of Torrellas, Xia and Daigle (HPCA'95),
// as characterized by the paper: basic-block sequences spanning
// procedures are laid out like the STC's, but the Conflict Free Area
// holds the most frequently referenced *individual basic blocks*,
// pulled out of their sequences. Jumping in and out of the CFA breaks
// sequentiality, which is exactly the deficiency Table 4 exposes for
// the larger CFA sizes.
func Torrellas(pr *profile.Profile, p core.Params) *program.Layout {
	prog := pr.Prog
	seeds := core.AutoSeeds(pr)
	seqs, _ := core.BuildAllSequences(pr, seeds, p)

	// CFA: the most popular individual blocks, packed until full.
	blocks := pr.ExecutedBlocks() // sorted by decreasing count
	inCFA := make([]bool, prog.NumBlocks())
	addr := make([]uint64, prog.NumBlocks())
	placed := make([]bool, prog.NumBlocks())
	cacheB := uint64(p.CacheBytes)
	cfaB := uint64(p.CFABytes)
	var cfaCursor uint64
	for _, b := range blocks {
		sz := prog.Block(b).SizeBytes()
		if cfaCursor+sz > cfaB {
			break
		}
		inCFA[b] = true
		addr[b] = cfaCursor
		placed[b] = true
		cfaCursor += sz
	}

	// Sequences (minus the pulled blocks) fill the non-CFA area of
	// successive logical caches; overlong sequences split at chunk
	// boundaries so the per-block CFA stays conflict-free.
	var maxUsed uint64 = cfaCursor
	chunk := uint64(0)
	cursor := cfaB
	for i := range seqs {
		var rest []program.BlockID
		var sz uint64
		for _, b := range seqs[i].Blocks {
			if !inCFA[b] {
				rest = append(rest, b)
				sz += prog.Block(b).SizeBytes()
			}
		}
		if len(rest) == 0 {
			continue
		}
		if cursor+sz > cacheB && cursor > cfaB && sz <= cacheB-cfaB {
			chunk++
			cursor = cfaB
		}
		for _, b := range rest {
			bsz := prog.Block(b).SizeBytes()
			if cursor+bsz > cacheB {
				chunk++
				cursor = cfaB
			}
			addr[b] = chunk*cacheB + cursor
			placed[b] = true
			cursor += bsz
			if a := chunk*cacheB + cursor; a > maxUsed {
				maxUsed = a
			}
		}
	}

	// Cold and unsequenced code afterwards, unconstrained.
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
	return program.NewLayoutFromAddrs("Torr", prog, addr)
}
