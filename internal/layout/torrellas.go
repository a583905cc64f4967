package layout

import (
	"slices"

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
//
// Only the choice of the CFA's contents is Torrellas's own: the
// hottest blocks, in decreasing count, up to the first that does not
// fit. Each goes to core.MapSequences as a one-block first-pass
// sequence, followed by the STC sequences without them, so the non-CFA
// area and the cold code are placed by the STC's mapper, and it fails
// where that mapper does.
func Torrellas(pr *profile.Profile, p core.Params) (*program.Layout, error) {
	prog := pr.Prog
	inCFA := make([]bool, prog.NumBlocks())
	var seqs []core.Sequence
	var cfaBytes uint64
	for _, b := range pr.ExecutedBlocks() { // sorted by decreasing count
		cfaBytes += prog.Block(b).SizeBytes()
		if cfaBytes > uint64(p.CFABytes) {
			break
		}
		inCFA[b] = true
		seqs = append(seqs, core.Sequence{Blocks: []program.BlockID{b}})
	}
	firstPass := len(seqs)

	all, _ := core.BuildAllSequences(pr, core.AutoSeeds(pr), p)
	for _, s := range all {
		s.Blocks = slices.DeleteFunc(s.Blocks, func(b program.BlockID) bool { return inCFA[b] })
		seqs = append(seqs, s)
	}
	return core.MapSequences("Torr", prog, seqs, firstPass, p)
}
