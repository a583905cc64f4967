// Package profiletest is the reference weighted-CFG builder the tests
// check kernel.Image.Profile and everything read from a profile
// against: a serial walk over the events, one map increment per
// transition.
package profiletest

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/trace"
)

// FromTrace returns the profile of the given traces, all over one
// program image, each counted on its own: no transition joins the last
// event of one to the first of the next. It needs at least one trace.
func FromTrace(ts ...*trace.Trace) *profile.Profile {
	prog := ts[0].Program()
	p := profile.New(prog)
	for _, t := range ts {
		last := program.NoBlock
		for _, b := range t.Blocks {
			p.BlockCount[b]++
			p.DynInstrs += uint64(prog.Block(b).Size)
			if last != program.NoBlock {
				p.EdgeCount[profile.Edge{From: last, To: b}]++
			}
			last = b
		}
		p.DynBlocks += uint64(t.Len())
	}
	return p
}

// Diff describes how got differs from want in its totals, block counts
// or edge counts, the first that differ, or returns "" if all agree.
func Diff(got, want *profile.Profile) string {
	switch {
	case got.DynBlocks != want.DynBlocks || got.DynInstrs != want.DynInstrs:
		return fmt.Sprintf("%d block events / %d instrs, reference %d / %d",
			got.DynBlocks, got.DynInstrs, want.DynBlocks, want.DynInstrs)
	case !slices.Equal(got.BlockCount, want.BlockCount):
		for b := range got.BlockCount {
			if got.BlockCount[b] != want.BlockCount[b] {
				return fmt.Sprintf("block %s ran %d times, reference %d",
					got.Prog.Block(program.BlockID(b)).Name, got.BlockCount[b], want.BlockCount[b])
			}
		}
		return fmt.Sprintf("%d blocks, reference %d", len(got.BlockCount), len(want.BlockCount))
	case !maps.Equal(got.EdgeCount, want.EdgeCount):
		for e, n := range want.EdgeCount {
			if got.EdgeCount[e] != n {
				return fmt.Sprintf("edge %s -> %s counted %d, reference %d",
					got.Prog.Block(e.From).Name, got.Prog.Block(e.To).Name, got.EdgeCount[e], n)
			}
		}
		return fmt.Sprintf("%d edges, reference %d", len(got.EdgeCount), len(want.EdgeCount))
	}
	return ""
}
