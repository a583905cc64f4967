package kernel

import (
	"fmt"

	"repro/internal/db/probe"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Profile assembles the weighted CFG of t from the counts its sessions
// took while recording it, without walking t's events. t must be the
// trace of the one session counts come from, or the merge of several
// sessions' traces at their marks, each segment running whole from a
// mark to the session's next mark or its end (stcpipe's merge):
// every transition of t is then either one a session counted or the
// one into a mark's position.
//
// Each count of probe b after probe a adds the edge from a's last block
// to b's first; each firing of b adds b's blocks, its internal edges
// and its instructions. Then each distinct mark position inside t adds
// the one transition into it (marks that share a position have one
// transition between them). Profile panics, naming both figures, if
// the counts give another number of block events than t holds: then t
// is not the trace the counts were taken over.
func (img *Image) Profile(t *trace.Trace, counts ...*Counts) *profile.Profile {
	p := profile.New(t.Program())
	var fired [probe.NumProbes]uint64
	for _, c := range counts {
		for from := range c {
			for to, n := range &c[from] {
				if n == 0 {
					continue
				}
				fired[to] += uint64(n)
				if probe.ID(from) != startRow {
					prev := img.paths[from]
					p.EdgeCount[profile.Edge{From: prev[len(prev)-1], To: img.paths[to][0]}] += uint64(n)
				}
			}
		}
	}
	for id, n := range fired {
		if n == 0 {
			continue
		}
		path := img.paths[id]
		for i, b := range path {
			p.BlockCount[b] += n
			if i > 0 {
				p.EdgeCount[profile.Edge{From: path[i-1], To: b}] += n
			}
		}
		p.DynBlocks += n * uint64(len(path))
		p.DynInstrs += n * img.pathInstrs[id]
	}
	for i, m := range t.Marks {
		if m.Pos > 0 && m.Pos < t.Len() && (i == 0 || m.Pos != t.Marks[i-1].Pos) {
			p.EdgeCount[profile.Edge{From: t.Blocks[m.Pos-1], To: t.Blocks[m.Pos]}]++
		}
	}
	if p.DynBlocks != uint64(t.Len()) {
		panic(fmt.Sprintf("kernel: the session counts give %d block events, the trace holds %d", p.DynBlocks, t.Len()))
	}
	return p
}
