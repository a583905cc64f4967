// Package layout implements the profile-guided code-layout baselines
// the paper compares the Software Trace Cache against (Section 7):
// the Pettis & Hansen procedure/basic-block reordering and the
// Torrellas et al. sequence layout with a per-block Conflict Free
// Area. Torrellas only chooses what fills the CFA; its addresses come
// from core.MapSequences, the mapper STC uses. The original
// (link-order) baseline lives in package program.
package layout

import (
	"sort"

	"repro/internal/profile"
	"repro/internal/program"
)

// PettisHansen computes the P&H layout: basic blocks are chained
// within each procedure so the hottest successor falls through, unused
// blocks are split off ("fluff"), and whole procedures are ordered by
// a closest-is-best greedy merge of the weighted call graph. The
// algorithm is cache-geometry oblivious, as the paper notes.
func PettisHansen(pr *profile.Profile) (*program.Layout, error) {
	prog := pr.Prog
	procOrder := orderProcedures(pr)
	var hot, cold []program.BlockID
	for _, pid := range procOrder {
		h, c := chainProcedure(pr, pid)
		hot = append(hot, h...)
		cold = append(cold, c...)
	}
	// Split procedures: all fluff moves after the hot code.
	order := append(hot, cold...)
	return program.NewLayoutFromOrder("P&H", prog, order)
}

// chainProcedure orders the blocks of one procedure: executed blocks
// are chained along their heaviest intra-procedure edges (so hot
// conditional branches fall through); never-executed blocks are
// returned separately as fluff.
func chainProcedure(pr *profile.Profile, pid program.ProcID) (hot, cold []program.BlockID) {
	prog := pr.Prog
	proc := &prog.Procs[pid]
	if pr.ProcWeight(pid) == 0 && !anyExecuted(pr, proc) {
		// Entirely cold procedure: keep declaration order, all fluff.
		return nil, append([]program.BlockID(nil), proc.Blocks...)
	}

	// Collect intra-procedure dynamic edges.
	type edge struct {
		from, to program.BlockID
		w        uint64
	}
	var edges []edge
	inProc := make(map[program.BlockID]bool, len(proc.Blocks))
	for _, b := range proc.Blocks {
		inProc[b] = true
	}
	for _, b := range proc.Blocks {
		if pr.Weight(b) == 0 {
			continue
		}
		blk := prog.Block(b)
		if blk.Kind == program.KindCall {
			// P&H works on the static intra-procedure CFG: a call block
			// always continues at its continuation once the callee
			// returns, with the block's own execution weight.
			edges = append(edges, edge{b, blk.Succs[0], pr.Weight(b)})
			continue
		}
		for _, s := range pr.Succs(b) {
			if inProc[s.To] {
				edges = append(edges, edge{b, s.To, s.Count})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})

	// Union chains: an edge merges the chain ending in `from` with the
	// chain starting at `to`.
	chainOf := make(map[program.BlockID]int)
	var chains [][]program.BlockID
	for _, b := range proc.Blocks {
		if pr.Weight(b) > 0 {
			chainOf[b] = len(chains)
			chains = append(chains, []program.BlockID{b})
		}
	}
	for _, e := range edges {
		ci, cj := chainOf[e.from], chainOf[e.to]
		if ci == cj {
			continue
		}
		a, b := chains[ci], chains[cj]
		if a[len(a)-1] != e.from || b[0] != e.to {
			continue // from must end its chain, to must start its chain
		}
		merged := append(a, b...)
		chains[ci] = merged
		chains[cj] = nil
		for _, blk := range b {
			chainOf[blk] = ci
		}
	}

	// Entry chain first, then remaining chains by weight of their head.
	entryChain := chainOf[proc.Entry]
	var rest []int
	for i, c := range chains {
		if c != nil && i != entryChain {
			rest = append(rest, i)
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		wi, wj := pr.Weight(chains[rest[i]][0]), pr.Weight(chains[rest[j]][0])
		if wi != wj {
			return wi > wj
		}
		return chains[rest[i]][0] < chains[rest[j]][0]
	})
	hot = append(hot, chains[entryChain]...)
	for _, i := range rest {
		hot = append(hot, chains[i]...)
	}
	for _, b := range proc.Blocks {
		if pr.Weight(b) == 0 {
			cold = append(cold, b)
		}
	}
	return hot, cold
}

func anyExecuted(pr *profile.Profile, proc *program.Proc) bool {
	for _, b := range proc.Blocks {
		if pr.Weight(b) > 0 {
			return true
		}
	}
	return false
}

// orderProcedures implements P&H "closest is best" procedure ordering:
// the call graph's procedure groups are merged along decreasing edge
// weight, choosing the orientation that brings the two connected
// procedures closest together. Unexecuted procedures keep declaration
// order at the end.
func orderProcedures(pr *profile.Profile) []program.ProcID {
	prog := pr.Prog

	// Undirected call-graph weights between procedures.
	type pair struct{ a, b program.ProcID }
	weights := make(map[pair]uint64)
	for e, c := range pr.EdgeCount {
		pf := prog.Block(e.From).Proc
		pt := prog.Block(e.To).Proc
		if pf == pt {
			continue
		}
		// Only count call edges (call block -> entry), not returns, so
		// each dynamic call contributes once.
		if prog.Block(e.From).Kind != program.KindCall {
			continue
		}
		a, b := pf, pt
		if a > b {
			a, b = b, a
		}
		weights[pair{a, b}] += c
	}
	type wedge struct {
		a, b program.ProcID
		w    uint64
	}
	var edges []wedge
	for p, w := range weights {
		edges = append(edges, wedge{p.a, p.b, w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})

	// Each executed procedure starts as its own group.
	groupOf := make(map[program.ProcID]int)
	var groups [][]program.ProcID
	executed := make([]bool, prog.NumProcs())
	for i := range prog.Procs {
		if anyExecuted(pr, &prog.Procs[i]) {
			executed[i] = true
			groupOf[program.ProcID(i)] = len(groups)
			groups = append(groups, []program.ProcID{program.ProcID(i)})
		}
	}
	pos := func(g []program.ProcID, p program.ProcID) int {
		for i, x := range g {
			if x == p {
				return i
			}
		}
		return -1
	}
	for _, e := range edges {
		gi, gj := groupOf[e.a], groupOf[e.b]
		if gi == gj {
			continue
		}
		a, b := groups[gi], groups[gj]
		// Four orientations; choose the one minimizing the distance
		// between e.a and e.b ("closest is best").
		best := -1
		var merged []program.ProcID
		for o := 0; o < 4; o++ {
			x := append([]program.ProcID(nil), a...)
			y := append([]program.ProcID(nil), b...)
			if o&1 != 0 {
				reverse(x)
			}
			if o&2 != 0 {
				reverse(y)
			}
			cand := append(x, y...)
			d := pos(cand, e.b) - pos(cand, e.a)
			if d < 0 {
				d = -d
			}
			if best == -1 || d < best {
				best = d
				merged = cand
			}
		}
		groups[gi] = merged
		groups[gj] = nil
		for _, p := range merged {
			groupOf[p] = gi
		}
	}

	// Emit: groups in order of their hottest member, then cold procs.
	type gw struct {
		idx int
		w   uint64
	}
	var gws []gw
	for i, g := range groups {
		if g == nil {
			continue
		}
		var w uint64
		for _, p := range g {
			if pw := pr.ProcWeight(p); pw > w {
				w = pw
			}
		}
		gws = append(gws, gw{i, w})
	}
	sort.Slice(gws, func(i, j int) bool {
		if gws[i].w != gws[j].w {
			return gws[i].w > gws[j].w
		}
		return gws[i].idx < gws[j].idx
	})
	var out []program.ProcID
	for _, g := range gws {
		out = append(out, groups[g.idx]...)
	}
	for i := range prog.Procs {
		if !executed[i] {
			out = append(out, program.ProcID(i))
		}
	}
	return out
}

func reverse(s []program.ProcID) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
