package program

import (
	"fmt"
	"sort"
)

// Layout assigns every basic block of a program a starting address in
// an instruction address space. Layouts are what the paper's
// reordering algorithms produce: the code itself is unchanged (block
// sizes are preserved), only the addresses fed to the cache and fetch
// simulators differ (Section 7.1 of the paper).
//
// A Layout is checked where it is made: NewLayoutFromOrder and
// NewLayoutFromAddrs return one only if it places every block exactly
// once and no two blocks overlap, so no two start at one address. The
// simulators rely on it: in Order, the block laid out where a block
// ends, if any, is the next one.
type Layout struct {
	Name string
	// Addr[b] is the byte address of the first instruction of block b.
	Addr []uint64
	// Order lists the blocks in ascending address order.
	Order []BlockID
}

// NewLayoutFromOrder builds a Layout that places the given blocks
// consecutively starting at address 0, in the order given. It fails
// unless every block of the program appears exactly once.
func NewLayoutFromOrder(name string, p *Program, order []BlockID) (*Layout, error) {
	seen := make([]bool, p.NumBlocks())
	for _, b := range order {
		if int(b) >= len(seen) {
			return nil, fmt.Errorf("layout %s: no block %d in a program of %d", name, b, len(seen))
		}
		if seen[b] {
			return nil, fmt.Errorf("layout %s: block %s appears twice", name, p.Block(b).Name)
		}
		seen[b] = true
	}
	for b, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("layout %s: block %s is missing", name, p.Block(BlockID(b)).Name)
		}
	}
	return place(name, p, order), nil
}

// place lays order out consecutively from address 0. order lists every
// block of p once, so no two blocks overlap.
func place(name string, p *Program, order []BlockID) *Layout {
	l := &Layout{Name: name, Addr: make([]uint64, p.NumBlocks()), Order: order}
	var addr uint64
	for _, b := range order {
		l.Addr[b] = addr
		addr += p.Block(b).SizeBytes()
	}
	return l
}

// NewLayoutFromAddrs builds a Layout from an explicit address map
// (used by the CFA mapping algorithms, which leave gaps). The Order is
// derived by sorting blocks by address. It fails unless there is one
// address per block and no block reaches into the next one's start.
func NewLayoutFromAddrs(name string, p *Program, addr []uint64) (*Layout, error) {
	if len(addr) != p.NumBlocks() {
		return nil, fmt.Errorf("layout %s: %d addresses for %d blocks", name, len(addr), p.NumBlocks())
	}
	order := make([]BlockID, p.NumBlocks())
	for i := range order {
		order[i] = BlockID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		ai, aj := addr[order[i]], addr[order[j]]
		if ai != aj {
			return ai < aj
		}
		return order[i] < order[j]
	})
	for i := 1; i < len(order); i++ {
		prev, cur := order[i-1], order[i]
		if addr[cur] < addr[prev]+p.Block(prev).SizeBytes() {
			return nil, fmt.Errorf("layout %s: blocks %s and %s overlap", name, p.Block(prev).Name, p.Block(cur).Name)
		}
	}
	return &Layout{Name: name, Addr: addr, Order: order}, nil
}

// OriginalLayout returns the link-order layout: procedures in
// declaration order, blocks within each procedure in declaration
// order. This is the paper's "orig" baseline. A program's procedures
// list each of its blocks once, so it is a layout by construction.
func OriginalLayout(p *Program) *Layout {
	order := make([]BlockID, 0, p.NumBlocks())
	for i := range p.Procs {
		order = append(order, p.Procs[i].Blocks...)
	}
	return place("orig", p, order)
}
