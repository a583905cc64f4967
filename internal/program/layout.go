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
type Layout struct {
	Name string
	// Addr[b] is the byte address of the first instruction of block b.
	Addr []uint64
	// Order lists the blocks in ascending address order.
	Order []BlockID
	// End is the first byte address past the laid-out image.
	End uint64
}

// AddrOf returns the byte address of the first instruction of b.
func (l *Layout) AddrOf(b BlockID) uint64 { return l.Addr[b] }

// NewLayoutFromOrder builds a Layout that places the given blocks
// consecutively starting at address 0, in the order given. Every block
// of the program must appear exactly once; Validate enforces this.
func NewLayoutFromOrder(name string, p *Program, order []BlockID) *Layout {
	l := &Layout{
		Name:  name,
		Addr:  make([]uint64, p.NumBlocks()),
		Order: order,
	}
	var addr uint64
	for _, b := range order {
		l.Addr[b] = addr
		addr += p.Block(b).SizeBytes()
	}
	l.End = addr
	return l
}

// NewLayoutFromAddrs builds a Layout from an explicit address map
// (used by the CFA mapping algorithms, which leave gaps). The Order is
// derived by sorting blocks by address.
func NewLayoutFromAddrs(name string, p *Program, addr []uint64) *Layout {
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
	var end uint64
	for _, b := range order {
		if e := addr[b] + p.Block(b).SizeBytes(); e > end {
			end = e
		}
	}
	return &Layout{Name: name, Addr: addr, Order: order, End: end}
}

// OriginalLayout returns the link-order layout: procedures in
// declaration order, blocks within each procedure in declaration
// order. This is the paper's "orig" baseline.
func OriginalLayout(p *Program) *Layout {
	order := make([]BlockID, 0, p.NumBlocks())
	for i := range p.Procs {
		order = append(order, p.Procs[i].Blocks...)
	}
	return NewLayoutFromOrder("orig", p, order)
}

// Validate checks that the layout maps every block to a distinct,
// non-overlapping address range.
func (l *Layout) Validate(p *Program) error {
	if len(l.Addr) != p.NumBlocks() {
		return fmt.Errorf("layout %s: %d addrs for %d blocks", l.Name, len(l.Addr), p.NumBlocks())
	}
	if len(l.Order) != p.NumBlocks() {
		return fmt.Errorf("layout %s: order has %d entries, want %d", l.Name, len(l.Order), p.NumBlocks())
	}
	seen := make([]bool, p.NumBlocks())
	for _, b := range l.Order {
		if int(b) >= p.NumBlocks() {
			return fmt.Errorf("layout %s: order contains invalid block %d", l.Name, b)
		}
		if seen[b] {
			return fmt.Errorf("layout %s: block %d appears twice in order", l.Name, b)
		}
		seen[b] = true
	}
	for i := 1; i < len(l.Order); i++ {
		prev, cur := l.Order[i-1], l.Order[i]
		prevEnd := l.Addr[prev] + p.Block(prev).SizeBytes()
		if l.Addr[cur] < prevEnd {
			return fmt.Errorf("layout %s: blocks %s and %s overlap",
				l.Name, p.Block(prev).Name, p.Block(cur).Name)
		}
	}
	return nil
}
