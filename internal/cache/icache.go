// Package cache implements the instruction-cache models used by the
// paper's evaluation (Section 7): direct-mapped caches of 8–64 KB,
// a 2-way set-associative variant, a direct-mapped cache backed by a
// 16-line fully-associative victim cache, and the 256-entry trace
// cache of Rotenberg et al. that the Software Trace Cache is combined
// with in Table 4.
//
// All instruction caches are simulated at line granularity: the fetch
// engine translates fetch requests into line accesses.
package cache

import (
	"fmt"
	"math/bits"
)

// DefaultLineBytes is the cache line size used throughout the paper's
// setup: 16 instructions of 4 bytes.
const DefaultLineBytes = 64

// ICache is a line-granularity instruction cache model.
type ICache interface {
	// Access touches the line containing byte address addr and returns
	// true on a hit. State is updated (fills, LRU, victim movement).
	Access(addr uint64) bool
	// Reset invalidates all cache state.
	Reset()
	// LineBytes returns the line size in bytes.
	LineBytes() int
	// Name describes the configuration, e.g. "32KB direct".
	Name() string
}

// IsPowerOfTwo reports whether n is a positive power of two. Every
// cache in this package is indexed by shift and mask, so line sizes,
// set counts and trace-cache entry counts must all be one.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// CheckGeometry reports whether a cache of sizeBytes made of
// lineBytes-sized lines in ways-way sets can be built: the line size
// and the number of sets must be powers of two (every geometry in the
// paper is). The constructors panic on what it rejects; callers
// holding user input ask it first.
func CheckGeometry(sizeBytes, lineBytes, ways int) error {
	switch {
	case !IsPowerOfTwo(lineBytes):
		return fmt.Errorf("cache: line size %d is not a power of two", lineBytes)
	case ways <= 0:
		return fmt.Errorf("cache: %d ways", ways)
	case sizeBytes <= 0 || sizeBytes%(lineBytes*ways) != 0:
		return fmt.Errorf("cache: size %d is not a positive multiple of %d-byte lines x %d ways", sizeBytes, lineBytes, ways)
	case !IsPowerOfTwo(sizeBytes / (lineBytes * ways)):
		return fmt.Errorf("cache: %d sets (size %d / %d-byte lines / %d ways) is not a power of two", sizeBytes/(lineBytes*ways), sizeBytes, lineBytes, ways)
	}
	return nil
}

// geometry is the shift-and-mask form of a checked cache shape: the
// line number of addr is addr >> lineShift, its set line & setMask.
type geometry struct {
	lineShift uint
	setMask   uint64
}

func mustGeometry(sizeBytes, lineBytes, ways int) geometry {
	if err := CheckGeometry(sizeBytes, lineBytes, ways); err != nil {
		panic(err.Error())
	}
	return geometry{
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setMask:   uint64(sizeBytes/(lineBytes*ways)) - 1,
	}
}

func (g geometry) sets() int      { return int(g.setMask) + 1 }
func (g geometry) lineBytes() int { return 1 << g.lineShift }

// DirectMapped is a direct-mapped instruction cache.
type DirectMapped struct {
	name string
	geometry
	tags  []uint64
	valid []bool
}

// NewDirectMapped returns a direct-mapped cache of the given total
// size. It panics on a geometry CheckGeometry rejects.
func NewDirectMapped(sizeBytes, lineBytes int) *DirectMapped {
	g := mustGeometry(sizeBytes, lineBytes, 1)
	return &DirectMapped{
		name:     fmt.Sprintf("%dKB direct", sizeBytes/1024),
		geometry: g,
		tags:     make([]uint64, g.sets()),
		valid:    make([]bool, g.sets()),
	}
}

// Access implements ICache.
func (c *DirectMapped) Access(addr uint64) bool {
	line := addr >> c.lineShift
	set := line & c.setMask
	if c.valid[set] && c.tags[set] == line {
		return true
	}
	c.valid[set] = true
	c.tags[set] = line
	return false
}

// Probe reports whether the line containing addr is resident, without
// updating any state.
func (c *DirectMapped) Probe(addr uint64) bool {
	line := addr >> c.lineShift
	set := line & c.setMask
	return c.valid[set] && c.tags[set] == line
}

// Reset implements ICache.
func (c *DirectMapped) Reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
}

// LineBytes implements ICache.
func (c *DirectMapped) LineBytes() int { return c.lineBytes() }

// Name implements ICache.
func (c *DirectMapped) Name() string { return c.name }

// SetAssoc is a k-way set-associative cache with true LRU replacement.
type SetAssoc struct {
	name string
	geometry
	ways int
	// tags[set*ways+way]; age[set*ways+way] is an LRU stamp.
	tags  []uint64
	valid []bool
	age   []uint64
	clock uint64
}

// NewSetAssoc returns a k-way set-associative cache. It panics on a
// geometry CheckGeometry rejects.
func NewSetAssoc(sizeBytes, lineBytes, ways int) *SetAssoc {
	g := mustGeometry(sizeBytes, lineBytes, ways)
	n := g.sets() * ways
	return &SetAssoc{
		name:     fmt.Sprintf("%dKB %d-way", sizeBytes/1024, ways),
		geometry: g,
		ways:     ways,
		tags:     make([]uint64, n),
		valid:    make([]bool, n),
		age:      make([]uint64, n),
	}
}

// Access implements ICache.
func (c *SetAssoc) Access(addr uint64) bool {
	line := addr >> c.lineShift
	set := line & c.setMask
	base := int(set) * c.ways
	c.clock++
	victim, oldest := base, c.age[base]
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			c.age[i] = c.clock
			return true
		}
		if !c.valid[i] {
			victim, oldest = i, 0
		} else if c.age[i] < oldest {
			victim, oldest = i, c.age[i]
		}
	}
	c.valid[victim] = true
	c.tags[victim] = line
	c.age[victim] = c.clock
	return false
}

// Reset implements ICache.
func (c *SetAssoc) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.age[i] = 0
	}
	c.clock = 0
}

// LineBytes implements ICache.
func (c *SetAssoc) LineBytes() int { return c.lineBytes() }

// Name implements ICache.
func (c *SetAssoc) Name() string { return c.name }

// Victim is a direct-mapped cache backed by a small fully-associative
// victim cache (Jouppi). Lines evicted from the main cache move to the
// victim buffer; a victim-buffer hit swaps the line back into the main
// cache and counts as a hit.
type Victim struct {
	name    string
	main    *DirectMapped
	entries int
	vtags   []uint64
	vvalid  []bool
	vage    []uint64
	clock   uint64
}

// NewVictim returns a direct-mapped cache of sizeBytes with an
// entries-line fully-associative victim buffer. It panics on a
// geometry CheckGeometry rejects, or without a victim line.
func NewVictim(sizeBytes, lineBytes, entries int) *Victim {
	if entries <= 0 {
		panic(fmt.Sprintf("cache: %d victim entries", entries))
	}
	return &Victim{
		name:    fmt.Sprintf("%dKB direct+%d-line victim", sizeBytes/1024, entries),
		main:    NewDirectMapped(sizeBytes, lineBytes),
		entries: entries,
		vtags:   make([]uint64, entries),
		vvalid:  make([]bool, entries),
		vage:    make([]uint64, entries),
	}
}

// Access implements ICache.
func (c *Victim) Access(addr uint64) bool {
	line := addr >> c.main.lineShift
	set := line & c.main.setMask
	c.clock++
	if c.main.valid[set] && c.main.tags[set] == line {
		return true
	}
	// Main miss: probe the victim buffer.
	for i := 0; i < c.entries; i++ {
		if c.vvalid[i] && c.vtags[i] == line {
			// Swap: requested line moves to main, displaced main line
			// takes its victim slot.
			if c.main.valid[set] {
				c.vtags[i] = c.main.tags[set]
				c.vage[i] = c.clock
			} else {
				c.vvalid[i] = false
			}
			c.main.tags[set] = line
			c.main.valid[set] = true
			return true
		}
	}
	// Full miss: fill main, displaced line goes to the victim buffer.
	if c.main.valid[set] {
		c.insertVictim(c.main.tags[set])
	}
	c.main.tags[set] = line
	c.main.valid[set] = true
	return false
}

func (c *Victim) insertVictim(line uint64) {
	victim, oldest := 0, c.vage[0]
	for i := 0; i < c.entries; i++ {
		if !c.vvalid[i] {
			victim = i
			break
		}
		if c.vage[i] < oldest {
			victim, oldest = i, c.vage[i]
		}
	}
	c.vvalid[victim] = true
	c.vtags[victim] = line
	c.vage[victim] = c.clock
}

// Reset implements ICache.
func (c *Victim) Reset() {
	c.main.Reset()
	for i := range c.vvalid {
		c.vvalid[i] = false
		c.vage[i] = 0
	}
	c.clock = 0
}

// LineBytes implements ICache.
func (c *Victim) LineBytes() int { return c.main.LineBytes() }

// Name implements ICache.
func (c *Victim) Name() string { return c.name }

// Ideal is a cache that always hits (the paper's "Ideal" rows).
type Ideal struct{ lineBytes int }

// NewIdeal returns an always-hitting cache with the given line size.
func NewIdeal(lineBytes int) *Ideal { return &Ideal{lineBytes: lineBytes} }

// Access implements ICache.
func (c *Ideal) Access(uint64) bool { return true }

// Reset implements ICache.
func (c *Ideal) Reset() {}

// LineBytes implements ICache.
func (c *Ideal) LineBytes() int { return c.lineBytes }

// Name implements ICache.
func (c *Ideal) Name() string { return "ideal" }
