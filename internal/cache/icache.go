// Package cache implements the instruction-cache models used by the
// paper's evaluation (Section 7): direct-mapped caches of 8–64 KB,
// a 2-way set-associative variant, a direct-mapped cache backed by a
// 16-line fully-associative victim cache, and the 256-entry trace
// cache of Rotenberg et al. that the Software Trace Cache is combined
// with in Table 4.
//
// All instruction caches are simulated at line granularity: the fetch
// engine translates fetch requests into line accesses. An ICache is
// what a serial walk needs of a model: Access, Reset and LineBytes. A
// DirectMapped cache can also stand in for one in an unknown state
// (Covers, FirstHits, Underlay), as a TraceCache can, so the fetch
// simulator splits a walk into parallel chunks only over those two; a
// walk over any other model is one serial chunk.
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
	//
	// An access to the line accessed immediately before must hit and
	// leave the cache's state unchanged. The fetch simulator relies on
	// it: it drops such accesses from the runs it replays and only
	// counts them. A model that adds state to a hit (a prefetcher
	// filling on hits, say) must keep this for the repeated line.
	Access(addr uint64) bool
	// Reset invalidates all cache state.
	Reset()
	// LineBytes returns the line size in bytes.
	LineBytes() int
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

// spare hands out the slices of a cache's copies. The fetch simulator
// copies its caches every so many block events; taking the copies'
// storage from blocks made for 1, 2, 4, … up to maxSpare copies at a
// time makes n copies cost O(log n + n/maxSpare) allocations instead of
// one per slice per copy. A cache shares its spares with its copies, so
// like Access, Copy is for one goroutine at a time.
type spare[T any] struct {
	free   []T
	copies int // the copies the last block was made for
}

const maxSpare = 16

// take returns n zero or stale elements of T; the caller overwrites them.
func (s *spare[T]) take(n int) []T {
	if len(s.free) < n {
		s.copies = min(max(2*s.copies, 1), maxSpare)
		s.free = make([]T, n*s.copies)
	}
	t := s.free[:n:n]
	s.free = s.free[n:]
	return t
}

// DirectMapped is a direct-mapped instruction cache.
//
// Started empty, a direct-mapped cache can stand in for one in an
// unknown state: it holds only what its own accesses put there, so its
// invalid sets mean "whatever the unknown state held", and its first
// access to each set is the only outcome that state could change. The
// fetch simulator joins a chunk walked from a cold start onto the true
// state this way (Covers, FirstHits, Underlay), and so splits a walk
// only over a direct-mapped cache or none.
type DirectMapped struct {
	geometry
	tags   []uint64
	valid  []bool
	first  []uint64  // the line that first made each set valid (FirstHits)
	spares *dmSpares // the storage of its copies, made on the first Copy
}

type dmSpares struct {
	caches spare[DirectMapped]
	words  spare[uint64]
	valid  spare[bool]
}

// NewDirectMapped returns a direct-mapped cache of the given total
// size. It panics on a geometry CheckGeometry rejects.
func NewDirectMapped(sizeBytes, lineBytes int) *DirectMapped {
	g := mustGeometry(sizeBytes, lineBytes, 1)
	return &DirectMapped{
		geometry: g,
		tags:     make([]uint64, g.sets()),
		valid:    make([]bool, g.sets()),
		first:    make([]uint64, g.sets()),
	}
}

// Access implements ICache.
func (c *DirectMapped) Access(addr uint64) bool {
	line := addr >> c.lineShift
	set := line & c.setMask
	if c.valid[set] && c.tags[set] == line {
		return true
	}
	if !c.valid[set] {
		c.first[set] = line
		c.valid[set] = true
	}
	c.tags[set] = line
	return false
}

// Reset implements ICache.
func (c *DirectMapped) Reset() { clear(c.valid) }

// Clone returns an empty cache of c's geometry. It reads only what
// construction set, so it may run while another goroutine accesses c.
func (c *DirectMapped) Clone() *DirectMapped {
	n := len(c.tags)
	return &DirectMapped{geometry: c.geometry,
		tags: make([]uint64, n), valid: make([]bool, n), first: make([]uint64, n)}
}

// Copy returns a cache of c's geometry in c's state. Like Access, it is
// for one goroutine at a time.
func (c *DirectMapped) Copy() *DirectMapped {
	if c.spares == nil {
		c.spares = new(dmSpares)
	}
	s, n := c.spares, len(c.tags)
	d := &s.caches.take(1)[0]
	*d = *c
	d.tags, d.valid, d.first = s.words.take(n), s.valid.take(n), s.words.take(n)
	copy(d.tags, c.tags)
	copy(d.valid, c.valid)
	copy(d.first, c.first)
	return d
}

// Covers reports whether every set valid in c holds the same line in
// o, a cache of c's geometry.
func (c *DirectMapped) Covers(o *DirectMapped) bool {
	for i, v := range c.valid {
		if v && !(o.valid[i] && o.tags[i] == c.tags[i]) {
			return false
		}
	}
	return true
}

// FirstHits counts the sets valid in c but not in before, a state the
// same run passed through, whose first line o holds: misses the run
// took after before that o's state would have made hits.
func (c *DirectMapped) FirstHits(before, o *DirectMapped) int {
	n := 0
	for i, v := range c.valid {
		if v && !before.valid[i] && o.valid[i] && o.tags[i] == c.first[i] {
			n++
		}
	}
	return n
}

// Underlay gives every set invalid in c o's content.
func (c *DirectMapped) Underlay(o *DirectMapped) {
	for i, v := range c.valid {
		if !v {
			c.valid[i], c.tags[i] = o.valid[i], o.tags[i]
		}
	}
}

// LineBytes implements ICache.
func (c *DirectMapped) LineBytes() int { return c.lineBytes() }

// SetAssoc is a k-way set-associative cache with true LRU replacement.
type SetAssoc struct {
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
	clear(c.valid)
	clear(c.age)
	c.clock = 0
}

// LineBytes implements ICache.
func (c *SetAssoc) LineBytes() int { return c.lineBytes() }

// Victim is a direct-mapped cache backed by a small fully-associative
// victim cache (Jouppi). Lines evicted from the main cache move to the
// victim buffer; a victim-buffer hit swaps the line back into the main
// cache and counts as a hit.
type Victim struct {
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
	clear(c.vvalid)
	clear(c.vage)
	c.clock = 0
}

// LineBytes implements ICache.
func (c *Victim) LineBytes() int { return c.main.LineBytes() }
