package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/program"
)

func TestDirectMappedBasic(t *testing.T) {
	c := NewDirectMapped(1024, 64) // 16 sets
	if c.Access(0) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0) {
		t.Fatal("second access must hit")
	}
	if !c.Access(63) {
		t.Fatal("same line must hit")
	}
	if c.Access(64) {
		t.Fatal("next line cold access must miss")
	}
	// 1024 bytes, 16 sets: address 0 and 1024 conflict.
	if c.Access(1024) {
		t.Fatal("conflicting line must miss")
	}
	if c.Access(0) {
		t.Fatal("evicted line must miss")
	}
	c.Reset()
	if c.Access(64) {
		t.Fatal("access after reset must miss")
	}
}

func TestDirectMappedBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewDirectMapped(1000, 64)
}

func TestSetAssocLRU(t *testing.T) {
	c := NewSetAssoc(2048, 64, 2) // 16 sets, 2 ways
	// Three lines mapping to set 0: 0, 1024, 2048.
	c.Access(0)
	c.Access(1024)
	if !c.Access(0) || !c.Access(1024) {
		t.Fatal("both ways must be resident")
	}
	c.Access(0)    // 0 is now MRU, 1024 LRU
	c.Access(2048) // evicts 1024
	if !c.Access(0) {
		t.Fatal("MRU line evicted instead of LRU")
	}
	if c.Access(1024) {
		t.Fatal("LRU line should have been evicted")
	}
}

// Property: a 1-way set-associative cache behaves exactly like a
// direct-mapped cache of the same geometry.
func TestOneWayEqualsDirectMapped(t *testing.T) {
	f := func(addrs []uint16) bool {
		dm := NewDirectMapped(1024, 64)
		sa := NewSetAssoc(1024, 64, 1)
		for _, a := range addrs {
			if dm.Access(uint64(a)) != sa.Access(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a k-way cache never has more misses than a direct-mapped
// cache of the same size on any address sequence confined to one set's
// conflict group... not true in general (LRU vs direct pathologies),
// so instead check the inclusion-style sanity property: repeating the
// same address twice in a row always hits the second time.
func TestImmediateRehitProperty(t *testing.T) {
	caches := []ICache{
		NewDirectMapped(1024, 64),
		NewSetAssoc(2048, 64, 2),
		NewVictim(1024, 64, 4),
	}
	f := func(addrs []uint32) bool {
		for _, c := range caches {
			c.Reset()
			for _, a := range addrs {
				c.Access(uint64(a))
				if !c.Access(uint64(a)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVictimCatchesConflicts(t *testing.T) {
	c := NewVictim(1024, 64, 4)
	// 0 and 1024 conflict in the main cache.
	c.Access(0)
	c.Access(1024) // miss; 0 moves to victim buffer
	if !c.Access(0) {
		t.Fatal("victim buffer should hold line 0")
	}
	// The swap puts 1024 in the victim buffer now.
	if !c.Access(1024) {
		t.Fatal("victim buffer should hold line 1024 after swap")
	}
}

func TestVictimLRUReplacement(t *testing.T) {
	c := NewVictim(64, 64, 2) // main: 1 set; victim: 2 lines
	c.Access(0)               // main: 0
	c.Access(64)              // main: 64, victim: [0]
	c.Access(128)             // main: 128, victim: [0, 64]
	c.Access(192)             // main: 192, victim: [64, 128] (0 was LRU)
	if c.Access(0) {
		t.Fatal("line 0 should have aged out of the 2-entry victim buffer")
	}
	if !c.Access(128) {
		t.Fatal("line 128 should still be in the victim buffer")
	}
}

// storedTrace is a stored trace over the given blocks, instrs instructions
// long, taking its last block to the end.
func storedTrace(instrs int32, blocks ...program.BlockID) Trace {
	return Trace{Blocks: blocks, Instrs: instrs}
}

func TestTraceCacheFillLookup(t *testing.T) {
	tc := NewTraceCache(256)
	want := Trace{Blocks: []program.BlockID{7, 3}, Instrs: 5, End: 2}
	tc.Fill(100, want)
	got, ok := tc.Lookup(100)
	if !ok || !slices.Equal(got.Blocks, want.Blocks) || got.Instrs != want.Instrs || got.End != want.End {
		t.Fatalf("lookup = %+v, %v, want %+v", got, ok, want)
	}
	// The stored trace is a copy: the fill unit reuses its buffer.
	want.Blocks[0] = 9
	if got, _ := tc.Lookup(100); got.Blocks[0] != 7 {
		t.Fatal("fill must copy the blocks")
	}
	// The blocks returned end with the line: appending to them does not
	// write into the next entry.
	if got, _ := tc.Lookup(100); cap(got.Blocks) != len(got.Blocks) {
		t.Fatalf("lookup returns %d blocks with capacity %d", len(got.Blocks), cap(got.Blocks))
	}
	// Wrong fetch address: no trace.
	if _, ok := tc.Lookup(104); ok {
		t.Fatal("wrong tag must miss")
	}
	// Same entry, other tag: no trace either.
	if _, ok := tc.Lookup(100 + 256*4); ok {
		t.Fatal("aliasing address must miss")
	}
}

func TestTraceCacheConflict(t *testing.T) {
	tc := NewTraceCache(256)
	// Addresses 4*i and 4*(i+256) index the same entry.
	a, b := uint64(0), uint64(256*4)
	tc.Fill(a, storedTrace(1, 1))
	tc.Fill(b, storedTrace(1, 2))
	if _, ok := tc.Lookup(a); ok {
		t.Fatal("conflicting fill should have evicted entry a")
	}
	if got, ok := tc.Lookup(b); !ok || !slices.Equal(got.Blocks, []program.BlockID{2}) {
		t.Fatal("entry b should be resident")
	}
}

func TestTraceCacheResetAndEmptyFill(t *testing.T) {
	tc := NewTraceCache(16)
	tc.Fill(0, Trace{}) // ignored
	if _, ok := tc.Lookup(0); ok {
		t.Fatal("empty fill must be ignored")
	}
	tc.Fill(0, storedTrace(1, 0))
	tc.Reset()
	if _, ok := tc.Lookup(0); ok {
		t.Fatal("lookup after reset must miss")
	}
}

// TestTraceCacheIndexEqualsDivMod pins the shift-and-mask entry index
// to the divide-and-modulo it replaced.
func TestTraceCacheIndexEqualsDivMod(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, entries := range []int{1, 2, 64, 256} {
		tc := NewTraceCache(entries)
		for i := 0; i < 2000; i++ {
			addr := rng.Uint64() >> uint(rng.Intn(64))
			want := int((addr / program.InstrBytes) % uint64(entries))
			if got := tc.index(addr); got != want {
				t.Fatalf("entries=%d addr=%#x: wrong entry", entries, addr)
			}
		}
	}
}

// ---- the divide-and-modulo caches, kept as the reference ----
//
// These are the models as they were before indexing went to shift and
// mask: line = addr / lineBytes, set = line % sets, for any geometry.
// The property test below requires the shipped caches to answer every
// access of a random address sequence the same way.

type refDirectMapped struct {
	lineBytes, sets uint64
	tags            []uint64
	valid           []bool
}

func newRefDirectMapped(sizeBytes, lineBytes int) *refDirectMapped {
	sets := uint64(sizeBytes / lineBytes)
	return &refDirectMapped{
		lineBytes: uint64(lineBytes), sets: sets,
		tags: make([]uint64, sets), valid: make([]bool, sets),
	}
}

func (c *refDirectMapped) Access(addr uint64) bool {
	line := addr / c.lineBytes
	set := line % c.sets
	if c.valid[set] && c.tags[set] == line {
		return true
	}
	c.valid[set] = true
	c.tags[set] = line
	return false
}

type refSetAssoc struct {
	lineBytes, sets uint64
	ways            int
	tags            []uint64
	valid           []bool
	age             []uint64
	clock           uint64
}

func newRefSetAssoc(sizeBytes, lineBytes, ways int) *refSetAssoc {
	sets := uint64(sizeBytes / lineBytes / ways)
	n := int(sets) * ways
	return &refSetAssoc{
		lineBytes: uint64(lineBytes), sets: sets, ways: ways,
		tags: make([]uint64, n), valid: make([]bool, n), age: make([]uint64, n),
	}
}

func (c *refSetAssoc) Access(addr uint64) bool {
	line := addr / c.lineBytes
	set := line % c.sets
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

type refVictim struct {
	main    *refDirectMapped
	entries int
	vtags   []uint64
	vvalid  []bool
	vage    []uint64
	clock   uint64
}

func newRefVictim(sizeBytes, lineBytes, entries int) *refVictim {
	return &refVictim{
		main: newRefDirectMapped(sizeBytes, lineBytes), entries: entries,
		vtags: make([]uint64, entries), vvalid: make([]bool, entries), vage: make([]uint64, entries),
	}
}

func (c *refVictim) Access(addr uint64) bool {
	line := addr / c.main.lineBytes
	set := line % c.main.sets
	c.clock++
	if c.main.valid[set] && c.main.tags[set] == line {
		return true
	}
	for i := 0; i < c.entries; i++ {
		if c.vvalid[i] && c.vtags[i] == line {
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
	if c.main.valid[set] {
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
		c.vtags[victim] = c.main.tags[set]
		c.vage[victim] = c.clock
	}
	c.main.tags[set] = line
	c.main.valid[set] = true
	return false
}

// TestShiftMaskEqualsDivMod: over random address sequences with
// conflicts, re-references and line-straddling offsets, every cache
// answers each access exactly as its divide-and-modulo reference.
func TestShiftMaskEqualsDivMod(t *testing.T) {
	type accessor interface{ Access(uint64) bool }
	type pair struct {
		name     string
		got, ref accessor
	}
	rng := rand.New(rand.NewSource(20))
	for _, lineBytes := range []int{16, 32, 64, 128} {
		for _, sets := range []int{1, 4, 32} {
			size := lineBytes * sets
			pairs := []pair{
				{"direct", NewDirectMapped(size, lineBytes), newRefDirectMapped(size, lineBytes)},
				{"2-way", NewSetAssoc(2*size, lineBytes, 2), newRefSetAssoc(2*size, lineBytes, 2)},
				{"3-way", NewSetAssoc(3*size, lineBytes, 3), newRefSetAssoc(3*size, lineBytes, 3)},
				{"victim", NewVictim(size, lineBytes, 4), newRefVictim(size, lineBytes, 4)},
			}
			// Addresses over 8x the cache so sets conflict, drawn with
			// locality so hits, victim swaps and LRU updates all occur.
			span := uint64(8 * size)
			addr := uint64(0)
			for i := 0; i < 20000; i++ {
				switch rng.Intn(4) {
				case 0:
					addr = rng.Uint64() % span
				case 1:
					addr = (addr + uint64(size)) % span // same set, next tag
				default:
					addr = (addr + uint64(rng.Intn(2*lineBytes))) % span
				}
				for _, p := range pairs {
					if g, r := p.got.Access(addr), p.ref.Access(addr); g != r {
						t.Fatalf("%s line=%d sets=%d access %d addr=%#x: hit=%v, reference %v",
							p.name, lineBytes, sets, i, addr, g, r)
					}
				}
			}
		}
	}
}

func TestCheckGeometry(t *testing.T) {
	for _, tc := range []struct {
		size, line, ways int
		ok               bool
	}{
		{2048, 64, 1, true},
		{64, 64, 1, true},
		{3 * 1024, 64, 3, true}, // 16 sets of 3 ways
		{65536, 128, 2, true},
		{1000, 64, 1, false},     // not a multiple of the line
		{3 * 1024, 64, 1, false}, // 48 sets
		{2048, 48, 1, false},     // line not a power of two
		{2048, 64, 3, false},     // not a multiple of line x ways
		{2048, 0, 1, false},
		{2048, -64, 1, false},
		{0, 64, 1, false},
		{-2048, 64, 1, false},
		{2048, 64, 0, false},
		{2048, 64, -2, false},
	} {
		err := CheckGeometry(tc.size, tc.line, tc.ways)
		if (err == nil) != tc.ok {
			t.Errorf("CheckGeometry(%d, %d, %d) = %v, want ok=%v", tc.size, tc.line, tc.ways, err, tc.ok)
		}
	}
}

// TestBadGeometryPanics: what CheckGeometry and CheckTraceCache reject,
// the constructors refuse to build.
func TestBadGeometryPanics(t *testing.T) {
	for name, build := range map[string]func(){
		"direct 48 sets":    func() { NewDirectMapped(3*1024, 64) },
		"direct 48B line":   func() { NewDirectMapped(48*16, 48) },
		"2-way 3 sets":      func() { NewSetAssoc(3*2*64, 64, 2) },
		"0-way":             func() { NewSetAssoc(2048, 64, 0) },
		"victim 48 sets":    func() { NewVictim(3*1024, 64, 4) },
		"victim no entries": func() { NewVictim(1024, 64, 0) },
		"trace cache 100":   func() { NewTraceCache(100) },
		"trace cache 0":     func() { NewTraceCache(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			build()
		}()
	}
}

// TestRepeatLineIsIdle pins the ICache invariant the fetch simulator's
// run replay rests on: an access to the line accessed immediately
// before, at any offset in it, hits and leaves the state as it was,
// whatever the history — fills, conflicts, LRU updates, victim swaps.
func TestRepeatLineIsIdle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cache ICache
	}{
		{"direct", NewDirectMapped(1024, 64)},
		{"direct 16B lines", NewDirectMapped(256, 16)},
		{"2-way", NewSetAssoc(2048, 64, 2)},
		{"3-way", NewSetAssoc(3*512, 32, 3)},
		{"victim", NewVictim(1024, 64, 4)},
		{"victim 1 set", NewVictim(64, 64, 2)},
	} {
		c, line := tc.cache, uint64(tc.cache.LineBytes())
		rng := rand.New(rand.NewSource(29))
		span := 16 * uint64(1024) // conflicts in every set
		for i := 0; i < 5000; i++ {
			a := rng.Uint64() % span
			if rng.Intn(2) == 0 {
				a %= 4 * line // re-references: hits, LRU and victim-buffer updates
			}
			c.Access(a)
			before := copyOf(c)
			if again := a&^(line-1) + rng.Uint64()%line; !c.Access(again) || !sameState(c, before) {
				t.Fatalf("%s, access %d: repeating line of %#x at %#x did not hit or changed the state", tc.name, i, a, again)
			}
		}
	}
}

// TestTraceCacheEqualClone: Equal compares stored traces whatever the
// order of fills that produced them, and Clone is empty.
func TestTraceCacheEqualClone(t *testing.T) {
	a, b := NewTraceCache(16), NewTraceCache(16)
	long := storedTrace(4, 0, 10, 20)
	short := storedTrace(3, 0)
	a.Fill(0, short)
	b.Fill(0, long)  // a longer trace first ...
	b.Fill(0, short) // ... then the same short one
	if !a.Equal(b) {
		t.Error("same traces after different fills are not Equal")
	}
	b.Fill(4, short)
	if a.Equal(b) || !a.Clone().Equal(NewTraceCache(16)) {
		t.Error("Equal or Clone wrong")
	}
	// The same blocks ending elsewhere are another trace.
	c := NewTraceCache(16)
	c.Fill(0, Trace{Blocks: short.Blocks, Instrs: 2, End: 2})
	if c.Equal(a) {
		t.Error("traces that end at different offsets are Equal")
	}
	b.Reset()
	if !b.Equal(a.Clone()) {
		t.Error("reset trace cache differs from an empty one")
	}
}

// TestTraceCacheFillLookupDoNotAllocate: traces are stored in one flat
// slice made at construction, so the fetch loop's Fill and Lookup
// allocate nothing.
func TestTraceCacheFillLookupDoNotAllocate(t *testing.T) {
	tc := NewTraceCache(64)
	blocks := make([]program.BlockID, 16)
	for i := range blocks {
		blocks[i] = program.BlockID(i)
	}
	var addr uint64
	allocs := testing.AllocsPerRun(1000, func() {
		addr += 4
		tc.Fill(addr, storedTrace(16, blocks[:1+addr%16]...))
		if _, ok := tc.Lookup(addr); !ok {
			t.Fatal("lookup after fill missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Fill+Lookup allocate %v times per call", allocs)
	}
}

// TestCopiesAreIndependent: copies take their storage from blocks a
// cache shares with its copies (see spare), yet each copy, copies of
// copies included, holds a state of its own: changing some copies leaves
// the others as they were. A walk copies its caches every so many block
// events, so a copy costs well under one allocation.
func TestCopiesAreIndependent(t *testing.T) {
	step := func(dm *DirectMapped, tc *TraceCache, i int) {
		dm.Access(uint64(i) * 48)
		tc.Fill(uint64(i%8)*4, storedTrace(int32(1+i%4), program.BlockID(i), program.BlockID(i+1)))
	}
	fresh := func(i int) (*DirectMapped, *TraceCache) {
		dm, tc := NewDirectMapped(256, 16), NewTraceCache(8)
		for j := 0; j <= i; j++ {
			step(dm, tc, j)
		}
		return dm, tc
	}
	// Copy i is in the state after step i: a copy of the cache, or every
	// third time a copy of copy i-1 taken one step on.
	dm, tc := NewDirectMapped(256, 16), NewTraceCache(8)
	var dms []*DirectMapped
	var tcs []*TraceCache
	for i := 0; i < 3*maxSpare; i++ {
		step(dm, tc, i)
		cd, ct := dm.Copy(), tc.Copy()
		if i%3 == 2 {
			cd, ct = dms[i-1].Copy(), tcs[i-1].Copy()
			step(cd, ct, i)
		}
		dms, tcs = append(dms, cd), append(tcs, ct)
	}
	for i := 0; i < len(dms); i += 2 {
		step(dms[i], tcs[i], 1000+i)
	}
	for i := 1; i < len(dms); i += 2 {
		if wd, wt := fresh(i); !sameState(dms[i], wd) || !tcs[i].Equal(wt) {
			t.Fatalf("copy %d changed with the copies around it", i)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { dm.Copy(); tc.Copy() }); allocs >= 1 {
		t.Errorf("copying a direct-mapped cache and a trace cache takes %v allocations", allocs)
	}
}

// Equal reports whether other holds the same traces under the same
// tags.
func (tc *TraceCache) Equal(other *TraceCache) bool {
	return slices.Equal(tc.lines, other.lines) && slices.Equal(tc.blocks, other.blocks)
}

// copyOf returns a cache of c's kind and geometry in c's state.
func copyOf(c ICache) ICache {
	switch c := c.(type) {
	case *DirectMapped:
		return c.Copy()
	case *SetAssoc:
		d := *c
		d.tags, d.valid, d.age = slices.Clone(c.tags), slices.Clone(c.valid), slices.Clone(c.age)
		return &d
	case *Victim:
		d := *c
		d.main = c.main.Copy()
		d.vtags, d.vvalid, d.vage = slices.Clone(c.vtags), slices.Clone(c.vvalid), slices.Clone(c.vage)
		return &d
	}
	panic(fmt.Sprintf("copyOf(%T)", c))
}

// sameState reports whether a and b, caches of one kind and geometry,
// are in the same state: the same resident lines and, where replacement
// is LRU, the same relative recency order. Two such caches answer every
// future access sequence identically, whatever the histories (and the
// clocks) that led to them.
func sameState(a, b ICache) bool {
	switch a := a.(type) {
	case *DirectMapped:
		b := b.(*DirectMapped)
		return a.Covers(b) && b.Covers(a)
	case *SetAssoc:
		b := b.(*SetAssoc)
		for base := 0; base < len(a.valid); base += a.ways {
			end := base + a.ways
			if !sameLRU(a.tags[base:end], a.valid[base:end], a.age[base:end], b.tags[base:end], b.valid[base:end], b.age[base:end]) {
				return false
			}
		}
		return true
	case *Victim:
		b := b.(*Victim)
		return sameState(a.main, b.main) && sameLRU(a.vtags, a.vvalid, a.vage, b.vtags, b.vvalid, b.vage)
	}
	panic(fmt.Sprintf("sameState(%T)", a))
}

// sameLRU reports whether two LRU-managed groups of lines (a set of a
// SetAssoc, a victim buffer) hold the same valid lines with the same
// recency ranks. Ages are compared only within one group: the rank of
// a line is the number of valid lines in its group stamped before it.
// Stamps within a group are distinct, so the ranks are too.
func sameLRU(atags []uint64, avalid []bool, aage []uint64, btags []uint64, bvalid []bool, bage []uint64) bool {
	n := 0
	for i, v := range avalid {
		if !v {
			continue
		}
		n++
		j := 0
		for j < len(bvalid) && !(bvalid[j] && btags[j] == atags[i]) {
			j++
		}
		if j == len(bvalid) || rank(avalid, aage, aage[i]) != rank(bvalid, bage, bage[j]) {
			return false
		}
	}
	for _, v := range bvalid {
		if v {
			n--
		}
	}
	return n == 0
}

// rank is the number of valid lines stamped before age.
func rank(valid []bool, age []uint64, a uint64) int {
	r := 0
	for i, v := range valid {
		if v && age[i] < a {
			r++
		}
	}
	return r
}
