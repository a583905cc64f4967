package probe

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is one named, atomically updated event counter. The zero
// value is unusable; obtain counters from a CounterSet so names stay
// unique and resettable as a group.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Name returns the counter's registration name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// reset zeroes the counter (via CounterSet.Reset).
func (c *Counter) reset() { c.v.Store(0) }

// CounterSet is a registry of named counters, safe for concurrent
// registration, increment and snapshot — the bookkeeping side of the
// instrumentation, used where full block traces are too heavy: the
// buffer pool keeps its hit/miss statistics in one ("buffer.hits",
// "buffer.misses").
type CounterSet struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewCounterSet returns an empty registry.
func NewCounterSet() *CounterSet {
	return &CounterSet{counters: make(map[string]*Counter)}
}

// Register returns the counter with the given name, creating it on
// first use — registering the same name twice yields the same
// counter, so independent subsystems can share one by agreement.
func (s *CounterSet) Register(name string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	s.counters[name] = c
	return c
}

// Lookup returns the named counter, or nil if never registered.
func (s *CounterSet) Lookup(name string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// Names lists the registered counter names, sorted.
func (s *CounterSet) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.counters))
	for n := range s.counters {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a copy of all counts by name. Counters still being
// incremented concurrently are read atomically, but the map is not
// one global atomic snapshot.
func (s *CounterSet) Snapshot() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.counters))
	for n, c := range s.counters {
		out[n] = c.Load()
	}
	return out
}

// Reset zeroes every registered counter. Registration survives a
// reset: the same *Counter pointers keep counting from zero.
func (s *CounterSet) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.counters {
		c.reset()
	}
}

// CountingTracer counts probe emissions per probe ID with atomic
// increments instead of recording a trace. Unlike a kernel trace
// Session (which is single-threaded by design), a CountingTracer may
// be shared by any number of goroutines, and totals are exact under
// concurrency.
type CountingTracer struct {
	counts [NumProbes]atomic.Uint64
}

// NewCountingTracer returns a zeroed counting tracer.
func NewCountingTracer() *CountingTracer { return &CountingTracer{} }

var _ Tracer = (*CountingTracer)(nil)

// Emit implements Tracer.
func (t *CountingTracer) Emit(id ID) {
	if id >= 0 && id < NumProbes {
		t.counts[id].Add(1)
	}
}

// Count returns the number of emissions of one probe.
func (t *CountingTracer) Count(id ID) uint64 {
	if id < 0 || id >= NumProbes {
		return 0
	}
	return t.counts[id].Load()
}

// Total returns the number of emissions across all probes.
func (t *CountingTracer) Total() uint64 {
	var n uint64
	for i := range t.counts {
		n += t.counts[i].Load()
	}
	return n
}

// Reset zeroes all per-probe counts.
func (t *CountingTracer) Reset() {
	for i := range t.counts {
		t.counts[i].Store(0)
	}
}
