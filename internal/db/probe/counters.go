package probe

import "sync/atomic"

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
