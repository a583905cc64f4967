package probe

import (
	"sync"
	"testing"
)

func TestResolveUntracedIsNil(t *testing.T) {
	for _, tr := range []Tracer{nil, NopTracer{}, Carrier{}} {
		if got := Resolve(tr); got != nil {
			t.Fatalf("Resolve(%T) = %T, want nil", tr, got)
		}
	}
	Emit(nil, BufGetEnter) // must not panic
	ct := NewCountingTracer()
	if got := Resolve(ct); got != Tracer(ct) {
		t.Fatalf("Resolve(recorder) must return its argument")
	}
	Emit(Resolve(ct), BufGetEnter)
	if ct.Total() != 1 {
		t.Fatalf("Emit through a resolved recorder counted %d, want 1", ct.Total())
	}
}

func TestCounterSetRegistration(t *testing.T) {
	s := NewCounterSet()
	a := s.Register("buf.hits")
	b := s.Register("buf.hits")
	if a != b {
		t.Fatalf("Register must be idempotent: got two distinct counters for one name")
	}
	if s.Lookup("buf.hits") != a {
		t.Fatalf("Lookup must return the registered counter")
	}
	if s.Lookup("nope") != nil {
		t.Fatalf("Lookup of an unregistered name must return nil")
	}
	s.Register("buf.misses")
	names := s.Names()
	if len(names) != 2 || names[0] != "buf.hits" || names[1] != "buf.misses" {
		t.Fatalf("Names = %v, want sorted [buf.hits buf.misses]", names)
	}
	if a.Name() != "buf.hits" {
		t.Fatalf("Name = %q, want buf.hits", a.Name())
	}
}

func TestCounterSetResetSemantics(t *testing.T) {
	s := NewCounterSet()
	c := s.Register("events")
	c.Add(41)
	c.Inc()
	if got := c.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
	snap := s.Snapshot()
	if snap["events"] != 42 {
		t.Fatalf("Snapshot = %v, want events:42", snap)
	}
	s.Reset()
	if got := c.Load(); got != 0 {
		t.Fatalf("after Reset, Load = %d, want 0", got)
	}
	// Registration survives the reset: the same pointer keeps counting.
	if s.Register("events") != c {
		t.Fatalf("Reset must not drop registrations")
	}
	c.Inc()
	if got := s.Snapshot()["events"]; got != 1 {
		t.Fatalf("post-reset count = %d, want 1", got)
	}
}

// TestCounterConcurrentIncrements asserts no lost updates: G
// goroutines × N increments on counters shared through one set must
// total exactly G*N.
func TestCounterConcurrentIncrements(t *testing.T) {
	const goroutines, perG = 16, 10000
	s := NewCounterSet()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every goroutine registers the same names itself,
			// exercising concurrent registration too.
			hits := s.Register("hits")
			odd := s.Register("odd")
			for i := 0; i < perG; i++ {
				hits.Inc()
				if i%2 == 1 {
					odd.Inc()
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Lookup("hits").Load(); got != goroutines*perG {
		t.Fatalf("hits = %d, want %d (lost updates)", got, goroutines*perG)
	}
	if got := s.Lookup("odd").Load(); got != goroutines*perG/2 {
		t.Fatalf("odd = %d, want %d", got, goroutines*perG/2)
	}
}

func TestCountingTracerCounts(t *testing.T) {
	ct := NewCountingTracer()
	ct.Emit(BufGetEnter)
	ct.Emit(BufGetEnter)
	ct.Emit(BufGetHit)
	ct.Emit(ID(-1))    // out of range: ignored, not a panic
	ct.Emit(NumProbes) // sentinel: ignored
	if got := ct.Count(BufGetEnter); got != 2 {
		t.Fatalf("Count(BufGetEnter) = %d, want 2", got)
	}
	if got := ct.Count(BufGetHit); got != 1 {
		t.Fatalf("Count(BufGetHit) = %d, want 1", got)
	}
	if got := ct.Count(ID(-1)); got != 0 {
		t.Fatalf("Count out of range = %d, want 0", got)
	}
	if got := ct.Total(); got != 3 {
		t.Fatalf("Total = %d, want 3", got)
	}
	ct.Reset()
	if got := ct.Total(); got != 0 {
		t.Fatalf("after Reset, Total = %d, want 0", got)
	}
}

// TestCountingTracerConcurrent shares one tracer across goroutines
// emitting distinct and overlapping probes; per-probe totals must be
// exact.
func TestCountingTracerConcurrent(t *testing.T) {
	const goroutines, perG = 16, 10000
	ct := NewCountingTracer()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := ID(g % int(NumProbes)) // overlapping across goroutines
			for i := 0; i < perG; i++ {
				ct.Emit(own)
				ct.Emit(ExecProcEnter)
			}
		}(g)
	}
	wg.Wait()
	if got := ct.Total(); got != 2*goroutines*perG {
		t.Fatalf("Total = %d, want %d (lost updates)", got, 2*goroutines*perG)
	}
	// ExecProcEnter got one emission per loop from every goroutine,
	// plus perG extra from the goroutine whose own ID it is.
	want := uint64(goroutines * perG)
	if int(ExecProcEnter) < goroutines {
		want += perG
	}
	if got := ct.Count(ExecProcEnter); got != want {
		t.Fatalf("Count(ExecProcEnter) = %d, want %d", got, want)
	}
}
