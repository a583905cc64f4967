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
	if got := total(ct); got != 1 {
		t.Fatalf("Emit through a resolved recorder counted %d, want 1", got)
	}
}

// total is the number of emissions across all probes.
func total(ct *CountingTracer) (n uint64) {
	for id := ID(0); id < NumProbes; id++ {
		n += ct.Count(id)
	}
	return n
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
	if got := total(ct); got != 3 {
		t.Fatalf("Total = %d, want 3", got)
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
	if got := total(ct); got != 2*goroutines*perG {
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
