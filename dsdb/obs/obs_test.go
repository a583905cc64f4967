package obs

import (
	"bytes"
	"errors"
	"log"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable deterministic clock for span timing.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newFakeTracer(cfg Config) (*Tracer, *fakeClock) {
	t := New(cfg)
	c := &fakeClock{t: time.Unix(1000, 0)}
	t.SetNow(c.now)
	return t, c
}

func TestSpanRecord(t *testing.T) {
	tr, clk := newFakeTracer(Config{})
	sp := tr.Begin("Q9", "select 1")
	if sp.ID() != 1 {
		t.Fatalf("first span id = %d, want 1", sp.ID())
	}
	sp.Add(StagePlan, time.Millisecond)
	sp.Add(StageExec, 10*time.Millisecond) // includes the waits below
	sp.Add(StageIO, 3*time.Millisecond)
	sp.Add(StageWAL, 2*time.Millisecond)
	sp.Add(StageNet, 4*time.Millisecond)
	sp.AddRows(7)
	sp.SetCacheHit()
	clk.advance(20 * time.Millisecond)
	sp.End()
	sp.End() // idempotent

	recs := tr.Recent()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.ID != 1 || r.Label != "Q9" || r.SQL != "select 1" || r.Rows != 7 || !r.CacheHit {
		t.Fatalf("bad record identity: %+v", r)
	}
	if r.Total != 20*time.Millisecond {
		t.Fatalf("total = %s, want 20ms", r.Total)
	}
	// Exec is reported net of the IO and WAL waits it contained.
	want := [NumStages]time.Duration{
		StagePlan: time.Millisecond, StageExec: 5 * time.Millisecond,
		StageIO: 3 * time.Millisecond, StageWAL: 2 * time.Millisecond,
		StageNet: 4 * time.Millisecond,
	}
	if r.Stages != want {
		t.Fatalf("stages = %v, want %v", r.Stages, want)
	}
}

func TestNilTracerAndSpanAreSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("x", "y")
	if sp != nil {
		t.Fatal("nil tracer Begin must return nil span")
	}
	sp.Add(StageExec, time.Second)
	sp.AddRows(1)
	sp.SetCacheHit()
	sp.SetErr(errors.New("boom"))
	sp.End()
	if sp.ID() != 0 {
		t.Fatal("nil span id must be 0")
	}
	if tr.Recent() != nil || tr.Slow() != nil {
		t.Fatal("nil tracer rings must be nil")
	}
	tr.SetSlowThreshold(time.Second)
	tr.SetSlowLogger(log.New(&bytes.Buffer{}, "", 0))
	tr.SetNow(nil)
	if s := tr.StageSnapshot(StageExec); s.Count != 0 {
		t.Fatal("nil tracer snapshot must be zero")
	}
}

// TestRingEvictionNewestFirst: the recent ring holds the last RingSize
// queries newest first — while it is still growing towards RingSize,
// when it is exactly full, and after it has wrapped — and never takes
// more room than RingSize records.
func TestRingEvictionNewestFirst(t *testing.T) {
	for _, size := range []int{3, 40} { // 40: grows in steps (16, 40), not in one
		tr, _ := newFakeTracer(Config{RingSize: size})
		for ended := 1; ended <= 2*size+size/2; ended++ {
			tr.Begin("", "q").End()
			recs := tr.Recent()
			if want := min(ended, size); len(recs) != want {
				t.Fatalf("ring of %d after %d queries: %d records, want %d", size, ended, len(recs), want)
			}
			for i := range recs {
				if want := uint64(ended - i); recs[i].ID != want {
					t.Fatalf("ring of %d after %d queries: recs[%d].ID = %d, want %d (newest first)", size, ended, i, recs[i].ID, want)
				}
			}
			if cap(tr.ring) > size {
				t.Fatalf("ring of %d has room for %d records", size, cap(tr.ring))
			}
		}
	}
}

func TestSlowRingAndLogger(t *testing.T) {
	tr, clk := newFakeTracer(Config{})
	tr.SetSlowThreshold(10 * time.Millisecond)
	var buf bytes.Buffer
	tr.SetSlowLogger(log.New(&buf, "", 0))

	fast := tr.Begin("fast", "select 1")
	clk.advance(time.Millisecond)
	fast.End()

	slow := tr.Begin("Q9", "select heavy")
	slow.Add(StageExec, 40*time.Millisecond)
	slow.SetErr(errors.New("late"))
	clk.advance(50 * time.Millisecond)
	slow.End()

	recs := tr.Slow()
	if len(recs) != 1 || recs[0].Label != "Q9" {
		t.Fatalf("slow ring = %+v, want just Q9", recs)
	}
	line := buf.String()
	for _, want := range []string{"qid=2", `label="Q9"`, "total=50ms", "exec=40ms", `err="late"`, `sql="select heavy"`} {
		if !strings.Contains(line, want) {
			t.Fatalf("slow log line %q missing %q", line, want)
		}
	}
	if len(tr.Recent()) != 2 {
		t.Fatal("slow queries must land in the recent ring too")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(50 * time.Microsecond)  // bucket 0 (le_100us)
	h.Observe(100 * time.Microsecond) // bucket 0 (bounds are inclusive)
	h.Observe(3 * time.Millisecond)   // le_5ms
	h.Observe(time.Minute)            // overflow
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Sum != 50*time.Microsecond+100*time.Microsecond+3*time.Millisecond+time.Minute {
		t.Fatalf("sum = %s", s.Sum)
	}
	if s.Counts[0] != 2 || s.Counts[bucketIndex(3*time.Millisecond)] != 1 || s.Counts[NumBuckets-1] != 1 {
		t.Fatalf("counts = %v", s.Counts)
	}
}

func TestBucketLabels(t *testing.T) {
	if got := BucketLabel(0); got != "le_100us" {
		t.Fatalf("BucketLabel(0) = %q", got)
	}
	if got := BucketLabel(NumBuckets - 1); got != "gt_10s" {
		t.Fatalf("tail label = %q", got)
	}
	if got := BucketSeconds(0); got != "0.0001" {
		t.Fatalf("BucketSeconds(0) = %q", got)
	}
	if got := BucketSeconds(NumBuckets - 1); got != "+Inf" {
		t.Fatalf("tail seconds = %q", got)
	}
	seen := map[string]bool{}
	for i := 0; i < NumBuckets; i++ {
		l := BucketLabel(i)
		if seen[l] {
			t.Fatalf("duplicate bucket label %q", l)
		}
		seen[l] = true
	}
}

func TestSQLTruncation(t *testing.T) {
	tr, _ := newFakeTracer(Config{})
	long := strings.Repeat("x", 10*maxSQL)
	tr.Begin("", long).End()
	if got := len(tr.Recent()[0].SQL); got != maxSQL {
		t.Fatalf("retained SQL length = %d, want %d", got, maxSQL)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New(Config{RingSize: 64})
	tr.SetSlowThreshold(1)
	tr.SetSlowLogger(log.New(&syncBuffer{}, "", 0))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Begin("w", "select 1")
				sp.Add(StageExec, time.Microsecond)
				sp.Add(StageIO, time.Nanosecond) // concurrent-stage shape
				sp.AddRows(1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	for _, st := range []Stage{StageExec, StageIO} {
		if got := tr.StageSnapshot(st).Count; got != 8*200 {
			t.Fatalf("%s histogram observed %d spans, want %d", st, got, 8*200)
		}
	}
	if got := len(tr.Recent()); got != 64 {
		t.Fatalf("ring holds %d, want 64", got)
	}
}

// syncBuffer is a goroutine-safe io.Writer for concurrent log tests.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
