// Package obs is the query-observability subsystem: every query gets
// a monotonically-assigned id and a Span that accumulates per-stage
// wall time — parse/plan, result-cache lookup, executor, buffer-pool
// IO wait, WAL append, network flush — as the execution threads
// through the kernel. Ended spans become Records in a ring of recent
// queries, feed per-stage aggregate histograms, and, past a
// configurable threshold, land in a slow-query ring and structured
// slow-query log. The server surfaces all of it: SHOW queries / SHOW
// slow, Server.Stats, and the dsdbd -metrics-addr Prometheus
// endpoint.
//
// The package imports only the standard library, so every layer from
// the engine kernel up to the wire server can depend on it without
// cycles. Spans are pooled and all stage counters are atomic, so a
// stage may be added to from any goroutine. Every Span method is
// nil-safe — the disabled path (nil *Tracer, hence nil *Span) costs
// one nil check per call site.
package obs

import (
	"fmt"
	"log"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stage enumerates the span's per-stage timers, in reporting order.
type Stage int

const (
	// StagePlan is the time to get a compiled plan: parse + plan for a
	// new text, the plan pool's take for a repeated one.
	StagePlan Stage = iota
	// StageCache is result-cache lookup time (hits and misses).
	StageCache
	// StageExec is executor time: plan Open plus every Next pull. At
	// End the contained IO and WAL waits are subtracted, so the
	// reported stages are disjoint and sum toward the total.
	StageExec
	// StageIO is buffer-pool IO wait: evict-flushes, storage reads,
	// and waits on another session's in-flight read of the same page.
	StageIO
	// StageWAL is write-ahead-log append/fsync time (inserts).
	StageWAL
	// StageNet is network time: encoding and flushing result frames to
	// the client, including backpressure from a slow reader.
	StageNet
	// NumStages bounds the per-stage arrays.
	NumStages
)

var stageNames = [NumStages]string{"plan", "cache", "exec", "io", "wal", "net"}

// String returns the stage's stable snake_case name ("plan", "cache",
// "exec", "io", "wal", "net") — the identifier used in stats pairs,
// metric labels and SHOW column names.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// Buckets are the log-spaced (1-2-5 per decade) latency histogram
// bounds shared by the tracer's stage histograms and the server's
// query-latency histogram, 100µs through 10s; one unbounded overflow
// bucket follows. Exported so clients can derive bucket names instead
// of hardcoding them.
var Buckets = [...]time.Duration{
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
}

// NumBuckets is the histogram's bucket count: every bound in Buckets
// plus the unbounded overflow bucket.
const NumBuckets = len(Buckets) + 1

// BucketLabel renders bucket i's stable identifier: "le_100us" ...
// "le_10s" for bounded buckets, "gt_10s" for the overflow bucket.
func BucketLabel(i int) string {
	if i < len(Buckets) {
		return "le_" + fmtBound(Buckets[i])
	}
	return "gt_" + fmtBound(Buckets[len(Buckets)-1])
}

// BucketSeconds renders bucket i's upper bound in seconds for
// Prometheus "le" labels ("+Inf" for the overflow bucket).
func BucketSeconds(i int) string {
	if i < len(Buckets) {
		return strconv.FormatFloat(Buckets[i].Seconds(), 'g', -1, 64)
	}
	return "+Inf"
}

// fmtBound renders a bucket bound compactly; every bound in Buckets
// is a whole number of exactly one unit (100us, 2ms, 10s).
func fmtBound(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dus", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%ds", int(d.Seconds()))
	}
}

// bucketIndex maps a duration onto its histogram bucket.
func bucketIndex(d time.Duration) int {
	for i, b := range Buckets {
		if d <= b {
			return i
		}
	}
	return len(Buckets)
}

// Histogram is a fixed-bound latency histogram over Buckets. All
// fields are atomic: Observe is lock-free and safe from any
// goroutine, and Snapshot never stops the world. The observation
// count is not stored — it is the sum of the bucket counts, paid for
// at Snapshot time instead of with a third atomic on the hot path.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketIndex(d)].Add(1)
	h.sum.Add(int64(d))
}

// Snapshot copies the histogram's counters.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.Sum = time.Duration(h.sum.Load())
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram. Counts[i] is
// the number of observations in bucket i alone (not cumulative);
// bucket bounds are Buckets, with the final entry unbounded.
type HistSnapshot struct {
	Counts [NumBuckets]uint64
	Sum    time.Duration
	Count  uint64
}

// maxSQL bounds the query text retained per span, so the ring's
// memory stays proportional to its length, not to query size.
const maxSQL = 200

// Span is one query's in-flight observation: per-stage atomic
// nanosecond counters plus identity. Obtain spans from Tracer.Begin
// and finish them with End; all methods are nil-safe, so untraced
// paths pass nil spans around freely.
type Span struct {
	t     *Tracer
	id    uint64
	label string
	sql   string
	start time.Time

	stages [NumStages]atomic.Int64
	rows   atomic.Int64
	hit    atomic.Bool
	ended  atomic.Bool

	// errMsg is written by the execution's owning goroutine before End
	// and read only by End; no synchronization needed beyond that.
	errMsg string
	// topOp names the dominant (largest self-time) operator when the
	// query ran under EXPLAIN ANALYZE instrumentation; same ownership
	// discipline as errMsg.
	topOp string
}

// ID returns the span's query id (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// StartTime returns the clock reading Begin took. Callers timing the
// first stage of a query use it as that stage's start so the hot path
// pays one clock read per stage boundary, not two per stage.
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Add accumulates d into the given stage. Safe for concurrent use.
func (s *Span) Add(st Stage, d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.stages[st].Add(int64(d))
}

// Stage returns what has been accumulated into the given stage so far,
// as added (the disjoint-exec clamp is End's and StageNanos'). It lets
// an outer timer book "everything in this interval that an inner stage
// has not already booked" with two clock reads, whatever the number of
// inner Adds. 0 for a nil span.
func (s *Span) Stage(st Stage) time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.stages[st].Load())
}

// AddRows accumulates produced/streamed rows.
func (s *Span) AddRows(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.rows.Add(n)
}

// SetCacheHit marks the query as answered from the result cache.
func (s *Span) SetCacheHit() {
	if s == nil {
		return
	}
	s.hit.Store(true)
}

// SetErr records the error that ended the query. Call before End,
// from the execution's goroutine.
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
}

// SetTopOp records the dominant operator of an EXPLAIN ANALYZE
// execution. Call before End, from the execution's goroutine.
func (s *Span) SetTopOp(op string) {
	if s == nil || op == "" {
		return
	}
	s.topOp = op
}

// StageNanos snapshots the span's per-stage nanosecond counters with
// the same disjoint-exec clamp End applies when publishing, so a
// reader that needs the stage breakdown before the span ends (the
// workload capture records it alongside the result's terminal frame)
// sees the exact values the span's Record will carry. Zero array on a
// nil span. Safe to call from the execution's goroutine any time
// before End.
func (s *Span) StageNanos() [NumStages]int64 {
	var out [NumStages]int64
	if s == nil {
		return out
	}
	for i := range out {
		out[i] = s.stages[i].Load()
	}
	clampExec(&out)
	return out
}

// clampExec subtracts the contained IO and WAL waits out of the exec
// stage: exec is timed around whole executor pulls, so it contains the
// waits those pulls blocked on, and reporting requires disjoint stages
// that sum toward the total.
func clampExec[T ~int64](st *[NumStages]T) {
	if over := st[StageIO] + st[StageWAL]; st[StageExec] > over {
		st[StageExec] -= over
	} else if over > 0 {
		st[StageExec] = 0
	}
}

// End finishes the span: the total is measured, the contained IO/WAL
// waits are subtracted out of the exec stage (stages become disjoint),
// the record is published to the tracer's rings and histograms, slow
// queries are logged, and the span returns to the pool. Idempotent;
// the span must not be touched after the first End.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.t.finish(s)
}

// Record is one finished query as published by Span.End: identity,
// outcome and the disjoint per-stage durations (indexed by Stage).
type Record struct {
	ID       uint64
	Label    string
	SQL      string
	Start    time.Time
	Total    time.Duration
	Stages   [NumStages]time.Duration
	Rows     int64
	CacheHit bool
	Err      string
	// TopOp is the dominant operator (largest self time) when the
	// query ran under EXPLAIN ANALYZE instrumentation; "" otherwise.
	TopOp string
}

// LogLine renders the record as one structured key=value line — the
// slow-query log format.
func (r Record) LogLine() string {
	var b strings.Builder
	fmt.Fprintf(&b, "qid=%d label=%q total=%s rows=%d hit=%t", r.ID, r.Label, r.Total, r.Rows, r.CacheHit)
	for i, d := range r.Stages {
		fmt.Fprintf(&b, " %s=%s", Stage(i), d)
	}
	if r.Err != "" {
		fmt.Fprintf(&b, " err=%q", r.Err)
	}
	if r.TopOp != "" {
		fmt.Fprintf(&b, " top_op=%q", r.TopOp)
	}
	fmt.Fprintf(&b, " sql=%q", r.SQL)
	return b.String()
}

// Config configures New. The zero value is a usable default.
type Config struct {
	// Disabled is consumed by dsdb.WithObservability: a disabled
	// database carries a nil *Tracer and pays one nil check per query.
	// New itself ignores it.
	Disabled bool
	// RingSize bounds the recent-query ring (default 256).
	RingSize int
}

// slowRingSize bounds the slow-query ring. A tracer classifies no query
// as slow until SetSlowThreshold is called.
const slowRingSize = 64

// Tracer issues query ids and spans, and retains what ended spans
// report: a ring of recent Records, a ring of slow Records, per-stage
// aggregate histograms and an optional slow-query logger. All methods
// are safe for concurrent use, and safe on a nil receiver (the
// disabled tracer).
type Tracer struct {
	nextID atomic.Uint64
	slowNS atomic.Int64
	logger atomic.Pointer[log.Logger]
	pool   sync.Pool

	// now/since are the clock; replaced by SetNow in deterministic
	// tests. Set before traffic starts, never concurrently with it.
	// since exists so span totals come from one monotonic-clock read
	// (time.Since) rather than a full wall+mono read per End.
	now   func() time.Time
	since func(time.Time) time.Duration

	stages [NumStages]Histogram

	// mu guards the two record rings below — and nothing else: End
	// holds it only to copy one Record in, and never calls user code
	// (the slow-query logger runs after the unlock).
	//
	// ring grows on demand up to ringSize records and wraps from then
	// on (pos is the oldest record, the next one overwritten): a large
	// RingSize costs memory — live heap the collector scans every cycle
	// — only once that many queries have finished.
	mu       sync.Mutex
	ring     []Record
	ringSize int
	pos      int
	slow     []Record
	spos, m  int
}

// New builds a tracer; zero config fields take defaults.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	t := &Tracer{
		now:      time.Now,
		since:    time.Since,
		ringSize: cfg.RingSize,
		slow:     make([]Record, slowRingSize),
	}
	t.pool.New = func() any { return new(Span) }
	return t
}

// Begin starts a span for one query, assigning the next query id.
// label is the client-supplied query label (may be empty); sql is the
// query text (truncated to a bounded prefix). Returns nil on a nil
// tracer.
func (t *Tracer) Begin(label, sql string) *Span {
	if t == nil {
		return nil
	}
	s := t.pool.Get().(*Span)
	s.t = t
	s.id = t.nextID.Add(1)
	s.label = label
	if len(sql) > maxSQL {
		sql = sql[:maxSQL]
	}
	s.sql = sql
	s.start = t.now()
	s.ended.Store(false)
	return s
}

// finish publishes an ended span and recycles it.
func (t *Tracer) finish(s *Span) {
	rec := Record{
		ID:       s.id,
		Label:    s.label,
		SQL:      s.sql,
		Start:    s.start,
		Total:    t.since(s.start),
		Rows:     s.rows.Load(),
		CacheHit: s.hit.Load(),
		Err:      s.errMsg,
		TopOp:    s.topOp,
	}
	for i := range rec.Stages {
		rec.Stages[i] = time.Duration(s.stages[i].Load())
	}
	clampExec(&rec.Stages)
	for i, d := range rec.Stages {
		if d > 0 {
			t.stages[i].Observe(d)
		}
	}
	thr := time.Duration(t.slowNS.Load())
	isSlow := thr > 0 && rec.Total >= thr
	t.mu.Lock()
	if len(t.ring) < t.ringSize {
		if len(t.ring) == cap(t.ring) {
			t.ring = append(make([]Record, 0, min(2*cap(t.ring)+16, t.ringSize)), t.ring...)
		}
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.pos] = rec
		t.pos = (t.pos + 1) % t.ringSize
	}
	if isSlow {
		t.slow[t.spos] = rec
		t.spos = (t.spos + 1) % len(t.slow)
		if t.m < len(t.slow) {
			t.m++
		}
	}
	t.mu.Unlock()
	if isSlow {
		if lg := t.logger.Load(); lg != nil {
			lg.Print(rec.LogLine())
		}
	}
	// Field-wise reset (assigning a fresh Span would copy its atomics).
	// Atomic stores are skipped for counters that are already zero —
	// on the common cached-hit span most stages never ran, and the
	// loads are plain reads while each store is a full barrier.
	s.t = nil
	s.id = 0
	s.label = ""
	s.sql = ""
	s.start = time.Time{}
	for i := range s.stages {
		if s.stages[i].Load() != 0 {
			s.stages[i].Store(0)
		}
	}
	if s.rows.Load() != 0 {
		s.rows.Store(0)
	}
	if s.hit.Load() {
		s.hit.Store(false)
	}
	s.errMsg = ""
	s.topOp = ""
	// ended stays true until Begin re-arms it, so a late duplicate End
	// on a recycled span stays a no-op instead of corrupting the pool.
	t.pool.Put(s)
}

// snapshot copies a ring newest-first.
func snapshot(ring []Record, pos, n int) []Record {
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ring[((pos-1-i)+2*len(ring))%len(ring)])
	}
	return out
}

// Recent returns the ring of recently finished queries, newest first.
// Nil on a nil tracer.
func (t *Tracer) Recent() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return snapshot(t.ring, t.pos, len(t.ring))
}

// Slow returns the ring of slow queries, newest first. Nil on a nil
// tracer (or when no threshold has ever been set).
func (t *Tracer) Slow() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return snapshot(t.slow, t.spos, t.m)
}

// SetSlowThreshold sets the slow-query classification bound (0
// disables it). Applies to queries ending after the call.
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t == nil {
		return
	}
	t.slowNS.Store(int64(d))
}

// SlowThreshold returns the current slow-query bound.
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.slowNS.Load())
}

// SetSlowLogger installs (or with nil removes) the structured
// slow-query logger. The logger is invoked outside the tracer's lock,
// once per slow query, with Record.LogLine.
func (t *Tracer) SetSlowLogger(lg *log.Logger) {
	if t == nil {
		return
	}
	t.logger.Store(lg)
}

// StageSnapshot returns the aggregate histogram of one stage across
// every finished query (queries that spent no time in the stage are
// not counted). Zero on a nil tracer.
func (t *Tracer) StageSnapshot(st Stage) HistSnapshot {
	if t == nil {
		return HistSnapshot{}
	}
	return t.stages[st].Snapshot()
}

// SetNow replaces the tracer's clock (nil restores time.Now) — the
// deterministic-timestamp hook for golden tests. Call before any
// spans begin, never concurrently with traffic.
func (t *Tracer) SetNow(now func() time.Time) {
	if t == nil {
		return
	}
	if now == nil {
		t.now, t.since = time.Now, time.Since
		return
	}
	t.now = now
	t.since = func(t0 time.Time) time.Duration { return now().Sub(t0) }
}
