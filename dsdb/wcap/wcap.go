// Package wcap is the workload-capture subsystem: an append-only,
// length-prefixed, CRC-32C-checked binary log of every query a dsdb
// server serves. Each record carries the query's identity (monotonic
// offset from capture start, session id, observability query id,
// label, SQL text) and its outcome (rows, bytes, latency, per-stage
// nanoseconds, cache-hit attribution, error class), so a capture is a
// complete, replayable description of real traffic: cmd/dsreplay can
// re-run it against any server or in-process database, and
// an stcpipe.Replayed source can feed it through the paper's
// instruction-fetch pipeline in place of a synthetic mix.
//
// On disk a capture is an internal/seglog log — the same size-rotated,
// CRC-framed segment files, scanner and appender as the write-ahead
// log, under the failure model that package's comment states: a torn
// tail is tolerated on the newest segment only, corruption fails
// loudly rather than silently dropping captured traffic, and a
// directory reopened after a crash has its torn tail cut off, so it
// stays readable. This package adds the record codec (panic-free,
// fuzzable in isolation: FuzzDecodeCaptureRecord) and the write policy.
//
// The write side is built to never touch the serving hot path: the
// server's per-query cost is one nil check when capture is disabled
// and one non-blocking channel send when enabled. A single background
// goroutine owns the segment files and does all encoding, framing and
// IO; when the bounded channel is full (a disk slower than the
// workload) the record is dropped and an atomic drop counter is
// bumped — a slow disk can never block a query, and drops are always
// visible in Stats, SHOW capture and /metrics, never silent.
//
// The package imports only the standard library, seglog and obs, so every
// layer from the server down to offline tooling can depend on it
// without cycles.
package wcap

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/dsdb/obs"
	"repro/internal/seglog"
)

// ErrClass classifies a captured query's outcome.
type ErrClass uint8

const (
	// OK is a query that completed its result stream cleanly.
	OK ErrClass = 0
	// ErrQuery is a query-level failure (bad SQL, execution error).
	ErrQuery ErrClass = 1
	// ErrCancelled is a query ended by cancellation (client Cancel
	// frame, Quit mid-stream, or server-side deadline).
	ErrCancelled ErrClass = 2
)

// String returns the class's stable name ("ok", "error", "cancelled").
func (c ErrClass) String() string {
	switch c {
	case OK:
		return "ok"
	case ErrQuery:
		return "error"
	case ErrCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("errclass(%d)", uint8(c))
}

// MaxStages bounds the per-stage array carried by a record; it is
// comfortably above obs.NumStages so the format survives new stages.
const MaxStages = 16

// Record is one served query. Offset is the query's start measured
// from the capture's own start on the monotonic clock — the replay
// schedule — so captures are position-independent: no wall-clock
// timestamps, nothing to skew between machines.
type Record struct {
	// Offset is when the query started, relative to Writer.Start().
	Offset time.Duration
	// Session is the server's accept-order session (connection) id.
	Session uint32
	// QueryID is the observability query id (0 when obs is disabled).
	QueryID uint64
	// Label is the client-supplied query label ("Q3"); may be empty.
	Label string
	// SQL is the query text exactly as served (for prepared
	// statements, the text the statement was prepared from).
	SQL string
	// Rows and Bytes are the result rows streamed and the frame bytes
	// written serving them.
	Rows  uint64
	Bytes uint64
	// Latency is the served wall time, from accept to terminal frame.
	Latency time.Duration
	// Stages are the per-stage nanosecond timings in obs stage order
	// (plan, cache, exec, io, wal, net), exec already clamped disjoint.
	// Empty when observability is disabled.
	Stages []int64
	// StageArr[:NumStages] is Stages carried by value, for a capturing
	// caller that must not allocate: a slice into the session's stack
	// would escape through the capture channel, an array is copied with
	// the record. The encoder writes it when Stages is nil; the bytes on
	// disk are the same either way, and decoders always fill Stages.
	StageArr  [MaxStages]int64
	NumStages uint8
	// CacheHit marks a query answered from the server's result cache.
	CacheHit bool
	// Err classifies the outcome.
	Err ErrClass
}

// MaxRecordBytes bounds one record's payload. Query text dominates;
// anything larger in a length prefix marks garbage, not data.
const MaxRecordBytes = 1 << 20

// maxStr bounds the label and SQL fields.
const maxStr = 64 << 10

// typeQuery is the record type tag (first payload byte), reserved for
// format evolution.
const typeQuery uint8 = 1

// ErrCorrupt reports a record that is fully present in a segment but
// does not decode: a CRC mismatch, an impossible length, or a
// malformed payload. Unlike a torn tail, this is not a crash artifact
// and readers must not silently skip it.
var ErrCorrupt = seglog.ErrCorrupt

// format is the capture's segment log. A length above MaxRecordBytes
// is corruption even when it runs past end-of-file: see the oversize
// rule in seglog's package comment.
var format = seglog.Format{Prefix: "cap-", Suffix: ".wcap", MaxRecord: MaxRecordBytes}

// ---- record codec ----

func appendStr(dst []byte, s string) ([]byte, error) {
	if len(s) > maxStr {
		return nil, fmt.Errorf("wcap: string field too long (%d bytes)", len(s))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...), nil
}

// EncodeRecord serializes one record payload (type byte + body).
func EncodeRecord(r Record) ([]byte, error) { return appendRecord(nil, r) }

// appendRecord appends r's payload to dst.
func appendRecord(dst []byte, r Record) ([]byte, error) {
	if n := max(len(r.Stages), int(r.NumStages)); n > MaxStages {
		return nil, fmt.Errorf("wcap: too many stages (%d)", n)
	}
	stages := r.Stages
	if stages == nil {
		stages = r.StageArr[:r.NumStages]
	}
	le := binary.LittleEndian
	p, start := append(dst, typeQuery), len(dst)
	p = le.AppendUint64(p, uint64(r.Offset))
	p = le.AppendUint32(p, r.Session)
	p = le.AppendUint64(p, r.QueryID)
	var err error
	if p, err = appendStr(p, r.Label); err != nil {
		return nil, err
	}
	if p, err = appendStr(p, r.SQL); err != nil {
		return nil, err
	}
	p = le.AppendUint64(p, r.Rows)
	p = le.AppendUint64(p, r.Bytes)
	p = le.AppendUint64(p, uint64(r.Latency))
	p = append(p, uint8(len(stages)))
	for _, ns := range stages {
		p = le.AppendUint64(p, uint64(ns))
	}
	var flags uint8
	if r.CacheHit {
		flags |= 1
	}
	p = append(p, flags, uint8(r.Err))
	if len(p)-start > MaxRecordBytes {
		return nil, fmt.Errorf("wcap: record too large (%d bytes)", len(p)-start)
	}
	return p, nil
}

// str reads a u32-length-prefixed string of at most maxStr bytes.
func str(d *seglog.Cursor) string {
	n := int(d.U32())
	if n > maxStr {
		d.Failf("string field of %d bytes", n)
	}
	return d.Str(n)
}

// DecodeRecord parses one record payload. It never panics, rejects
// trailing garbage, and wraps every failure in ErrCorrupt.
func DecodeRecord(p []byte) (Record, error) {
	d := seglog.NewCursor(p)
	if t := d.U8(); t != typeQuery {
		d.Failf("unknown record type %d", t)
	}
	var r Record
	r.Offset = time.Duration(d.U64())
	r.Session = d.U32()
	r.QueryID = d.U64()
	r.Label = str(d)
	r.SQL = str(d)
	r.Rows = d.U64()
	r.Bytes = d.U64()
	r.Latency = time.Duration(d.U64())
	n := int(d.U8())
	if n > MaxStages {
		d.Failf("%d stages", n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		r.Stages = append(r.Stages, int64(d.U64()))
	}
	flags := d.U8()
	if flags > 1 {
		d.Failf("bad flags %#x", flags)
	}
	r.CacheHit = flags&1 != 0
	switch r.Err = ErrClass(d.U8()); r.Err {
	case OK, ErrQuery, ErrCancelled:
	default:
		d.Failf("bad error class %d", uint8(r.Err))
	}
	if err := d.Finish(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// ---- segments ----

// Segment names one on-disk capture segment.
type Segment = seglog.Segment

// Segments lists the capture segments under dir in ascending sequence
// order. A missing directory yields an empty list.
func Segments(dir string) ([]Segment, error) { return format.Segments(dir) }

// decoding adapts a record callback to seglog's payload callback. A
// payload that passes its CRC but does not decode is ErrCorrupt whether
// or not anyone is listening, so a nil fn still decodes.
func decoding(fn func(rec Record) error) func(payload []byte, end int64) error {
	return func(payload []byte, _ int64) error {
		rec, err := DecodeRecord(payload)
		if err != nil || fn == nil {
			return err
		}
		return fn(rec)
	}
}

// ScanSegment walks one segment, calling fn for every valid record.
// It returns the byte offset of the end of the last valid record and
// whether the bytes beyond it are a torn tail (the prefix of an
// append a crash interrupted). A full-length record that fails its
// CRC or does not decode returns ErrCorrupt; fn errors abort the
// scan.
func ScanSegment(path string, fn func(rec Record) error) (end int64, torn bool, err error) {
	return format.ScanFile(path, decoding(fn))
}

// Replay scans every segment under dir in sequence order, calling fn
// for each record. A torn tail is tolerated only on the newest
// segment (the only place a crash — or a SIGKILLed server — can leave
// one); anywhere else it reports ErrCorrupt.
func Replay(dir string, fn func(rec Record) error) error {
	_, err := format.Replay(dir, 0, decoding(fn))
	return err
}

// Load reads a whole capture into memory, in record order.
func Load(dir string) ([]Record, error) {
	var recs []Record
	if err := Replay(dir, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		return nil, err
	}
	return recs, nil
}

// ---- writer ----

// Options configures a Writer.
type Options struct {
	// SegmentBytes is the rotation threshold (default 8 MB): an append
	// that would push the current segment past it rotates to a fresh
	// segment first.
	SegmentBytes int64
	// Buffer is the capture channel's capacity (default 1024): how
	// many records may be in flight to the background writer before
	// Capture starts dropping.
	Buffer int
	// Sample keeps roughly this fraction of queries (0 or 1 captures
	// everything; 0.01 captures ~1 in 100). Sampling is deterministic
	// counter-based — every round(1/Sample)-th query is kept — so two
	// identical runs capture the identical subset. Sampled-out queries
	// are counted separately from drops: skipping was chosen, not
	// forced.
	Sample float64
}

func (o Options) withDefaults() (Options, error) {
	if o.Buffer <= 0 {
		o.Buffer = 1024
	}
	if o.Sample < 0 || o.Sample > 1 {
		return o, fmt.Errorf("wcap: sample rate %g outside [0, 1]", o.Sample)
	}
	return o, nil
}

// Stats is a point-in-time copy of a writer's lifetime counters.
type Stats struct {
	// Records counts records accepted onto the capture channel (they
	// are on disk once Close returns, modulo IOErrors).
	Records uint64
	// Dropped counts records lost because the channel was full — the
	// disk not keeping up with the workload. Never silent: surfaced
	// here, in SHOW capture, and on /metrics.
	Dropped uint64
	// SampledOut counts records skipped by Options.Sample.
	SampledOut uint64
	// Bytes counts the bytes of the frames written whole to segment
	// files; a write that failed part-way and was rolled back adds none.
	Bytes uint64
	// IOErrors counts records the background writer failed to encode
	// or write; LastErr describes the most recent failure.
	IOErrors uint64
	LastErr  string
}

// Section declares the capture's counters: SHOW capture, the capture_*
// stat pairs and the dsdb_capture_*_total series. A nil s is a server
// without a capture: zeros under SHOW, absent everywhere else.
func (s *Stats) Section() obs.Section {
	sec := obs.Section{Name: "capture", Prom: "capture_", Optional: true, Disabled: s == nil}
	if s == nil {
		s = &Stats{}
	}
	sec.Counter("records", s.Records)
	sec.Counter("dropped", s.Dropped)
	sec.Counter("sampled_out", s.SampledOut)
	sec.Counter("bytes", s.Bytes)
	sec.Counter("io_errors", s.IOErrors)
	return sec
}

// Writer captures records to a segment directory. The hot-path
// surface (Capture) is wait-free: it never blocks, never does IO, and
// takes no lock — the background goroutine started by Open owns all
// file state exclusively. Close stops the goroutine, drains what is
// buffered and fsyncs.
type Writer struct {
	dir   string
	start time.Time
	every uint64 // sampling modulus (1 = keep everything)

	ch   chan Record
	stop chan struct{}
	done chan struct{}

	closed   atomic.Bool
	stopOnce sync.Once

	records    atomic.Uint64
	dropped    atomic.Uint64
	sampledOut atomic.Uint64
	seen       atomic.Uint64 // sampling counter
	ioErrs     atomic.Uint64
	lastErr    atomic.Pointer[string]

	// a is the segment appender. Only the background goroutine calls
	// it, its Counters excepted.
	a *seglog.Appender
}

// Open creates (or reuses) dir and starts the background writer. An
// existing capture is never appended into: the newest segment is
// scanned and cut back to its last whole record — a server killed
// mid-append leaves a torn tail there, which must not end up inside the
// capture — and writing begins on a fresh segment one past it, so a
// reopened directory accumulates runs. A newest segment that is
// corrupt rather than torn fails Open: truncating it would throw
// captured traffic away.
func Open(dir string, opts Options) (*Writer, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	segs, err := format.Segments(dir)
	if err != nil {
		return nil, err
	}
	var tail seglog.Tail
	if n := len(segs); n > 0 {
		tail.Seq = segs[n-1].Seq
		if tail.End, _, err = format.ScanFile(segs[n-1].Path, nil); err != nil {
			return nil, err
		}
	}
	a, err := format.OpenAppender(dir, tail, opts.SegmentBytes)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		if err := a.Rotate(tail.Seq + 1); err != nil {
			a.Close() // the rotation's error is the one to report
			return nil, err
		}
	}
	every := uint64(1)
	if opts.Sample > 0 && opts.Sample < 1 {
		every = uint64(1/opts.Sample + 0.5)
		if every < 1 {
			every = 1
		}
	}
	w := &Writer{
		dir:   dir,
		start: time.Now(),
		every: every,
		ch:    make(chan Record, opts.Buffer),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		a:     a,
	}
	go w.run()
	return w, nil
}

// Start returns the capture's start instant; Record.Offset values are
// measured against it (use the monotonic difference of the query's
// own start reading — no extra clock read on the hot path).
func (w *Writer) Start() time.Time { return w.start }

// Dir returns the capture directory.
func (w *Writer) Dir() string { return w.dir }

// Capture hands one record to the background writer. It never
// blocks: when the channel is full the record is dropped and counted.
// Safe for concurrent use from any goroutine; a no-op after Close.
func (w *Writer) Capture(rec Record) {
	if w == nil || w.closed.Load() {
		return
	}
	if w.every > 1 && w.seen.Add(1)%w.every != 0 {
		w.sampledOut.Add(1)
		return
	}
	select {
	case w.ch <- rec:
		w.records.Add(1)
	default:
		w.dropped.Add(1)
	}
}

// Stats snapshots the writer's counters (atomics; callable any time,
// including mid-traffic).
func (w *Writer) Stats() Stats {
	st := Stats{
		Records:    w.records.Load(),
		Dropped:    w.dropped.Load(),
		SampledOut: w.sampledOut.Load(),
		Bytes:      w.a.Counters().Bytes,
		IOErrors:   w.ioErrs.Load(),
	}
	if p := w.lastErr.Load(); p != nil {
		st.LastErr = *p
	}
	return st
}

// Close stops capturing, drains the buffered records to disk, fsyncs
// and closes the current segment. Idempotent.
func (w *Writer) Close() error {
	w.closed.Store(true)
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
	if st := w.Stats(); st.LastErr != "" {
		return fmt.Errorf("wcap: capture had %d IO errors, last: %s", st.IOErrors, st.LastErr)
	}
	return nil
}

// run is the background writer: it owns the segment files and does
// all encoding and IO, so the capturing goroutines never wait on the
// disk. On stop it drains whatever Capture already accepted — those
// records were counted, so they must land.
func (w *Writer) run() {
	defer close(w.done)
	for {
		select {
		case rec := <-w.ch:
			w.write(rec)
		case <-w.stop:
			for {
				select {
				case rec := <-w.ch:
					w.write(rec)
				default:
					if err := w.a.Close(); err != nil {
						w.fail(err)
					}
					return
				}
			}
		}
	}
}

// write encodes one record into the appender's frame buffer and
// appends it. IO failures are counted and remembered, never fatal:
// capture is observability, and a broken disk must not take the server
// down with it.
func (w *Writer) write(rec Record) {
	frame, err := appendRecord(w.a.Buf(), rec)
	if err == nil {
		err = w.a.Append(frame)
	}
	if err != nil {
		w.fail(err)
	}
}

// fail records a background-writer failure.
func (w *Writer) fail(err error) {
	w.ioErrs.Add(1)
	msg := err.Error()
	w.lastErr.Store(&msg)
}
