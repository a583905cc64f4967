// Package wal implements the write-ahead log of the database kernel's
// durability subsystem: an append-only sequence of length-prefixed,
// CRC-checked records spread over numbered segment files. The engine
// appends a record for every Insert and every DDL statement before
// mutating any state, and the disk-backed storage manager spills
// evicted dirty pages as full page images; recovery replays the log in
// order on top of the last checkpoint's page files, reconstructing the
// exact committed prefix.
//
// This package is the log's record types, their codec, and the
// Writer's policy: what serialises appends, when they are fsynced, and
// how a checkpoint truncates the log. The segment files, the frame, the
// scanner's torn-tail-versus-corruption rule and the appender belong to
// internal/seglog, whose package comment states the failure model; the
// capture log (dsdb/wcap) sits on the same code.
//
// Records carry table names, opaque storage-encoded tuples and raw
// page images, so the package imports nothing from the rest of the
// kernel and the decoder can be fuzzed in isolation (FuzzDecodeRecord).
package wal

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/seglog"
)

// Record type tags (the first payload byte).
const (
	// TypeInsert is one row appended to a table: the table name and
	// the storage-encoded tuple.
	TypeInsert uint8 = 1
	// TypeCreateTable is a CREATE TABLE: name plus ordered columns.
	TypeCreateTable uint8 = 2
	// TypeCreateIndex is a CREATE INDEX: table, column, kind, unique.
	TypeCreateIndex uint8 = 3
	// TypePageWrite is a full page image written to the storage
	// manager between checkpoints (an evicted dirty page or an
	// explicit flush).
	TypePageWrite uint8 = 4
)

// MaxRecordBytes bounds one record's payload: a page image plus
// framing fits comfortably, and anything larger in a length prefix
// marks garbage, not data.
const MaxRecordBytes = 1 << 20

// Record is one log record. The concrete types are Insert,
// CreateTable, CreateIndex and PageWrite.
type Record interface {
	recType() uint8
}

// Insert logs one row append: Tuple is the storage-encoded row (the
// same bytes the heap stores), kept opaque here so the log does not
// depend on the kernel's value codec.
type Insert struct {
	Table string
	Tuple []byte
}

func (Insert) recType() uint8 { return TypeInsert }

// Column is one column of a logged CREATE TABLE (Type is the kernel's
// value.Type, carried as a raw byte).
type Column struct {
	Name string
	Type uint8
}

// CreateTable logs a table creation.
type CreateTable struct {
	Name string
	Cols []Column
}

func (CreateTable) recType() uint8 { return TypeCreateTable }

// CreateIndex logs an index creation (Kind is the kernel's
// catalog.IndexKind as a raw byte).
type CreateIndex struct {
	Table  string
	Column string
	Kind   uint8
	Unique bool
}

func (CreateIndex) recType() uint8 { return TypeCreateIndex }

// PageWrite logs one full page image written to storage file File at
// page number Page.
type PageWrite struct {
	File uint32
	Page uint32
	Data []byte
}

func (PageWrite) recType() uint8 { return TypePageWrite }

// format is the WAL's segment log. A length above MaxRecordBytes that
// runs past end-of-file is read as a torn tail, not corruption: see
// the oversize rule in seglog's package comment.
var format = seglog.Format{Prefix: "wal-", Suffix: ".log", MaxRecord: MaxRecordBytes, OversizeTornAtEOF: true}

// ---- record payload codec ----

func appendStr(dst []byte, s string) ([]byte, error) {
	if len(s) > 0xFFFF {
		return nil, fmt.Errorf("wal: string field too long (%d bytes)", len(s))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

func appendBytes(dst []byte, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// EncodeRecord serializes a record payload (type byte + body).
func EncodeRecord(rec Record) ([]byte, error) { return appendRecord(nil, rec) }

// appendRecord appends rec's payload to dst.
func appendRecord(dst []byte, rec Record) ([]byte, error) {
	p, start := dst, len(dst)
	var err error
	switch r := rec.(type) {
	case Insert:
		p = append(p, TypeInsert)
		if p, err = appendStr(p, r.Table); err != nil {
			return nil, err
		}
		p = appendBytes(p, r.Tuple)
	case CreateTable:
		p = append(p, TypeCreateTable)
		if p, err = appendStr(p, r.Name); err != nil {
			return nil, err
		}
		if len(r.Cols) > 0xFFFF {
			return nil, fmt.Errorf("wal: too many columns (%d)", len(r.Cols))
		}
		p = binary.LittleEndian.AppendUint16(p, uint16(len(r.Cols)))
		for _, c := range r.Cols {
			if p, err = appendStr(p, c.Name); err != nil {
				return nil, err
			}
			p = append(p, c.Type)
		}
	case CreateIndex:
		p = append(p, TypeCreateIndex)
		if p, err = appendStr(p, r.Table); err != nil {
			return nil, err
		}
		if p, err = appendStr(p, r.Column); err != nil {
			return nil, err
		}
		u := byte(0)
		if r.Unique {
			u = 1
		}
		p = append(p, r.Kind, u)
	case PageWrite:
		p = append(p, TypePageWrite)
		p = binary.LittleEndian.AppendUint32(p, r.File)
		p = binary.LittleEndian.AppendUint32(p, r.Page)
		p = appendBytes(p, r.Data)
	default:
		return nil, fmt.Errorf("wal: unknown record type %T", rec)
	}
	if len(p)-start > MaxRecordBytes {
		return nil, fmt.Errorf("wal: record too large (%d bytes)", len(p)-start)
	}
	return p, nil
}

// str reads a u16-length-prefixed string.
func str(d *seglog.Cursor) string { return d.Str(int(d.U16())) }

// blob reads a u32-length-prefixed byte field into memory of its own.
func blob(d *seglog.Cursor) []byte { return append([]byte{}, d.Bytes(int(d.U32()))...) }

// DecodeRecord parses one record payload. It never panics, rejects
// trailing garbage, and wraps every failure in seglog.ErrCorrupt.
func DecodeRecord(p []byte) (Record, error) {
	d := seglog.NewCursor(p)
	var rec Record
	switch t := d.U8(); t {
	case TypeInsert:
		rec = Insert{Table: str(d), Tuple: blob(d)}
	case TypeCreateTable:
		r := CreateTable{Name: str(d)}
		n := int(d.U16())
		for i := 0; i < n && d.Err() == nil; i++ {
			r.Cols = append(r.Cols, Column{Name: str(d), Type: d.U8()})
		}
		rec = r
	case TypeCreateIndex:
		r := CreateIndex{Table: str(d), Column: str(d), Kind: d.U8()}
		switch u := d.U8(); u {
		case 0, 1:
			r.Unique = u == 1
		default:
			d.Failf("bad unique flag %d", u)
		}
		rec = r
	case TypePageWrite:
		rec = PageWrite{File: d.U32(), Page: d.U32(), Data: blob(d)}
	default:
		d.Failf("unknown record type %d", t)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return rec, nil
}

// ---- segments ----

// Segment names one on-disk log segment.
type Segment = seglog.Segment

// Segments lists the segment files under dir in ascending sequence
// order. A missing directory yields an empty list.
func Segments(dir string) ([]Segment, error) { return format.Segments(dir) }

// decoding adapts a record callback to seglog's payload callback. A
// payload that passes its CRC but does not decode is
// seglog.ErrCorrupt whether or not anyone is listening, so a nil fn
// still decodes.
func decoding(fn func(rec Record, end int64) error) func(payload []byte, end int64) error {
	return func(payload []byte, end int64) error {
		rec, err := DecodeRecord(payload)
		if err != nil || fn == nil {
			return err
		}
		return fn(rec, end)
	}
}

// ScanSegment walks one segment, calling fn for every valid record
// with the file offset just past it. It returns the offset of the end
// of the last valid record (the committed prefix within this segment)
// and whether the bytes beyond it are a torn tail. A full-length
// record that fails its CRC or does not decode returns
// seglog.ErrCorrupt; a partial record at EOF sets torn instead. fn
// errors abort the scan.
func ScanSegment(path string, fn func(rec Record, end int64) error) (end int64, torn bool, err error) {
	return format.ScanFile(path, decoding(fn))
}

// Tail describes where the committed log ends: the newest segment's
// sequence number and the offset just past its last valid record. A
// writer opened at this position truncates any torn tail and continues
// the log seamlessly.
type Tail = seglog.Tail

// Replay scans every segment with sequence >= fromSeq in order,
// calling fn for each record, and returns the tail position. A torn
// tail is tolerated only on the newest segment (the only place a crash
// can leave one); anywhere else it reports seglog.ErrCorrupt. When no
// segments exist the tail is (fromSeq, 0).
func Replay(dir string, fromSeq uint64, fn func(rec Record) error) (Tail, error) {
	return format.Replay(dir, fromSeq, decoding(func(rec Record, _ int64) error { return fn(rec) }))
}

// ---- writer ----

// Options configures a Writer.
type Options struct {
	// SegmentBytes is the rotation threshold (default 8 MB): an append
	// that would push the current segment past it rotates to a fresh
	// segment first.
	SegmentBytes int64
	// SyncEvery makes every Append fsync the segment before returning
	// (power-loss durability per record). Off by default: records are
	// written straight to the file — surviving any process crash — and
	// fsynced at checkpoints and rotation.
	SyncEvery bool
}

// Writer appends records to the log. Safe for concurrent use: mu
// serialises everything that touches the appender, encoding into its
// frame buffer included. After a failed append that could not be
// rolled back the appender refuses further appends (the segment may
// end in a partial frame) until ResetTo starts a fresh segment.
type Writer struct {
	mu        sync.Mutex
	a         *seglog.Appender
	syncEvery bool
	closed    bool
}

// Counters is a point-in-time copy of the writer's lifetime counters.
type Counters struct {
	// Appends is the number of records successfully appended.
	Appends uint64
	// Fsyncs is the number of segment fsyncs (Sync calls, per-append
	// syncs under SyncEvery, and rotation/close syncs).
	Fsyncs uint64
}

// Counters returns the writer's lifetime append/fsync counters — the
// durability counters surfaced by SHOW wal and /metrics. It never
// takes mu: stats endpoints must not queue behind an in-flight fsync.
func (w *Writer) Counters() Counters {
	c := w.a.Counters()
	return Counters{Appends: c.Appends, Fsyncs: c.Fsyncs}
}

// OpenWriter positions a writer at tail: segment tail.Seq is opened
// (created if absent), truncated to tail.End — discarding any torn
// bytes recovery skipped — and appended to from there.
func OpenWriter(dir string, tail Tail, opts Options) (*Writer, error) {
	a, err := format.OpenAppender(dir, tail, opts.SegmentBytes)
	if err != nil {
		return nil, err
	}
	return &Writer{a: a, syncEvery: opts.SyncEvery}, nil
}

// Seq returns the sequence number of the segment currently appended
// to.
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.a.Seq()
}

// Append frames and writes one record. The record is on stable media
// only after Sync (or with Options.SyncEvery), but it survives a
// process crash as soon as Append returns.
func (w *Writer) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("wal: writer is closed")
	}
	frame, err := appendRecord(w.a.Buf(), rec)
	if err != nil {
		return err
	}
	if err := w.a.Append(frame); err != nil {
		return err
	}
	if w.syncEvery {
		return w.a.Sync()
	}
	return nil
}

// NextSeq returns the sequence a ResetTo after a checkpoint should
// start at: one past the current segment, so the manifest can name it
// before any record lands there.
func (w *Writer) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.a.Seq() + 1
}

// ResetTo truncates the log after a checkpoint: every segment with
// sequence < seq is deleted and a fresh segment seq becomes current.
// Call only after the checkpoint manifest naming seq has been durably
// published — a crash between the two leaves stale segments behind,
// which the next Replay skips by sequence.
func (w *Writer) ResetTo(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("wal: writer is closed")
	}
	if err := w.a.Rotate(seq); err != nil {
		return err
	}
	return w.a.RemoveBefore(seq)
}

// Close syncs and closes the current segment.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.a.Close()
}
