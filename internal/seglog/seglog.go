// Package seglog is the segment log under both of the system's
// append-only logs — the write-ahead log (internal/db/wal) and the
// workload capture (dsdb/wcap): numbered segment files of CRC-framed
// records, a scanner that tells a crash artifact from corruption, and
// an appender that never leaves anything but a crash artifact behind.
// The two logs keep their record codecs and their write policy (the
// WAL's mutex and fsync rules, the capture's channel and sampling);
// everything about bytes on disk is decided here, once.
//
// # Format
//
// A log is a directory of segment files named Prefix + an eight-digit
// decimal sequence number + Suffix. A segment is a run of frames with
// nothing between them:
//
//	u32 payload length | u32 CRC-32C (Castagnoli) of the payload | payload
//
// both integers little-endian. A payload is 1..MaxRecord bytes and is
// opaque here; its first byte is by convention the record type.
//
// # Failure model
//
// Segments are only ever appended to, and an append is one write of
// one whole frame, so a crash leaves at most one partial frame, at the
// tail of the newest segment. Scan classifies what follows the last
// whole frame of a segment as either torn or corrupt:
//
//   - Prefix tears. Fewer than eight bytes, or a length whose payload is
//     not all there, is the prefix of an append that a crash cut short:
//     torn. The committed log ends just before it.
//   - Zero-run tails. A zero length followed by zeros to the end of the
//     file is space a filesystem added before the append's bytes
//     reached it — the usual power-loss artifact: torn. A zero length
//     with anything else after it is corrupt, because no append writes
//     one.
//   - Corruption. A frame that is wholly present and fails its CRC, or
//     whose payload its codec rejects, is not something a crash can
//     produce: Scan returns ErrCorrupt, and recovery stops instead of
//     silently dropping committed records.
//   - The undecidable case. A damaged length field that claims more
//     bytes than the file holds reads exactly like a prefix tear. An
//     append-only log without commit markers cannot tell the two apart,
//     so it is torn; fsync and checkpoints limit the exposure to the
//     tail of the newest segment.
//   - The oversize rule — the one place the two logs differ, kept as
//     Format.OversizeTornAtEOF. A length above MaxRecord that runs past
//     the end of the file is the undecidable case again, and the WAL
//     treats it so (torn): refusing to start a database over bytes that
//     may be an ordinary tear is worse than dropping one unconfirmed
//     record. A capture calls it corrupt: its writer never frames such
//     a payload, losing a capture's tail costs nothing that was
//     promised, and a reader of recorded traffic should hear about
//     damage rather than see a shorter workload. A length above
//     MaxRecord that fits inside the file is corrupt for both.
//
// Torn is legal only where a crash can put it: Replay accepts it on the
// newest segment and reports it as ErrCorrupt on any other. An Appender
// opened at the Tail a Replay returned cuts the torn bytes off before
// it writes, so a tear never ends up in the middle of a segment. A
// write that fails part-way is rolled back to the frame boundary; if
// even that fails the appender refuses further appends until it is
// rotated onto a fresh segment.
//
// The package uses only the standard library and holds no locks: an
// Appender belongs to one goroutine at a time (the WAL serialises with
// its mutex, the capture with its single writer goroutine); only
// Counters may be read concurrently.
package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
)

// DefaultSegmentBytes is the rotation threshold OpenAppender applies
// when given none.
const DefaultSegmentBytes = 8 << 20

// maxRetainedFrame bounds the frame buffer an Appender keeps between
// appends. Both logs' steady state is records of a few hundred bytes
// (row inserts, captured queries), which reuse the buffer; a frame that
// a page image or a megabyte of SQL grew past this is written from its
// own allocation and let go rather than held for the life of the log.
const maxRetainedFrame = 4 << 10

// FrameHeader is the size of a frame's header: payload length (u32)
// and CRC-32C of the payload (u32).
const FrameHeader = 8

// ErrCorrupt reports a record that is wholly present in a segment but
// is not valid: a CRC mismatch, an impossible length, a payload its
// codec rejects, or a torn record anywhere but the tail of the newest
// segment. Unlike a torn tail it is not a crash artifact, and readers
// must not skip it.
var ErrCorrupt = errors.New("seglog: corrupt record")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Format is what distinguishes one log from another on disk. Each log
// has exactly one, a package-level value.
type Format struct {
	// Prefix and Suffix surround the sequence number in segment names.
	Prefix, Suffix string
	// MaxRecord bounds a payload; a larger length prefix is garbage.
	MaxRecord int
	// OversizeTornAtEOF makes a length above MaxRecord whose claimed
	// extent runs past the end of the file a torn tail rather than
	// corruption (the package comment's oversize rule).
	OversizeTornAtEOF bool
}

// SegmentName returns the file name of segment seq.
func (f Format) SegmentName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", f.Prefix, seq, f.Suffix)
}

// Segment names one segment file.
type Segment struct {
	Seq  uint64
	Path string
}

// Segments lists the log's segment files under dir in ascending
// sequence order. A missing directory yields an empty list.
func (f Format) Segments(dir string) ([]Segment, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var segs []Segment
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, f.Prefix) || !strings.HasSuffix(name, f.Suffix) {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name[len(f.Prefix):len(name)-len(f.Suffix)], "%d", &seq); err != nil {
			continue
		}
		segs = append(segs, Segment{Seq: seq, Path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	return segs, nil
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Scan walks the frames of one segment's bytes, calling fn with each
// CRC-checked payload (a slice of data) and the offset just past its
// frame. It returns the offset of the end of the last record fn
// accepted — the committed prefix — and whether the bytes beyond it
// are a torn tail. A wholly present frame that is invalid ends the scan
// with ErrCorrupt; an error from fn ends it with that error, wrapped.
func (f Format) Scan(data []byte, fn func(payload []byte, end int64) error) (end int64, torn bool, err error) {
	off := 0
	for off < len(data) {
		rest := len(data) - off - FrameHeader
		if rest < 0 {
			return int64(off), true, nil
		}
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		pastEOF := n > int64(rest)
		switch {
		case n == 0 && allZero(data[off:]):
			return int64(off), true, nil
		case n == 0:
			return int64(off), false, fmt.Errorf("%w: zero record length at offset %d", ErrCorrupt, off)
		case n > int64(f.MaxRecord) && !(pastEOF && f.OversizeTornAtEOF):
			return int64(off), false, fmt.Errorf("%w: bad record length %d at offset %d", ErrCorrupt, n, off)
		case pastEOF:
			return int64(off), true, nil
		}
		next := off + FrameHeader + int(n)
		payload := data[off+FrameHeader : next]
		if crc32.Checksum(payload, castagnoli) != crc {
			return int64(off), false, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
		}
		if fn != nil {
			if err := fn(payload, int64(next)); err != nil {
				return int64(off), false, fmt.Errorf("record at offset %d: %w", off, err)
			}
		}
		off = next
	}
	return int64(off), false, nil
}

// ScanFile is Scan over the segment file at path.
func (f Format) ScanFile(path string, fn func(payload []byte, end int64) error) (end int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	if end, torn, err = f.Scan(data, fn); err != nil {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return end, torn, err
}

// Tail is where the committed log ends: the newest segment's sequence
// number and the offset just past its last valid record. An Appender
// opened there cuts off any torn tail and continues the log.
type Tail struct {
	Seq uint64
	End int64
}

// Replay scans every segment with sequence >= fromSeq in order,
// calling fn as Scan does, and returns the tail. A torn tail is
// accepted on the newest segment only — the one place a crash can
// leave it — and is ErrCorrupt anywhere else. With no such segments
// the tail is (fromSeq, 0).
func (f Format) Replay(dir string, fromSeq uint64, fn func(payload []byte, end int64) error) (Tail, error) {
	segs, err := f.Segments(dir)
	if err != nil {
		return Tail{}, err
	}
	for len(segs) > 0 && segs[0].Seq < fromSeq {
		segs = segs[1:]
	}
	tail := Tail{Seq: fromSeq}
	for i, s := range segs {
		end, torn, err := f.ScanFile(s.Path, fn)
		if err != nil {
			return Tail{}, err
		}
		if torn && i != len(segs)-1 {
			return Tail{}, fmt.Errorf("%w: torn record inside non-final segment %s", ErrCorrupt, s.Path)
		}
		tail = Tail{Seq: s.Seq, End: end}
	}
	return tail, nil
}

// Counters is a point-in-time copy of an Appender's lifetime counters.
type Counters struct {
	// Appends and Bytes count the frames, and their bytes, that were
	// written whole; a rolled-back partial write adds to neither.
	Appends, Bytes uint64
	// Fsyncs counts segment-file fsyncs (Sync, Rotate, Close).
	// Directory fsyncs are not included.
	Fsyncs uint64
}

// Appender writes frames to the newest segment of a log. It is not
// safe for concurrent use, Counters excepted.
type Appender struct {
	format   Format
	dir      string
	segBytes int64
	seq      uint64
	f        *os.File
	off      int64

	// buf is the one frame buffer, reused by every append; Buf hands
	// it out with the header reserved and Append takes it back.
	buf []byte

	// broken is set when a failed write could not be rolled back: the
	// segment may end in a partial frame that a later append would
	// bury mid-segment, so appends are refused until Rotate.
	broken error

	appends, bytes, fsyncs atomic.Uint64
}

// OpenAppender positions an appender at tail in dir (created if
// absent): segment tail.Seq is opened, or created, and truncated to
// tail.End — discarding the torn bytes a scan skipped. An append that
// would take a non-empty segment past segmentBytes (DefaultSegmentBytes
// if not positive) rotates to the next sequence number first.
func (f Format) OpenAppender(dir string, tail Tail, segmentBytes int64) (*Appender, error) {
	if segmentBytes <= 0 {
		segmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	a := &Appender{format: f, dir: dir, segBytes: segmentBytes, buf: make([]byte, FrameHeader, 512)}
	if err := a.open(tail); err != nil {
		return nil, err
	}
	return a, nil
}

// open makes segment tail.Seq, cut back to tail.End, the current one,
// and fsyncs the directory so a newly created segment's name survives
// a power loss.
func (a *Appender) open(tail Tail) error {
	f, err := os.OpenFile(filepath.Join(a.dir, a.format.SegmentName(tail.Seq)), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err = f.Truncate(tail.End); err == nil {
		if _, err = f.Seek(tail.End, 0); err == nil {
			err = syncDir(a.dir)
		}
	}
	if err != nil {
		f.Close()
		return err
	}
	a.f, a.seq, a.off = f, tail.Seq, tail.End
	return nil
}

// Seq returns the sequence number of the segment being appended to.
func (a *Appender) Seq() uint64 { return a.seq }

// Counters returns the lifetime counters. Safe to call from any
// goroutine at any time.
func (a *Appender) Counters() Counters {
	return Counters{Appends: a.appends.Load(), Bytes: a.bytes.Load(), Fsyncs: a.fsyncs.Load()}
}

// Buf returns the appender's frame buffer, emptied, with FrameHeader
// bytes reserved: append a payload to it and pass the result to
// Append. Reusing it is what keeps an append of an ordinary record
// allocation-free (see maxRetainedFrame).
func (a *Appender) Buf() []byte { return a.buf[:FrameHeader] }

// Append writes one frame — FrameHeader reserved bytes followed by the
// payload, normally built on Buf — filling in the header and rotating
// first if the segment is full. When it returns nil the record
// survives a process crash; it is on stable media after Sync.
func (a *Appender) Append(frame []byte) error {
	n := len(frame) - FrameHeader
	if n < 1 || n > a.format.MaxRecord {
		return fmt.Errorf("seglog: record payload of %d bytes, want 1..%d", n, a.format.MaxRecord)
	}
	if cap(frame) <= maxRetainedFrame {
		a.buf = frame // keep what the payload grew it to
	}
	if a.broken != nil {
		return a.broken
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[FrameHeader:], castagnoli))
	if a.off > 0 && a.off+int64(len(frame)) > a.segBytes {
		if err := a.Rotate(a.seq + 1); err != nil {
			return err
		}
	}
	if _, err := a.f.Write(frame); err != nil {
		// Part of the frame may be on disk past a.off. Cut the segment
		// back to the record boundary so a later append cannot bury
		// garbage mid-segment, where a scan would call it corruption.
		if terr := a.f.Truncate(a.off); terr != nil {
			a.broken = fmt.Errorf("seglog: %s ends in a partial frame that could not be truncated: %v (after append error: %w)", a.f.Name(), terr, err)
		} else if _, serr := a.f.Seek(a.off, 0); serr != nil {
			a.broken = fmt.Errorf("seglog: position in %s lost after a failed append: %v (append error: %w)", a.f.Name(), serr, err)
		}
		return err
	}
	a.off += int64(len(frame))
	a.appends.Add(1)
	a.bytes.Add(uint64(len(frame)))
	return nil
}

// Sync fsyncs the current segment.
func (a *Appender) Sync() error {
	if err := a.f.Sync(); err != nil {
		return err
	}
	a.fsyncs.Add(1)
	return nil
}

// Rotate syncs and closes the current segment and starts segment seq,
// empty. A broken appender is whole again on the fresh segment.
func (a *Appender) Rotate(seq uint64) error {
	if err := a.Sync(); err != nil {
		return err
	}
	if err := a.f.Close(); err != nil {
		return err
	}
	if err := a.open(Tail{Seq: seq}); err != nil {
		return err
	}
	a.broken = nil
	return nil
}

// RemoveBefore deletes every segment with a sequence number below seq
// and fsyncs the directory.
func (a *Appender) RemoveBefore(seq uint64) error {
	segs, err := a.format.Segments(a.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s.Seq < seq {
			if err := os.Remove(s.Path); err != nil {
				return err
			}
		}
	}
	return syncDir(a.dir)
}

// Close syncs and closes the current segment.
func (a *Appender) Close() error {
	if err := a.Sync(); err != nil {
		a.f.Close()
		return err
	}
	return a.f.Close()
}

// syncDir fsyncs a directory so creates and removes within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
