package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// The two rule sets in the tree: the WAL's and the capture's.
var formats = []Format{
	{Prefix: "wal-", Suffix: ".log", MaxRecord: 1 << 20, OversizeTornAtEOF: true},
	{Prefix: "cap-", Suffix: ".wcap", MaxRecord: 1 << 20},
}

func (f Format) String() string { return f.Prefix + "*" + f.Suffix }

var payloads = [][]byte{
	[]byte("\x01first record"),
	{0x02},
	bytes.Repeat([]byte{0x03, 0x00}, 40),
}

// frame returns payload framed the way Append frames it.
func frame(payload []byte) []byte {
	b := make([]byte, FrameHeader, FrameHeader+len(payload))
	b = append(b, payload...)
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(payload, castagnoli))
	return b
}

// segment is the three test payloads framed back to back, with the
// offset at which each frame ends.
func segment() (data []byte, ends []int) {
	for _, p := range payloads {
		data = append(data, frame(p)...)
		ends = append(ends, len(data))
	}
	return data, ends
}

// collect scans data and returns the payloads seen.
func collect(f Format, data []byte) (got [][]byte, end int64, torn bool, err error) {
	end, torn, err = f.Scan(data, func(p []byte, _ int64) error {
		got = append(got, append([]byte{}, p...))
		return nil
	})
	return got, end, torn, err
}

// TestEveryCutPoint truncates a three-record segment at every byte
// offset: a crash can only shorten the file, so the result is always
// clean or torn and never corrupt, end is the last whole record, and
// cutting later never recovers fewer records.
func TestEveryCutPoint(t *testing.T) {
	data, ends := segment()
	for _, f := range formats {
		prev := 0
		for cut := 0; cut <= len(data); cut++ {
			got, end, torn, err := collect(f, data[:cut])
			if err != nil {
				t.Fatalf("%v cut %d: %v, want clean or torn", f, cut, err)
			}
			whole, wantEnd := 0, 0
			for _, e := range ends {
				if e <= cut {
					whole, wantEnd = whole+1, e
				}
			}
			if len(got) != whole || end != int64(wantEnd) {
				t.Fatalf("%v cut %d: %d records to offset %d, want %d to %d", f, cut, len(got), end, whole, wantEnd)
			}
			if torn != (cut != wantEnd) {
				t.Fatalf("%v cut %d: torn=%v with the last whole record ending at %d", f, cut, torn, wantEnd)
			}
			if len(got) < prev {
				t.Fatalf("%v cut %d: recovered %d records, fewer than the %d of a shorter cut", f, cut, len(got), prev)
			}
			prev = len(got)
		}
	}
}

// TestEveryPayloadByteFlip: damage to any payload byte of a wholly
// present record is corruption, never a tear.
func TestEveryPayloadByteFlip(t *testing.T) {
	data, ends := segment()
	for _, f := range formats {
		start := 0
		for _, e := range ends {
			for i := start + FrameHeader; i < e; i++ {
				bad := append([]byte{}, data...)
				bad[i] ^= 0x40
				_, end, torn, err := collect(f, bad)
				if !errors.Is(err, ErrCorrupt) || torn || end != int64(start) {
					t.Fatalf("%v flip at %d: end=%d torn=%v err=%v, want ErrCorrupt at %d", f, i, end, torn, err, start)
				}
			}
			start = e
		}
	}
}

// TestLengthFieldRules pins how a bad length field reads, including
// the one rule on which the two formats differ.
func TestLengthFieldRules(t *testing.T) {
	good, _ := segment()
	header := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	oversize := func(tail int) []byte {
		return append(append(append([]byte{}, good...), header(1<<20+32)...), make([]byte, 4+tail)...)
	}
	cases := []struct {
		name string
		data []byte
		torn [2]bool // per format: torn, otherwise corrupt
	}{
		{"zero run to EOF", append(append([]byte{}, good...), make([]byte, 64)...), [2]bool{true, true}},
		{"zero length then data", append(append(append([]byte{}, good...), make([]byte, 8)...), 7), [2]bool{false, false}},
		{"oversize length that fits the file", oversize(1<<20 + 64), [2]bool{false, false}},
		{"oversize length past EOF", oversize(10), [2]bool{true, false}},
		{"valid length past EOF", append(append([]byte{}, good...), frame(payloads[0])[:FrameHeader+3]...), [2]bool{true, true}},
	}
	for _, c := range cases {
		for i, f := range formats {
			got, end, torn, err := collect(f, c.data)
			if len(got) != len(payloads) || end != int64(len(good)) {
				t.Errorf("%v %s: %d records to %d, want the %d good ones to %d", f, c.name, len(got), end, len(payloads), len(good))
			}
			if c.torn[i] && (!torn || err != nil) {
				t.Errorf("%v %s: torn=%v err=%v, want a torn tail", f, c.name, torn, err)
			}
			if !c.torn[i] && (torn || !errors.Is(err, ErrCorrupt)) {
				t.Errorf("%v %s: torn=%v err=%v, want ErrCorrupt", f, c.name, torn, err)
			}
		}
	}
}

func TestScanCallbackError(t *testing.T) {
	data, ends := segment()
	boom := errors.New("boom")
	calls := 0
	end, torn, err := formats[0].Scan(data, func(_ []byte, e int64) error {
		if calls++; calls == 2 {
			return boom
		}
		if e != int64(ends[calls-1]) {
			t.Errorf("record %d: end %d, want %d", calls, e, ends[calls-1])
		}
		return nil
	})
	if !errors.Is(err, boom) || torn || end != int64(ends[0]) || calls != 2 {
		t.Fatalf("end=%d torn=%v err=%v calls=%d, want boom after the first record", end, torn, err, calls)
	}
}

// appendAll opens an appender at tail and appends each payload.
func appendAll(t *testing.T, f Format, dir string, tail Tail, segBytes int64, ps ...[]byte) *Appender {
	t.Helper()
	a, err := f.OpenAppender(dir, tail, segBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if err := a.Append(append(a.Buf(), p...)); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func replayAll(t *testing.T, f Format, dir string, from uint64) ([][]byte, Tail, error) {
	t.Helper()
	var got [][]byte
	tail, err := f.Replay(dir, from, func(p []byte, _ int64) error {
		got = append(got, append([]byte{}, p...))
		return nil
	})
	return got, tail, err
}

func TestAppenderRotatesAndReplays(t *testing.T) {
	for _, f := range formats {
		dir := filepath.Join(t.TempDir(), "made", "on", "demand")
		data, _ := segment()
		// Room for the three payloads, not for a fourth: every third
		// append starts a segment.
		a := appendAll(t, f, dir, Tail{Seq: 5}, int64(len(data)), append(append(append([][]byte{}, payloads...), payloads...), payloads[0])...)
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := f.Segments(dir)
		if err != nil || len(segs) != 3 || segs[0].Seq != 5 || segs[2].Seq != 7 {
			t.Fatalf("%v: segments %+v err %v, want 5..7", f, segs, err)
		}
		if filepath.Base(segs[0].Path) != f.SegmentName(5) {
			t.Fatalf("%v: first segment is %s, want %s", f, segs[0].Path, f.SegmentName(5))
		}
		first, err := os.ReadFile(segs[0].Path)
		if err != nil || !bytes.Equal(first, data) {
			t.Fatalf("%v: first segment holds %x, want the three frames %x (err %v)", f, first, data, err)
		}
		got, tail, err := replayAll(t, f, dir, 0)
		if err != nil || len(got) != 7 || tail.Seq != 7 || tail.End != int64(len(frame(payloads[0]))) {
			t.Fatalf("%v: replayed %d records to %+v, err %v", f, len(got), tail, err)
		}
		if got, tail, err = replayAll(t, f, dir, 7); err != nil || len(got) != 1 || tail.Seq != 7 {
			t.Fatalf("%v: replay from 7: %d records to %+v, err %v", f, len(got), tail, err)
		}
		if got, tail, err = replayAll(t, f, dir, 9); err != nil || len(got) != 0 || tail != (Tail{Seq: 9}) {
			t.Fatalf("%v: replay from 9: %d records to %+v, err %v", f, len(got), tail, err)
		}
		c := a.Counters()
		if c.Appends != 7 || c.Bytes != uint64(2*len(data)+len(frame(payloads[0]))) || c.Fsyncs != 3 {
			t.Fatalf("%v: counters %+v, want 7 appends, every frame byte, 2 rotation fsyncs + 1 close", f, c)
		}
	}
}

func TestOpenAtTailCutsTornBytes(t *testing.T) {
	f := formats[1]
	dir := t.TempDir()
	if err := appendAll(t, f, dir, Tail{}, 0, payloads...).Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, f.SegmentName(0))
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	got, tail, err := replayAll(t, f, dir, 0)
	if err != nil || len(got) != 2 {
		t.Fatalf("torn tail: %d records, err %v", len(got), err)
	}
	if err := appendAll(t, f, dir, tail, 0, []byte("after the tear")).Close(); err != nil {
		t.Fatal(err)
	}
	if got, _, err = replayAll(t, f, dir, 0); err != nil || len(got) != 3 || string(got[2]) != "after the tear" {
		t.Fatalf("after reopening at the tail: %q err %v", got, err)
	}
}

func TestTornNonFinalSegmentIsCorrupt(t *testing.T) {
	for _, f := range formats {
		dir := t.TempDir()
		if err := appendAll(t, f, dir, Tail{}, 1, payloads...).Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, f.SegmentName(1))
		data, _ := os.ReadFile(path)
		if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := replayAll(t, f, dir, 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%v: torn middle segment: %v, want ErrCorrupt", f, err)
		}
		// From the last segment on, the log is clean.
		if got, _, err := replayAll(t, f, dir, 2); err != nil || len(got) != 1 {
			t.Fatalf("%v: replay past the damage: %d records, err %v", f, len(got), err)
		}
	}
}

func TestRotateAndRemoveBefore(t *testing.T) {
	f := formats[0]
	dir := t.TempDir()
	a := appendAll(t, f, dir, Tail{Seq: 1}, 1, payloads...)
	if err := a.Rotate(9); err != nil {
		t.Fatal(err)
	}
	if err := a.RemoveBefore(9); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(append(a.Buf(), payloads[1]...)); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := f.Segments(dir)
	if err != nil || len(segs) != 1 || segs[0].Seq != 9 || a.Seq() != 9 {
		t.Fatalf("segments %+v err %v, want only 9", segs, err)
	}
	if got, _, err := replayAll(t, f, dir, 0); err != nil || len(got) != 1 {
		t.Fatalf("%d records, err %v", len(got), err)
	}
}

func TestAppendRejectsBadPayloadSizes(t *testing.T) {
	f := Format{Prefix: "x-", Suffix: ".seg", MaxRecord: 16}
	a := appendAll(t, f, t.TempDir(), Tail{}, 0)
	defer a.Close()
	for _, n := range []int{0, 17} {
		if err := a.Append(append(a.Buf(), make([]byte, n)...)); err == nil {
			t.Errorf("payload of %d bytes accepted with MaxRecord 16", n)
		}
	}
	if err := a.Append(append(a.Buf(), make([]byte, 16)...)); err != nil {
		t.Errorf("payload of MaxRecord bytes: %v", err)
	}
	if c := a.Counters(); c.Appends != 1 || c.Bytes != FrameHeader+16 {
		t.Errorf("counters %+v, want the one accepted frame", c)
	}
}

// TestFailedAppendThatCannotRollBack pulls the file out from under the
// appender: the write fails, so does the truncate, and from then on the
// appender refuses to append — a later success could bury a partial
// frame — and counts nothing for the failed frame.
func TestFailedAppendThatCannotRollBack(t *testing.T) {
	f := formats[0]
	a := appendAll(t, f, t.TempDir(), Tail{}, 0, payloads[0])
	before := a.Counters()
	a.f.Close()
	werr := a.Append(append(a.Buf(), payloads[1]...))
	if werr == nil {
		t.Fatal("append to a closed file succeeded")
	}
	if a.broken == nil {
		t.Fatal("a failed rollback did not mark the appender broken")
	}
	if err := a.Append(append(a.Buf(), payloads[1]...)); err != a.broken {
		t.Fatalf("append on a broken appender: %v, want %v", err, a.broken)
	}
	if got := a.Counters(); got != before {
		t.Fatalf("counters moved from %+v to %+v on failed appends", before, got)
	}
}

func TestAppendDoesNotAllocate(t *testing.T) {
	a := appendAll(t, formats[0], t.TempDir(), Tail{}, 0, payloads[2])
	defer a.Close()
	if n := testing.AllocsPerRun(200, func() {
		if err := a.Append(append(a.Buf(), payloads[2]...)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("%v allocations per append into the reused frame buffer, want 0", n)
	}
}

// TestOversizeFrameBufferIsNotKept: a frame grown past maxRetainedFrame
// is written but not held on to.
func TestOversizeFrameBufferIsNotKept(t *testing.T) {
	f := formats[0]
	dir := t.TempDir()
	a := appendAll(t, f, dir, Tail{}, 0, payloads[0], bytes.Repeat([]byte{9}, 2*maxRetainedFrame), payloads[1])
	if c := cap(a.Buf()); c > maxRetainedFrame {
		t.Fatalf("appender holds a %d-byte frame buffer, want at most %d", c, maxRetainedFrame)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _, err := replayAll(t, f, dir, 0); err != nil || len(got) != 3 || len(got[1]) != 2*maxRetainedFrame {
		t.Fatalf("replayed %d records, err %v", len(got), err)
	}
}

func TestSegmentsIgnoresForeignFiles(t *testing.T) {
	f := formats[0]
	dir := t.TempDir()
	for _, name := range []string{"README", "wal-notanumber.log", "cap-00000001.wcap", f.SegmentName(12), f.SegmentName(3)} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := f.Segments(dir)
	if err != nil || len(segs) != 2 || segs[0].Seq != 3 || segs[1].Seq != 12 {
		t.Fatalf("segments %+v err %v, want 3 and 12", segs, err)
	}
	if segs, err = f.Segments(filepath.Join(dir, "missing")); err != nil || len(segs) != 0 {
		t.Fatalf("missing directory: %+v, %v", segs, err)
	}
}

func TestCursor(t *testing.T) {
	p := []byte{7}
	p = binary.LittleEndian.AppendUint16(p, 0x0102)
	p = binary.LittleEndian.AppendUint32(p, 0x03040506)
	p = binary.LittleEndian.AppendUint64(p, 0x0708090a0b0c0d0e)
	p = append(p, "abc"...)
	c := NewCursor(p)
	if c.U8() != 7 || c.U16() != 0x0102 || c.U32() != 0x03040506 || c.U64() != 0x0708090a0b0c0d0e || c.Str(3) != "abc" {
		t.Fatal("fields read back wrong")
	}
	if err := c.Finish(); err != nil {
		t.Fatalf("exactly consumed payload: %v", err)
	}
	// Every proper prefix fails, stickily, as ErrCorrupt; so do trailing
	// bytes and a negative or oversized length.
	for cut := 0; cut < len(p); cut++ {
		c := NewCursor(p[:cut])
		c.U8()
		c.U16()
		c.U32()
		c.U64()
		c.Str(3)
		if err := c.Finish(); !errors.Is(err, ErrCorrupt) || c.Err() != err {
			t.Fatalf("prefix %d: %v, want ErrCorrupt", cut, err)
		}
	}
	c = NewCursor(append(p, 0))
	c.Bytes(len(p))
	if err := c.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: %v, want ErrCorrupt", err)
	}
	for _, n := range []int{-1, len(p) + 1} {
		c = NewCursor(p)
		if b := c.Bytes(n); b != nil || !errors.Is(c.Err(), ErrCorrupt) {
			t.Fatalf("Bytes(%d) = %v, err %v", n, b, c.Err())
		}
		if c.U8() != 0 {
			t.Fatal("read after failure returned data")
		}
	}
	c = NewCursor(p)
	c.Failf("field %d", 3)
	c.Failf("second")
	if got, want := fmt.Sprint(c.Finish()), "seglog: corrupt record: field 3"; got != want {
		t.Fatalf("Failf: %q, want %q", got, want)
	}
}
