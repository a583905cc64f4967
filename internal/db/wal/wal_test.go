package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/seglog"
)

func sampleRecords() []Record {
	return []Record{
		CreateTable{Name: "t", Cols: []Column{{Name: "a", Type: 0}, {Name: "b", Type: 2}}},
		CreateIndex{Table: "t", Column: "a", Kind: 1, Unique: true},
		Insert{Table: "t", Tuple: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		Insert{Table: "t", Tuple: nil},
		PageWrite{File: 3, Page: 9, Data: bytes.Repeat([]byte{0xAB}, 8192)},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		p, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("encode %T: %v", rec, err)
		}
		got, err := DecodeRecord(p)
		if err != nil {
			t.Fatalf("decode %T: %v", rec, err)
		}
		// Nil and empty byte slices are equivalent on the wire.
		if ins, ok := rec.(Insert); ok && ins.Tuple == nil {
			ins.Tuple = []byte{}
			rec = ins
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip %T: got %#v want %#v", rec, got, rec)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	p, _ := EncodeRecord(Insert{Table: "t", Tuple: []byte{1}})
	if _, err := DecodeRecord(append(p, 0)); !errors.Is(err, seglog.ErrCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	p, _ := EncodeRecord(CreateTable{Name: "t", Cols: []Column{{Name: "abc", Type: 1}}})
	for i := 0; i < len(p); i++ {
		if _, err := DecodeRecord(p[:i]); !errors.Is(err, seglog.ErrCorrupt) {
			t.Fatalf("prefix %d/%d decoded: %v", i, len(p), err)
		}
	}
}

// writeLog appends records through a fresh writer and returns the wal
// directory.
func writeLog(t *testing.T, recs []Record, opts Options) string {
	t.Helper()
	dir := t.TempDir()
	w, err := OpenWriter(dir, Tail{Seq: 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func replayAll(t *testing.T, dir string, from uint64) ([]Record, Tail) {
	t.Helper()
	var got []Record
	tail, err := Replay(dir, from, func(rec Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, tail
}

func TestWriterReplayRoundTrip(t *testing.T) {
	recs := sampleRecords()
	dir := writeLog(t, recs, Options{})
	got, tail := replayAll(t, dir, 1)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	if tail.Seq != 1 || tail.End == 0 {
		t.Fatalf("tail = %+v", tail)
	}
}

func TestSegmentRotation(t *testing.T) {
	// Tiny segments force rotation: the ~8KB page image cannot share a
	// 4KB segment with the small records before it.
	recs := sampleRecords()
	dir := writeLog(t, recs, Options{SegmentBytes: 4 << 10})
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", len(segs))
	}
	got, tail := replayAll(t, dir, 1)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records across segments, want %d", len(got), len(recs))
	}
	if tail.Seq != segs[len(segs)-1].Seq {
		t.Fatalf("tail seq %d, want newest segment %d", tail.Seq, segs[len(segs)-1].Seq)
	}
}

func TestReplayFromSeqSkipsStaleSegments(t *testing.T) {
	recs := sampleRecords()
	dir := writeLog(t, recs, Options{})
	// A "stale" pre-checkpoint segment that Replay must ignore.
	w, err := OpenWriter(dir, Tail{Seq: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Insert{Table: "stale", Tuple: []byte{9}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir, 1)
	for _, r := range got {
		if ins, ok := r.(Insert); ok && ins.Table == "stale" {
			t.Fatal("replay visited a segment below fromSeq")
		}
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
}

func TestTornTailRecoversCommittedPrefix(t *testing.T) {
	recs := sampleRecords()
	dir := writeLog(t, recs, Options{})
	segs, _ := Segments(dir)
	path := segs[0].Path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries within the segment.
	var ends []int64
	if _, _, err := ScanSegment(path, func(_ Record, end int64) error {
		ends = append(ends, end)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Cut the file mid-way through the final record.
	cut := ends[len(ends)-2] + (ends[len(ends)-1]-ends[len(ends)-2])/2
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	got, tail := replayAll(t, dir, 1)
	if len(got) != len(recs)-1 {
		t.Fatalf("torn tail: replayed %d records, want %d", len(got), len(recs)-1)
	}
	if tail.End != ends[len(ends)-2] {
		t.Fatalf("tail end %d, want %d", tail.End, ends[len(ends)-2])
	}
	// A writer opened at the tail truncates the torn bytes and appends
	// cleanly.
	w, err := OpenWriter(dir, tail, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Insert{Table: "t", Tuple: []byte{42}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ = replayAll(t, dir, 1)
	if len(got) != len(recs) {
		t.Fatalf("after tail append: replayed %d records, want %d", len(got), len(recs))
	}
	if ins, ok := got[len(got)-1].(Insert); !ok || !bytes.Equal(ins.Tuple, []byte{42}) {
		t.Fatalf("last record = %#v, want the tail append", got[len(got)-1])
	}
}

func TestMidSegmentCRCCorruptionFailsReplay(t *testing.T) {
	recs := sampleRecords()
	dir := writeLog(t, recs, Options{})
	segs, _ := Segments(dir)
	path := segs[0].Path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the FIRST record's payload: full-length record
	// present, CRC mismatch, more log behind it.
	data[seglog.FrameHeader+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, 1, func(Record) error { return nil })
	if !errors.Is(err, seglog.ErrCorrupt) {
		t.Fatalf("mid-segment corruption: got %v, want ErrCorrupt", err)
	}
}

func TestTornRecordInsideNonFinalSegmentIsCorrupt(t *testing.T) {
	recs := sampleRecords()
	dir := writeLog(t, recs, Options{SegmentBytes: 4 << 10})
	segs, _ := Segments(dir)
	if len(segs) < 2 {
		t.Fatal("need rotation for this test")
	}
	first := segs[0].Path
	data, _ := os.ReadFile(first)
	if err := os.WriteFile(first, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Replay(dir, 1, func(Record) error { return nil })
	if !errors.Is(err, seglog.ErrCorrupt) {
		t.Fatalf("torn non-final segment: got %v, want ErrCorrupt", err)
	}
}

func TestBadLengthDetection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, format.SegmentName(1))
	// A frame header claiming an absurd length, with plenty of file
	// behind it: corruption, not a torn tail.
	frame := make([]byte, seglog.FrameHeader+MaxRecordBytes+64)
	binary.LittleEndian.PutUint32(frame, uint32(MaxRecordBytes+32))
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ScanSegment(path, nil); !errors.Is(err, seglog.ErrCorrupt) {
		t.Fatalf("oversize length with data behind: got %v, want ErrCorrupt", err)
	}
	// The same header at EOF with the claimed extent unfulfilled: torn.
	if err := os.WriteFile(path, frame[:seglog.FrameHeader+10], 0o644); err != nil {
		t.Fatal(err)
	}
	end, torn, err := ScanSegment(path, nil)
	if err != nil || !torn || end != 0 {
		t.Fatalf("oversize length at EOF: end=%d torn=%v err=%v, want torn at 0", end, torn, err)
	}
}

func TestEmptyAndMissingDirs(t *testing.T) {
	if segs, err := Segments(filepath.Join(t.TempDir(), "nope")); err != nil || len(segs) != 0 {
		t.Fatalf("missing dir: %v %v", segs, err)
	}
	tail, err := Replay(t.TempDir(), 7, func(Record) error { return nil })
	if err != nil || tail.Seq != 7 || tail.End != 0 {
		t.Fatalf("empty dir tail = %+v err %v, want (7,0)", tail, err)
	}
}

func TestZeroFilledTailIsTorn(t *testing.T) {
	// A run of zeros at EOF — a filesystem that extended the file
	// before the append's bytes reached it — must read as a torn tail,
	// not corruption: the committed prefix ends where the zeros start.
	recs := sampleRecords()
	dir := writeLog(t, recs, Options{})
	segs, _ := Segments(dir)
	f, err := os.OpenFile(segs[0].Path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ScanSegment(segs[0].Path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, tail := replayAll(t, dir, 1)
	if len(got) != len(recs) {
		t.Fatalf("zero tail: replayed %d records, want %d", len(got), len(recs))
	}
	if tail.End != want {
		t.Fatalf("zero tail: end %d, want %d", tail.End, want)
	}
}

// TestAppendAllocations pins the append path: the record is encoded
// into the appender's one frame buffer under the writer's mutex, so an
// Append costs at most the caller's boxing of the record.
func TestAppendAllocations(t *testing.T) {
	w, err := OpenWriter(t.TempDir(), Tail{Seq: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tuple := bytes.Repeat([]byte{7}, 120)
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.Append(Insert{Table: "lineitem", Tuple: tuple}); err != nil {
			t.Fatal(err)
		}
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if allocs > 1 {
		t.Fatalf("%v allocations per Append of an Insert, want at most 1", allocs)
	}
	if c := w.Counters(); c.Appends != 201 || c.Fsyncs != 1 {
		t.Fatalf("counters %+v, want 201 appends and the closing fsync", c)
	}
}
