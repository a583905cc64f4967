package wcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/seglog"
)

func sampleRecord(i int) Record {
	return Record{
		Offset:   time.Duration(i) * 7 * time.Millisecond,
		Session:  uint32(i % 3),
		QueryID:  uint64(100 + i),
		Label:    fmt.Sprintf("Q%d", i%12+1),
		SQL:      fmt.Sprintf("select %d from lineitem where l_orderkey > %d", i, i*17),
		Rows:     uint64(i * 3),
		Bytes:    uint64(i * 100),
		Latency:  time.Duration(i+1) * time.Millisecond,
		Stages:   []int64{int64(i), 0, int64(i * 2), 5, 0, 7},
		CacheHit: i%2 == 0,
		Err:      ErrClass(i % 3),
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for i := 0; i < 20; i++ {
		want := sampleRecord(i)
		p, err := EncodeRecord(want)
		if err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
		got, err := DecodeRecord(p)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("record %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	// Zero-value record (no stages, empty strings) must survive too.
	p, err := EncodeRecord(Record{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecord(p); err != nil {
		t.Fatalf("zero record: %v", err)
	}
}

func TestDecodeRejects(t *testing.T) {
	good, err := EncodeRecord(sampleRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"bad type":       append([]byte{99}, good[1:]...),
		"truncated":      good[:len(good)-3],
		"trailing bytes": append(append([]byte{}, good...), 0xFF),
	}
	for name, p := range cases {
		if _, err := DecodeRecord(p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	// Bad error class: patch the last byte.
	bad := append([]byte{}, good...)
	bad[len(bad)-1] = 200
	if _, err := DecodeRecord(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad error class: got %v, want ErrCorrupt", err)
	}
	// Bad flags: patch the second-to-last byte.
	bad = append([]byte{}, good...)
	bad[len(bad)-2] = 0xF0
	if _, err := DecodeRecord(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad flags: got %v, want ErrCorrupt", err)
	}
}

// writeCapture writes n records and closes the writer, failing the
// test on any writer error.
func writeCapture(t *testing.T, dir string, n int, opts Options) *Writer {
	t.Helper()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		w.Capture(sampleRecord(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const n = 50
	w := writeCapture(t, dir, n, Options{})
	st := w.Stats()
	if st.Records != n || st.Dropped != 0 || st.IOErrors != 0 {
		t.Fatalf("stats = %+v, want %d records, 0 dropped, 0 io errors", st, n)
	}
	recs, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("loaded %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if fmt.Sprint(r) != fmt.Sprint(sampleRecord(i)) {
			t.Fatalf("record %d: got %+v want %+v", i, r, sampleRecord(i))
		}
	}
	// Capture after Close is a silent no-op.
	w.Capture(sampleRecord(0))
	if got := w.Stats().Records; got != n {
		t.Fatalf("capture after close changed records to %d", got)
	}
}

func TestEmptyAndMissingDir(t *testing.T) {
	recs, err := Load(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("missing dir: recs=%v err=%v, want empty, nil", recs, err)
	}
	dir := t.TempDir()
	recs, err = Load(dir)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty dir: recs=%v err=%v, want empty, nil", recs, err)
	}
	// A directory with only foreign files is as good as empty.
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err = Load(dir)
	if err != nil || len(recs) != 0 {
		t.Fatalf("foreign files: recs=%v err=%v, want empty, nil", recs, err)
	}
}

func TestRotationBoundary(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	writeCapture(t, dir, 40, Options{SegmentBytes: 256})
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("got %d segments, want rotation to produce at least 3", len(segs))
	}
	// No record straddles a boundary: every segment scans cleanly and
	// the concatenation is the full, ordered capture.
	recs, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 40 {
		t.Fatalf("loaded %d records across segments, want 40", len(recs))
	}
	for i, r := range recs {
		if r.QueryID != uint64(100+i) {
			t.Fatalf("record %d out of order: query id %d", i, r.QueryID)
		}
	}
}

func TestReopenStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir, 5, Options{})
	writeCapture(t, dir, 5, Options{})
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].Seq+1 != segs[1].Seq {
		t.Fatalf("segments after reopen: %+v, want two consecutive", segs)
	}
	recs, err := Load(dir)
	if err != nil || len(recs) != 10 {
		t.Fatalf("loaded %d records err=%v, want 10, nil", len(recs), err)
	}
}

func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir, 10, Options{})
	segs, err := Segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v err=%v", segs, err)
	}
	path := segs[0].Path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the final record mid-payload: a torn tail, tolerated.
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Load(dir)
	if err != nil {
		t.Fatalf("torn tail should be tolerated on the final segment: %v", err)
	}
	if len(recs) != 9 {
		t.Fatalf("loaded %d records after tear, want 9", len(recs))
	}
	// A zero run at the tail (preallocated-but-unwritten space) also
	// reads as torn, not corrupt.
	if err := os.WriteFile(path, append(data, make([]byte, 64)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, err = Load(dir); err != nil || len(recs) != 10 {
		t.Fatalf("zero tail: %d records, err=%v, want 10, nil", len(recs), err)
	}
}

func TestTornNonFinalSegmentIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir, 10, Options{SegmentBytes: 256})
	segs, err := Segments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want multiple segments, got %v err=%v", segs, err)
	}
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0].Path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn non-final segment: got %v, want ErrCorrupt", err)
	}
}

func TestMidSegmentCorruptionIsLoud(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir, 10, Options{})
	segs, _ := Segments(dir)
	path := segs[0].Path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the first record: CRC must catch it.
	data[seglog.FrameHeader+4] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: got %v, want ErrCorrupt", err)
	}
	// An absurd length prefix mid-file (with data after it) is
	// corruption, not a tear.
	data[seglog.FrameHeader+4] ^= 0xFF // restore payload
	binary.LittleEndian.PutUint32(data, uint32(MaxRecordBytes+1))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absurd length: got %v, want ErrCorrupt", err)
	}
}

func TestDropCounting(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Big SQL makes each write slow enough relative to the sends that
	// a capacity-1 channel must shed load; and even if the writer kept
	// up perfectly, accepted+dropped always accounts for every offer.
	rec := sampleRecord(0)
	rec.SQL = strings.Repeat("x", 32<<10)
	const offers = 5000
	for i := 0; i < offers; i++ {
		w.Capture(rec)
	}
	st := w.Stats()
	if st.Records+st.Dropped != offers {
		t.Fatalf("records %d + dropped %d != offers %d", st.Records, st.Dropped, offers)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything accepted is on disk.
	recs, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) != w.Stats().Records {
		t.Fatalf("loaded %d records, stats say %d accepted", len(recs), w.Stats().Records)
	}
}

func TestSampling(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sample: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	const offers = 1000
	for i := 0; i < offers; i++ {
		w.Capture(sampleRecord(i % 20))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Records != offers/10 {
		t.Fatalf("sample 0.1 kept %d of %d, want exactly %d (deterministic counter)", st.Records, offers, offers/10)
	}
	if st.SampledOut != offers-offers/10 {
		t.Fatalf("sampled out %d, want %d", st.SampledOut, offers-offers/10)
	}
	if st.Dropped != 0 {
		t.Fatalf("sampling must not count as drops, got %d", st.Dropped)
	}
	if _, err := Open(dir, Options{Sample: 1.5}); err == nil {
		t.Fatal("sample rate 1.5 accepted")
	}
}

func TestNilWriterCapture(t *testing.T) {
	var w *Writer
	w.Capture(sampleRecord(0)) // must not panic: the disabled path
}

func TestScanSegmentReportsEnd(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir, 3, Options{})
	segs, _ := Segments(dir)
	fi, err := os.Stat(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	end, torn, err := ScanSegment(segs[0].Path, nil)
	if err != nil || torn {
		t.Fatalf("scan: end=%d torn=%v err=%v", end, torn, err)
	}
	if end != fi.Size() {
		t.Fatalf("end %d != file size %d", end, fi.Size())
	}
}

// TestReopenAfterCrashStaysReadable is the SIGKILL-and-restart case: the
// newest segment ends in half a record, the server comes back on the
// same directory, and the capture must still load — the torn tail is
// cut off before the next run's segment starts, not left to become a
// torn record inside a non-final segment.
func TestReopenAfterCrashStaysReadable(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir, 5, Options{})
	segs, err := Segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v err=%v", segs, err)
	}
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	last, err := EncodeRecord(sampleRecord(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0].Path, data[:len(data)-len(last)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	w := writeCapture(t, dir, 3, Options{})
	recs, err := Load(dir)
	if err != nil {
		t.Fatalf("capture reopened after a torn tail: %v", err)
	}
	if len(recs) != 4+3 {
		t.Fatalf("loaded %d records, want the 4 whole ones and the 3 new", len(recs))
	}
	for i, r := range recs {
		want := sampleRecord(i)
		if i >= 4 {
			want = sampleRecord(i - 4)
		}
		if fmt.Sprint(r) != fmt.Sprint(want) {
			t.Fatalf("record %d: got %+v want %+v", i, r, want)
		}
	}
	// Stats.Bytes is exactly what this writer put on disk.
	segs, err = Segments(dir)
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments after reopen: %v err=%v", segs, err)
	}
	fi, err := os.Stat(segs[1].Path)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Bytes; got != uint64(fi.Size()) {
		t.Fatalf("Stats.Bytes = %d, the segment written holds %d", got, fi.Size())
	}
}

// TestOpenRefusesCorruptNewestSegment: only a torn tail may be cut off.
// A newest segment that is corrupt holds captured traffic that
// truncation would throw away, so Open fails and leaves it alone.
func TestOpenRefusesCorruptNewestSegment(t *testing.T) {
	dir := t.TempDir()
	writeCapture(t, dir, 5, Options{})
	segs, _ := Segments(dir)
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF // inside the last record, which is all there
	if err := os.WriteFile(segs[0].Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if w, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			w.Close()
		}
		t.Fatalf("open over a corrupt newest segment: %v, want ErrCorrupt", err)
	}
	after, err := os.ReadFile(segs[0].Path)
	if err != nil || string(after) != string(data) {
		t.Fatalf("the corrupt segment was modified (err=%v)", err)
	}
	if segs, _ = Segments(dir); len(segs) != 1 {
		t.Fatalf("failed open left %d segments, want the 1 it found", len(segs))
	}
}

// TestWriteAllocations pins the capture goroutine's per-record cost:
// the record is encoded into the appender's one frame buffer, so a
// write allocates nothing.
func TestWriteAllocations(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is captured, so the background goroutine stays parked and
	// the appender is this goroutine's until Close.
	rec := sampleRecord(3)
	allocs := testing.AllocsPerRun(200, func() { w.write(rec) })
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per captured record written, want 0", allocs)
	}
	if recs, err := Load(w.Dir()); err != nil || len(recs) != 201 {
		t.Fatalf("loaded %d records err=%v, want 201", len(recs), err)
	}
}

// TestInlineStages: a record that carries its stages by value encodes
// to the bytes of the same record carrying them as a slice, and the
// capturing side — build the record, hand it to the writer — allocates
// nothing, which a slice of the caller's stage array could not do.
func TestInlineStages(t *testing.T) {
	bySlice := sampleRecord(4)
	byValue := bySlice
	byValue.Stages = nil
	byValue.NumStages = uint8(copy(byValue.StageArr[:], bySlice.Stages))
	want, err := EncodeRecord(bySlice)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeRecord(byValue)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("inline stages encode differently:\n got %x\nwant %x", got, want)
	}
	dec, err := DecodeRecord(got)
	if err != nil || fmt.Sprint(dec.Stages) != fmt.Sprint(bySlice.Stages) || dec.NumStages != 0 {
		t.Fatalf("decoded stages %v (inline %d), %v; want %v in Stages", dec.Stages, dec.NumStages, err, bySlice.Stages)
	}

	w, err := Open(t.TempDir(), Options{Buffer: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	label, sql := bySlice.Label, bySlice.SQL
	allocs := testing.AllocsPerRun(100, func() {
		st := [6]int64{1, 2, 3, 4, 5, 6} // the span's StageNanos, on the session's stack
		rec := Record{Label: label, SQL: sql, Rows: 1, Latency: time.Millisecond, CacheHit: true}
		rec.NumStages = uint8(copy(rec.StageArr[:], st[:]))
		w.Capture(rec)
	})
	if allocs != 0 {
		t.Fatalf("capturing a record with inline stages: %.0f allocations, want 0", allocs)
	}
}
