package wal

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/seglog/seglogtest"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from what the writer produces now")

// goldenRecords is the fixed sequence behind testdata/golden. The
// segments there were written by the writer as it stood before the
// segment-log code moved to internal/seglog; they pin the on-disk
// format, so -update is for a deliberate format change only.
func goldenRecords() []Record {
	return []Record{
		CreateTable{Name: "orders", Cols: []Column{{Name: "o_orderkey", Type: 0}, {Name: "o_comment", Type: 2}}},
		CreateIndex{Table: "orders", Column: "o_orderkey", Kind: 1, Unique: true},
		Insert{Table: "orders", Tuple: []byte{0, 7, 0, 0, 0, 0, 0, 0, 0, 2, 3, 0, 'a', 'b', 'c'}},
		Insert{Table: "orders", Tuple: []byte{}},
		PageWrite{File: 3, Page: 9, Data: bytes.Repeat([]byte{0xAB}, 96)},
		Insert{Table: "lineitem", Tuple: bytes.Repeat([]byte{0x11}, 40)},
		CreateIndex{Table: "lineitem", Column: "l_orderkey", Kind: 0, Unique: false},
		Insert{Table: "orders", Tuple: []byte{1}},
	}
}

// TestGoldenSegments writes goldenRecords through a Writer with
// segments small enough to force rotation and requires the files to
// equal testdata/golden byte for byte, and the checked-in files to
// replay to the same records.
func TestGoldenSegments(t *testing.T) {
	recs := goldenRecords()
	dir := writeLog(t, recs, Options{SegmentBytes: 160})
	golden := filepath.Join("testdata", "golden")
	seglogtest.Golden(t, dir, golden, *update)
	want, err := Segments(golden)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 3 {
		t.Fatalf("golden has %d segments, want rotation to produce at least 3", len(want))
	}
	replayed, tail := replayAll(t, golden, 1)
	if !reflect.DeepEqual(replayed, recs) {
		t.Fatalf("golden replays to\n%#v\nwant\n%#v", replayed, recs)
	}
	if last := want[len(want)-1]; tail.Seq != last.Seq || tail.End != int64(fileSize(t, last.Path)) {
		t.Fatalf("golden tail = %+v, want the end of %s", tail, filepath.Base(last.Path))
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
