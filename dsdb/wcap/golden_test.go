package wcap

import (
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/seglog/seglogtest"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from what the writer produces now")

// TestGoldenSegments captures a fixed record sequence with segments
// small enough to force rotation and requires the files to equal
// testdata/golden byte for byte, and the checked-in files to load as
// the same records. The golden segments were written by the writer as
// it stood before the segment-log code moved to internal/seglog; they
// pin the on-disk format, so -update is for a deliberate format change
// only.
func TestGoldenSegments(t *testing.T) {
	const n = 7
	dir := t.TempDir()
	writeCapture(t, dir, n, Options{SegmentBytes: 500})
	golden := filepath.Join("testdata", "golden")
	seglogtest.Golden(t, dir, golden, *update)
	if segs, err := Segments(golden); err != nil || len(segs) < 3 {
		t.Fatalf("golden has %d segments (err %v), want rotation to produce at least 3", len(segs), err)
	}
	recs, err := Load(golden)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("golden loads %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if fmt.Sprint(r) != fmt.Sprint(sampleRecord(i)) {
			t.Fatalf("golden record %d: got %+v want %+v", i, r, sampleRecord(i))
		}
	}
}
