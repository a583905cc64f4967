package seglog

import (
	"bytes"
	"testing"
)

// FuzzScan drives arbitrary bytes through the segment scanner under
// both rule sets. It must never panic; the committed prefix it reports
// lies inside the data; and that prefix, scanned on its own, is a clean
// segment holding the same payloads — which is what lets an appender
// truncate to it and carry on.
func FuzzScan(f *testing.F) {
	seg, ends := segment()
	f.Add(seg)
	f.Add(seg[:ends[1]+3])
	f.Add(append(append([]byte{}, seg...), make([]byte, 32)...))
	flipped := append([]byte{}, seg...)
	flipped[FrameHeader+1] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range formats {
			got, end, torn, err := collect(format, data)
			if end < 0 || end > int64(len(data)) {
				t.Fatalf("%v: end %d outside the %d bytes scanned", format, end, len(data))
			}
			if err == nil && !torn && end != int64(len(data)) {
				t.Fatalf("%v: clean scan stopped at %d of %d", format, end, len(data))
			}
			again, end2, torn2, err2 := collect(format, data[:end])
			if err2 != nil || torn2 || end2 != end {
				t.Fatalf("%v: committed prefix rescans to end=%d torn=%v err=%v, want clean to %d", format, end2, torn2, err2, end)
			}
			if len(again) != len(got) {
				t.Fatalf("%v: committed prefix holds %d records, the full scan saw %d", format, len(again), len(got))
			}
			for i := range got {
				if !bytes.Equal(got[i], again[i]) {
					t.Fatalf("%v: record %d differs between the scans", format, i)
				}
			}
		}
	})
}
