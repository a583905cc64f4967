package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/dsdb"
)

// TestFrameRoundTrip writes every frame kind and reads it back.
func TestFrameRoundTrip(t *testing.T) {
	frames := []struct {
		kind    Kind
		payload []byte
		want    any
	}{
		{KindHello, EncodeHello(Hello{Version: ProtocolVersion}), Hello{Version: ProtocolVersion}},
		{KindHelloOK, EncodeHelloOK(HelloOK{Version: 1, SessionID: 7}), HelloOK{Version: 1, SessionID: 7}},
		{KindQuery, EncodeQuery(Query{Label: "Q6", SQL: "select 1"}), Query{Label: "Q6", SQL: "select 1"}},
		{KindPrepare, EncodePrepare(Prepare{SQL: "select 2"}), Prepare{SQL: "select 2"}},
		{KindPrepareOK, EncodePrepareOK(PrepareOK{StmtID: 3, Columns: []string{"a", "b"}}),
			PrepareOK{StmtID: 3, Columns: []string{"a", "b"}}},
		{KindQueryStmt, EncodeQueryStmt(QueryStmt{StmtID: 3, Label: "x"}), QueryStmt{StmtID: 3, Label: "x"}},
		{KindCloseStmt, EncodeCloseStmt(CloseStmt{StmtID: 3}), CloseStmt{StmtID: 3}},
		{KindRowHeader, EncodeRowHeader(RowHeader{Columns: []string{"n_name", "revenue"}}),
			RowHeader{Columns: []string{"n_name", "revenue"}}},
		{KindDone, EncodeDone(Done{RowCount: 42}), Done{RowCount: 42}},
		{KindError, EncodeError(ErrorFrame{Code: CodeQuery, Message: "boom"}),
			ErrorFrame{Code: CodeQuery, Message: "boom"}},
		{KindStatsResult, EncodeStats(Stats{Pairs: []StatPair{{Name: "conns_active", Value: 3}, {Name: "rows_streamed", Value: -1}}}),
			Stats{Pairs: []StatPair{{Name: "conns_active", Value: 3}, {Name: "rows_streamed", Value: -1}}}},
		{KindCancel, nil, nil},
		{KindQuit, nil, nil},
		{KindStats, nil, nil},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f.kind, f.payload); err != nil {
			t.Fatalf("WriteFrame(%s): %v", f.kind, err)
		}
	}
	for _, f := range frames {
		fr, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame(%s): %v", f.kind, err)
		}
		if fr.Kind != f.kind {
			t.Fatalf("kind = %s, want %s", fr.Kind, f.kind)
		}
		got, err := DecodePayload(fr)
		if err != nil {
			t.Fatalf("DecodePayload(%s): %v", f.kind, err)
		}
		if !reflect.DeepEqual(got, f.want) {
			t.Fatalf("%s round trip: got %#v, want %#v", f.kind, got, f.want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

// TestValueRoundTrip checks every value type survives the wire
// bit-for-bit — the foundation of the byte-identical server results.
func TestValueRoundTrip(t *testing.T) {
	rows := [][]dsdb.Value{
		{dsdb.NewInt(-5), dsdb.NewFloat(math.Pi), dsdb.NewStr("héllo 💥"), dsdb.NewNull()},
		{dsdb.NewDate(9000), dsdb.Value{T: dsdb.Bool, I: 1}, dsdb.NewStr(""), dsdb.NewFloat(math.Copysign(0, -1))},
	}
	p := EncodeRowBatch(RowBatch{Rows: rows})
	got, err := DecodeRowBatch(p)
	if err != nil {
		t.Fatalf("DecodeRowBatch: %v", err)
	}
	if !reflect.DeepEqual(got.Rows, rows) {
		t.Fatalf("rows drifted over the wire:\ngot  %#v\nwant %#v", got.Rows, rows)
	}
	// -0.0 must stay -0.0 (bit-exact, not Compare-equal).
	if math.Float64bits(got.Rows[1][3].F) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatal("-0.0 lost its sign bit")
	}
}

// TestReadFrameRejectsOversize checks the MaxFrame guard fires before
// any allocation.
func TestReadFrameRejectsOversize(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	binary.BigEndian.PutUint32(hdr[:4], 0)
	if _, err := ReadFrame(bytes.NewReader(hdr[:4])); err == nil {
		t.Fatal("zero-length frame must error")
	}
}

// TestReadFrameTruncated checks a stream cut mid-frame errors rather
// than blocking or succeeding.
func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, KindQuery, EncodeQuery(Query{SQL: "select 1"})); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		if _, err := ReadFrame(bytes.NewReader(whole[:cut])); err == nil {
			t.Fatalf("frame truncated at %d bytes decoded successfully", cut)
		}
	}
}

// TestDecoderMalformed checks typed decoders reject truncations,
// unknown tags and trailing garbage.
func TestDecoderMalformed(t *testing.T) {
	cases := []struct {
		name string
		err  bool
		f    func() (any, error)
	}{
		{"hello bad magic", true, func() (any, error) {
			var e Encoder
			e.U32(0xdeadbeef)
			e.U16(1)
			return DecodeHello(e.Bytes())
		}},
		{"query truncated", true, func() (any, error) { return DecodeQuery([]byte{0x05, 'a'}) }},
		{"string length overflow", true, func() (any, error) {
			return DecodeQuery(append([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}, 'x'))
		}},
		{"value unknown tag", true, func() (any, error) {
			return DecodeRowBatch([]byte{0x00, 0x01, 0x00, 0x01, 0x99})
		}},
		{"trailing garbage", true, func() (any, error) {
			return DecodeDone(append(EncodeDone(Done{RowCount: 1}), 0x00))
		}},
		{"cancel with payload", true, func() (any, error) {
			return DecodePayload(Frame{Kind: KindCancel, Payload: []byte{1}})
		}},
		{"unknown kind", true, func() (any, error) { return DecodePayload(Frame{Kind: 0xEE}) }},
		{"huge strings count", true, func() (any, error) {
			var e Encoder
			e.U16(65535) // claims 65535 columns, provides none
			return DecodeRowHeader(e.Bytes())
		}},
		{"stats truncated", true, func() (any, error) {
			var e Encoder
			e.U16(2) // claims 2 pairs, provides none
			return DecodeStats(e.Bytes())
		}},
		{"stats trailing garbage", true, func() (any, error) {
			return DecodeStats(append(EncodeStats(Stats{Pairs: []StatPair{{Name: "x", Value: 1}}}), 0x00))
		}},
		{"stats request with payload", true, func() (any, error) {
			return DecodePayload(Frame{Kind: KindStats, Payload: []byte{1}})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.f()
			if c.err && err == nil {
				t.Fatal("decode accepted malformed payload")
			}
		})
	}
}

// TestStickyDecoder checks the decoder poisons itself on the first
// error instead of mis-parsing subsequent fields.
func TestStickyDecoder(t *testing.T) {
	d := NewDecoder([]byte{0x01})
	_ = d.U32() // fails: only one byte
	if d.Err() == nil {
		t.Fatal("short U32 must poison the decoder")
	}
	if s := d.String(); s != "" {
		t.Fatalf("poisoned decoder returned %q", s)
	}
	if !strings.Contains(d.Err().Error(), "u32") {
		t.Fatalf("first error not preserved: %v", d.Err())
	}
}

// sampleBatch is a full batch of (int, string, float, null) rows.
func sampleBatch() RowBatch {
	var b RowBatch
	for i := 0; i < BatchRows; i++ {
		b.Rows = append(b.Rows, []dsdb.Value{
			dsdb.NewInt(int64(i)), dsdb.NewStr(strings.Repeat("x", i%7+1)), dsdb.NewFloat(float64(i) / 3), dsdb.NewNull(),
		})
	}
	return b
}

// TestEncoderFramesMatchWriteFrame: frames laid out in an Encoder one
// after the other — a RowBatch built row by row among them — are the
// bytes WriteFrame emits for the same payloads, and an oversize frame
// is cut back out, leaving the frames before it.
func TestEncoderFramesMatchWriteFrame(t *testing.T) {
	b := sampleBatch()
	hdr := RowHeader{Columns: []string{"a", "b", "c", "d"}}
	dn := Done{RowCount: BatchRows, Flags: DoneFlagCacheHit, QueryID: 9}
	var want bytes.Buffer
	WriteFrame(&want, KindRowHeader, EncodeRowHeader(hdr))
	WriteFrame(&want, KindRowBatch, EncodeRowBatch(b))
	WriteFrame(&want, KindDone, EncodeDone(dn))

	var e Encoder
	m := e.BeginFrame(KindRowHeader)
	e.RowHeader(hdr)
	if err := e.EndFrame(m); err != nil {
		t.Fatal(err)
	}
	m = e.BeginRowBatch()
	for _, r := range b.Rows {
		e.Row(r)
	}
	if err := e.EndRowBatch(m, len(b.Rows)); err != nil {
		t.Fatal(err)
	}
	m = e.BeginFrame(KindDone)
	e.Done(dn)
	if err := e.EndFrame(m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Bytes(), want.Bytes()) {
		t.Fatalf("encoder frames differ from WriteFrame's:\n got %x\nwant %x", e.Bytes(), want.Bytes())
	}

	before := e.Len()
	if err := e.Frame(KindRowBatch, make([]byte, MaxFrame)); err != ErrFrameTooLarge {
		t.Fatalf("oversize frame: %v, want ErrFrameTooLarge", err)
	}
	if e.Len() != before || !bytes.Equal(e.Bytes(), want.Bytes()) {
		t.Fatal("an oversize frame was not cut back out of the encoder")
	}
}

// TestDecodeRowBatchAllocs: a batch decodes into one backing array and
// one copy of its strings, not a slice per row and a copy per string —
// three allocations, inside the "two and one per string" this replaced.
func TestDecodeRowBatchAllocs(t *testing.T) {
	b := sampleBatch()
	p := EncodeRowBatch(b)
	got, err := DecodeRowBatch(p)
	if err != nil || !reflect.DeepEqual(got, b) {
		t.Fatalf("round trip: %v", err)
	}
	// Rows are clipped: appending to one must not write into the next.
	first := append(got.Rows[0], dsdb.NewInt(-1))
	if first[len(first)-1].I != -1 || got.Rows[1][0].I != 1 {
		t.Fatal("appending to a decoded row overwrote its neighbour")
	}
	strs := 0
	for _, r := range b.Rows {
		for _, v := range r {
			if v.T == dsdb.Str {
				strs++
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeRowBatch(p); err != nil {
			t.Fatal(err)
		}
	})
	if strs < BatchRows || allocs > 3 {
		t.Fatalf("DecodeRowBatch of %d rows with %d strings: %.0f allocations, want at most 3", BatchRows, strs, allocs)
	}
	// Rows of unequal arity outgrow the first row's guess; they must
	// still all come back right.
	ragged := RowBatch{Rows: [][]dsdb.Value{{dsdb.NewInt(1)}, {dsdb.NewInt(2), dsdb.NewStr("two"), dsdb.NewInt(22)}, {}, {dsdb.NewStr("three")}}}
	if got, err := DecodeRowBatch(EncodeRowBatch(ragged)); err != nil || !reflect.DeepEqual(got, ragged) {
		t.Fatalf("ragged batch: got %v, %v", got, err)
	}
}

// TestReadFrameIntoNeverAliases: a reader that reuses one frame buffer
// may overwrite it as soon as the frame is decoded — nothing a decoder
// returned points into it.
func TestReadFrameIntoNeverAliases(t *testing.T) {
	b := sampleBatch()
	hdr := RowHeader{Columns: []string{"n_name", "revenue"}}
	ef := ErrorFrame{Code: CodeQuery, Message: "boom"}
	st := Stats{Pairs: []StatPair{{Name: "queries", Value: 3}}}
	pok := PrepareOK{StmtID: 3, Columns: []string{"a", "b"}}
	var stream bytes.Buffer
	WriteFrame(&stream, KindRowHeader, EncodeRowHeader(hdr))
	WriteFrame(&stream, KindRowBatch, EncodeRowBatch(b))
	WriteFrame(&stream, KindError, EncodeError(ef))
	WriteFrame(&stream, KindStatsResult, EncodeStats(st))
	WriteFrame(&stream, KindPrepareOK, EncodePrepareOK(pok))
	want := []any{hdr, b, ef, st, pok}

	var buf []byte
	var got []any
	for range want {
		fr, err := ReadFrameInto(&stream, &buf)
		if err != nil {
			t.Fatal(err)
		}
		v, err := DecodePayload(fr)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
		for i := range buf[:cap(buf)] {
			buf[:cap(buf)][i] = 0xFF
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded values changed when the frame buffer was overwritten:\n got %v\nwant %v", got, want)
	}
	if cap(buf) < len(EncodeRowBatch(b)) {
		t.Fatalf("buffer of %d bytes was not the one the %d-byte batch was read into", cap(buf), len(EncodeRowBatch(b)))
	}

	// The bound is checked before the buffer is grown.
	var hdrOnly [4]byte
	binary.BigEndian.PutUint32(hdrOnly[:], MaxFrame+1)
	small := make([]byte, 8)
	if _, err := ReadFrameInto(bytes.NewReader(hdrOnly[:]), &small); err != ErrFrameTooLarge || cap(small) != 8 {
		t.Fatalf("oversize frame: %v, buffer cap %d", err, cap(small))
	}
}
