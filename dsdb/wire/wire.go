// Package wire defines the binary protocol that dsdb/server and
// dsdb/client speak over a TCP connection: a stream of length-prefixed
// frames carrying the handshake, prepared statements, queries, row
// batches, completion/error markers and cancellation.
//
// Every frame is
//
//	uint32 length (big-endian; counts kind byte + payload)
//	uint8  kind
//	[]byte payload
//
// Payloads are encoded with the Encoder/Decoder pair below: fixed-width
// big-endian integers, uvarint-prefixed strings, and tagged SQL values
// that round-trip dsdb.Value exactly (so a remote result set is
// byte-identical to a local one). The decoder never panics: malformed
// lengths, truncated frames and unknown tags all surface as errors,
// which the FuzzDecodeFrame target enforces.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/dsdb"
)

// ProtocolVersion is the protocol revision spoken by this package.
// Hello carries the client's version; the server refuses mismatches.
// Revision 2 added the Done frame's flags byte (cache-hit
// attribution). Revision 3 added the Stats/StatsResult introspection
// frames and the slow_client/idle_timeout error codes. Revision 4
// added the Done frame's query id (the server-side observability
// handle; correlates a client result with SHOW queries / SHOW slow).
const ProtocolVersion = 4

// Magic opens every Hello frame ("DSDB").
const Magic = 0x44534442

// MaxFrame bounds a frame's content length (kind + payload). Frames
// claiming more are rejected before any allocation, so a corrupt or
// hostile length prefix cannot balloon memory.
const MaxFrame = 1 << 20

// Kind enumerates the frame types.
type Kind uint8

const (
	// KindHello opens a connection (client → server): magic, version.
	KindHello Kind = 1 + iota
	// KindHelloOK accepts the handshake (server → client): version,
	// session id.
	KindHelloOK
	// KindQuery submits SQL for one-shot execution (client → server):
	// label, SQL text.
	KindQuery
	// KindPrepare compiles SQL into a server-side statement (client →
	// server): SQL text.
	KindPrepare
	// KindPrepareOK returns the statement handle (server → client):
	// statement id, column names.
	KindPrepareOK
	// KindQueryStmt executes a prepared statement (client → server):
	// statement id, label.
	KindQueryStmt
	// KindCloseStmt releases a prepared statement (client → server).
	KindCloseStmt
	// KindRowHeader opens a result stream (server → client): column
	// names.
	KindRowHeader
	// KindRowBatch carries up to BatchRows result rows (server →
	// client).
	KindRowBatch
	// KindDone closes a result stream (server → client): row count,
	// execution flags (DoneFlagCacheHit), and the server-assigned
	// query id.
	KindDone
	// KindError reports a failure (server → client): code, message. For
	// query-level errors the connection remains usable.
	KindError
	// KindCancel asks the server to cancel the in-flight query (client
	// → server). Stray cancels (query already finished) are ignored.
	KindCancel
	// KindQuit announces an orderly client disconnect.
	KindQuit
	// KindStats asks the server for its counter snapshot (client →
	// server); no payload.
	KindStats
	// KindStatsResult carries the counter snapshot (server → client):
	// ordered name/value pairs.
	KindStatsResult
)

// String names the frame kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "Hello"
	case KindHelloOK:
		return "HelloOK"
	case KindQuery:
		return "Query"
	case KindPrepare:
		return "Prepare"
	case KindPrepareOK:
		return "PrepareOK"
	case KindQueryStmt:
		return "QueryStmt"
	case KindCloseStmt:
		return "CloseStmt"
	case KindRowHeader:
		return "RowHeader"
	case KindRowBatch:
		return "RowBatch"
	case KindDone:
		return "Done"
	case KindError:
		return "Error"
	case KindCancel:
		return "Cancel"
	case KindQuit:
		return "Quit"
	case KindStats:
		return "Stats"
	case KindStatsResult:
		return "StatsResult"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// BatchRows is the maximum number of rows a server packs into one
// RowBatch frame.
const BatchRows = 64

// FrameOverhead is the wire cost of a frame beyond its payload: the
// 4-byte length prefix plus the kind byte. Servers use it to account
// bytes actually written per frame.
const FrameOverhead = 5

// Error codes carried by KindError frames.
const (
	// CodeQuery is a compile- or run-time query failure; the connection
	// survives.
	CodeQuery = "query"
	// CodeCancelled ends a result stream that was cancelled (client
	// Cancel frame or server-side deadline).
	CodeCancelled = "cancelled"
	// CodeConnLimit rejects a connection over the server's limit.
	CodeConnLimit = "conn_limit"
	// CodeShutdown rejects work on a draining server.
	CodeShutdown = "shutdown"
	// CodeProto reports a protocol violation; the server closes the
	// connection after sending it.
	CodeProto = "proto"
	// CodeSlowClient marks a connection killed because the client
	// stopped reading its result stream: a frame write exceeded the
	// server's write timeout, so the query was cancelled and the
	// socket closed (the stalled client usually observes the close,
	// not this frame — it was not reading).
	CodeSlowClient = "slow_client"
	// CodeIdle marks a session closed by the server's idle timeout:
	// no frame arrived, and no query was in flight, for longer than
	// the configured bound.
	CodeIdle = "idle_timeout"
)

// ErrFrameTooLarge rejects frames whose length prefix exceeds
// MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// Frame is one decoded frame: its kind and raw payload.
type Frame struct {
	Kind    Kind
	Payload []byte
}

// WriteFrame writes one frame. The payload may be nil.
func WriteFrame(w io.Writer, k Kind, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = byte(k)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame, enforcing the MaxFrame bound. A truncated
// stream returns an error (io.EOF only when the stream ends cleanly
// between frames). The frame's payload is freshly allocated and the
// caller's to keep.
func ReadFrame(r io.Reader) (Frame, error) {
	fr, _, err := readFrame(r, nil)
	return fr, err
}

// ReadFrameInto is ReadFrame into a buffer the caller reuses across
// frames: *buf is grown when a frame needs more room and the returned
// payload aliases it, so the frame is valid only until the next call
// with the same buffer. The typed decoders copy every string out of
// the payload, so a decoded value never aliases *buf. The length prefix
// is checked against MaxFrame before the buffer is touched.
func ReadFrameInto(r io.Reader, buf *[]byte) (fr Frame, err error) {
	fr, *buf, err = readFrame(r, *buf)
	return fr, err
}

// readFrame reads one frame into buf, or into a new buffer when buf is
// too small, and returns the buffer it used.
func readFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	// The length prefix is read into buf too when there is room (it is
	// parsed before the body overwrites it): a local array would escape
	// through the io.Reader and cost an allocation per frame.
	hdr := buf[:0]
	if cap(hdr) < 4 {
		hdr = make([]byte, 4)
	}
	hdr = hdr[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return Frame{}, buf, errors.New("wire: zero-length frame")
	}
	if n > MaxFrame {
		return Frame{}, buf, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return Frame{Kind: Kind(body[0]), Payload: body[1:]}, buf, nil
}

// Encoder builds a frame payload.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset clears the encoder for reuse, keeping its backing array.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Truncate drops everything encoded after the first n bytes.
func (e *Encoder) Truncate(n int) { e.buf = e.buf[:n] }

// BeginFrame opens a whole frame — length prefix, kind, payload — in
// the encoder, for writers that lay several frames out in one buffer
// and hand the socket all of them in one write. It returns the frame's
// mark; the payload is whatever is encoded between this call and
// EndFrame(mark), and is byte-identical to what WriteFrame would emit.
func (e *Encoder) BeginFrame(k Kind) (mark int) {
	mark = len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0, byte(k))
	return mark
}

// EndFrame closes the frame opened at mark by patching its length
// prefix in. A frame over MaxFrame is cut back out of the encoder and
// reported as ErrFrameTooLarge, like WriteFrame.
func (e *Encoder) EndFrame(mark int) error {
	n := len(e.buf) - mark - 4 // kind byte + payload
	if n > MaxFrame {
		e.buf = e.buf[:mark]
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(e.buf[mark:], uint32(n))
	return nil
}

// Frame appends one whole frame around an already encoded payload: the
// bytes WriteFrame(k, payload) emits.
func (e *Encoder) Frame(k Kind, payload []byte) error {
	mark := e.BeginFrame(k)
	e.buf = append(e.buf, payload...)
	return e.EndFrame(mark)
}

// BeginRowBatch opens a RowBatch frame whose rows are encoded as they
// arrive, each with Row; EndRowBatch closes it.
func (e *Encoder) BeginRowBatch() (mark int) {
	mark = e.BeginFrame(KindRowBatch)
	e.U16(0) // the row count, known at EndRowBatch
	return mark
}

// EndRowBatch patches the row count into the batch opened at mark and
// closes its frame (see EndFrame). The bytes equal
// WriteFrame(KindRowBatch, EncodeRowBatch(the same rows)).
func (e *Encoder) EndRowBatch(mark, rows int) error {
	binary.BigEndian.PutUint16(e.buf[mark+FrameOverhead:], uint16(rows))
	return e.EndFrame(mark)
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a big-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

// I64 appends a big-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// String appends a uvarint-length-prefixed string.
func (e *Encoder) String(s string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Strings appends a u16 count followed by each string.
func (e *Encoder) Strings(ss []string) {
	e.U16(uint16(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// Value appends one tagged SQL value.
func (e *Encoder) Value(v dsdb.Value) {
	e.U8(uint8(v.T))
	switch v.T {
	case dsdb.Int, dsdb.Date, dsdb.Bool:
		e.I64(v.I)
	case dsdb.Float:
		e.U64(math.Float64bits(v.F))
	case dsdb.Str:
		e.String(v.S)
	case dsdb.Null:
		// tag only
	}
}

// Row appends one row as a u16 arity followed by each value.
func (e *Encoder) Row(vals []dsdb.Value) {
	e.U16(uint16(len(vals)))
	for _, v := range vals {
		e.Value(v)
	}
}

// Decoder reads a frame payload back. It is sticky: the first
// malformed field poisons the decoder, every later read returns zero
// values, and Err reports the failure — so decode sequences can run
// unconditionally and check once at the end.
type Decoder struct {
	buf []byte
	off int
	err error

	// shareStrings makes String cut its results out of text, one copy
	// of the whole payload taken at the first non-empty string, instead
	// of copying each (DecodeRowBatch: one allocation for a batch's
	// strings, however many there are).
	shareStrings bool
	text         string
}

// NewDecoder decodes the given payload.
func NewDecoder(p []byte) *Decoder { return &Decoder{buf: p} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unread payload bytes.
func (d *Decoder) Len() int { return len(d.buf) - d.off }

// fail poisons the decoder.
func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated or malformed %s at offset %d", what, d.off)
	}
}

// take returns the next n bytes, or nil after poisoning the decoder.
func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil || n < 0 || d.Len() < n {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2, "u16")
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// String reads a uvarint-length-prefixed string.
func (d *Decoder) String() string {
	if d.err != nil {
		return ""
	}
	n, sz := binary.Uvarint(d.buf[d.off:])
	if sz <= 0 || n > uint64(MaxFrame) {
		d.fail("string length")
		return ""
	}
	d.off += sz
	b := d.take(int(n), "string body")
	if !d.shareStrings || len(b) == 0 {
		return string(b)
	}
	if d.text == "" {
		d.text = string(d.buf)
	}
	return d.text[d.off-len(b) : d.off]
}

// Strings reads a u16 count followed by each string.
func (d *Decoder) Strings() []string {
	n := int(d.U16())
	if d.err != nil {
		return nil
	}
	out := make([]string, 0, min(n, 64))
	for i := 0; i < n; i++ {
		out = append(out, d.String())
		if d.err != nil {
			return nil
		}
	}
	return out
}

// Value reads one tagged SQL value.
func (d *Decoder) Value() dsdb.Value {
	tag := dsdb.Type(d.U8())
	if d.err != nil {
		return dsdb.Value{}
	}
	switch tag {
	case dsdb.Int, dsdb.Date, dsdb.Bool:
		return dsdb.Value{T: tag, I: d.I64()}
	case dsdb.Float:
		return dsdb.Value{T: tag, F: math.Float64frombits(d.U64())}
	case dsdb.Str:
		return dsdb.Value{T: tag, S: d.String()}
	case dsdb.Null:
		return dsdb.NewNull()
	}
	d.fail(fmt.Sprintf("value tag %d", tag))
	return dsdb.Value{}
}

// Row reads one u16-arity row of values.
func (d *Decoder) Row() []dsdb.Value {
	n := int(d.U16())
	if d.err != nil {
		return nil
	}
	out := make([]dsdb.Value, 0, min(n, 64))
	for i := 0; i < n; i++ {
		out = append(out, d.Value())
		if d.err != nil {
			return nil
		}
	}
	return out
}

// End errors if undecoded payload bytes remain — every frame decoder
// calls it so trailing garbage is a protocol error, not silence.
func (d *Decoder) End() error {
	if d.err != nil {
		return d.err
	}
	if d.Len() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after payload", d.Len())
	}
	return nil
}

// Hello is the client half of the handshake.
type Hello struct {
	Version uint16
}

// EncodeHello builds a Hello payload.
func EncodeHello(h Hello) []byte {
	var e Encoder
	e.U32(Magic)
	e.U16(h.Version)
	return e.Bytes()
}

// DecodeHello parses a Hello payload, checking the magic.
func DecodeHello(p []byte) (Hello, error) {
	d := NewDecoder(p)
	if m := d.U32(); d.Err() == nil && m != Magic {
		return Hello{}, fmt.Errorf("wire: bad magic %#x", m)
	}
	h := Hello{Version: d.U16()}
	return h, d.End()
}

// HelloOK is the server half of the handshake.
type HelloOK struct {
	Version   uint16
	SessionID uint32
}

// EncodeHelloOK builds a HelloOK payload.
func EncodeHelloOK(h HelloOK) []byte {
	var e Encoder
	e.U16(h.Version)
	e.U32(h.SessionID)
	return e.Bytes()
}

// DecodeHelloOK parses a HelloOK payload.
func DecodeHelloOK(p []byte) (HelloOK, error) {
	d := NewDecoder(p)
	h := HelloOK{Version: d.U16(), SessionID: d.U32()}
	return h, d.End()
}

// Query is a one-shot query submission. Label is a client-chosen name
// for the execution (dsload query labels, stcpipe trace marks); it may
// be empty.
type Query struct {
	Label string
	SQL   string
}

// EncodeQuery builds a Query payload.
func EncodeQuery(q Query) []byte {
	var e Encoder
	e.String(q.Label)
	e.String(q.SQL)
	return e.Bytes()
}

// DecodeQuery parses a Query payload.
func DecodeQuery(p []byte) (Query, error) {
	d := NewDecoder(p)
	q := Query{Label: d.String(), SQL: d.String()}
	return q, d.End()
}

// Prepare asks the server to compile a statement.
type Prepare struct {
	SQL string
}

// EncodePrepare builds a Prepare payload.
func EncodePrepare(pr Prepare) []byte {
	var e Encoder
	e.String(pr.SQL)
	return e.Bytes()
}

// DecodePrepare parses a Prepare payload.
func DecodePrepare(p []byte) (Prepare, error) {
	d := NewDecoder(p)
	pr := Prepare{SQL: d.String()}
	return pr, d.End()
}

// PrepareOK returns a server-side statement handle.
type PrepareOK struct {
	StmtID  uint32
	Columns []string
}

// EncodePrepareOK builds a PrepareOK payload.
func EncodePrepareOK(pr PrepareOK) []byte {
	var e Encoder
	e.U32(pr.StmtID)
	e.Strings(pr.Columns)
	return e.Bytes()
}

// DecodePrepareOK parses a PrepareOK payload.
func DecodePrepareOK(p []byte) (PrepareOK, error) {
	d := NewDecoder(p)
	pr := PrepareOK{StmtID: d.U32(), Columns: d.Strings()}
	return pr, d.End()
}

// QueryStmt executes a prepared statement.
type QueryStmt struct {
	StmtID uint32
	Label  string
}

// EncodeQueryStmt builds a QueryStmt payload.
func EncodeQueryStmt(q QueryStmt) []byte {
	var e Encoder
	e.U32(q.StmtID)
	e.String(q.Label)
	return e.Bytes()
}

// DecodeQueryStmt parses a QueryStmt payload.
func DecodeQueryStmt(p []byte) (QueryStmt, error) {
	d := NewDecoder(p)
	q := QueryStmt{StmtID: d.U32(), Label: d.String()}
	return q, d.End()
}

// CloseStmt releases a prepared statement.
type CloseStmt struct {
	StmtID uint32
}

// EncodeCloseStmt builds a CloseStmt payload.
func EncodeCloseStmt(c CloseStmt) []byte {
	var e Encoder
	e.U32(c.StmtID)
	return e.Bytes()
}

// DecodeCloseStmt parses a CloseStmt payload.
func DecodeCloseStmt(p []byte) (CloseStmt, error) {
	d := NewDecoder(p)
	c := CloseStmt{StmtID: d.U32()}
	return c, d.End()
}

// RowHeader opens a result stream.
type RowHeader struct {
	Columns []string
}

// RowHeader appends a RowHeader payload.
func (e *Encoder) RowHeader(h RowHeader) { e.Strings(h.Columns) }

// EncodeRowHeader builds a RowHeader payload.
func EncodeRowHeader(h RowHeader) []byte {
	var e Encoder
	e.RowHeader(h)
	return e.Bytes()
}

// DecodeRowHeader parses a RowHeader payload.
func DecodeRowHeader(p []byte) (RowHeader, error) {
	d := NewDecoder(p)
	h := RowHeader{Columns: d.Strings()}
	return h, d.End()
}

// RowBatch carries consecutive result rows.
type RowBatch struct {
	Rows [][]dsdb.Value
}

// EncodeRowBatch builds a RowBatch payload.
func EncodeRowBatch(b RowBatch) []byte {
	var e Encoder
	e.U16(uint16(len(b.Rows)))
	for _, r := range b.Rows {
		e.Row(r)
	}
	return e.Bytes()
}

// maxFlatGuess bounds the up-front size of a decoded batch's backing
// array: a full batch of 64-column rows.
const maxFlatGuess = 64 * BatchRows

// DecodeRowBatch parses a RowBatch payload into three allocations,
// however many rows and strings it carries: the rows of one batch share
// a single backing array (each row is a capacity-clipped sub-slice of
// it), and their string values are cut out of one copy of the payload —
// so nothing decoded aliases p, and a string that is kept keeps its
// batch's payload (at most MaxFrame bytes, a few KB for typical rows)
// alive with it.
func DecodeRowBatch(p []byte) (RowBatch, error) {
	d := Decoder{buf: p, shareStrings: true}
	n := int(d.U16())
	if err := d.Err(); err != nil {
		return RowBatch{}, err
	}
	b := RowBatch{Rows: make([][]dsdb.Value, 0, min(n, BatchRows))}
	var flat []dsdb.Value
	for i := 0; i < n; i++ {
		arity := int(d.U16())
		if flat == nil {
			// Size the backing array for n rows of the first row's arity,
			// bounded by what the payload can hold (a value is at least
			// its tag byte) and by maxFlatGuess, so a hostile count cannot
			// balloon memory. If the guess is short, append moves on to a
			// larger array and the rows already cut keep pointing into
			// the old one.
			flat = make([]dsdb.Value, 0, min(min(n, BatchRows)*arity, d.Len(), maxFlatGuess))
		}
		start := len(flat)
		for j := 0; j < arity && d.err == nil; j++ {
			flat = append(flat, d.Value())
		}
		if err := d.Err(); err != nil {
			return RowBatch{}, err
		}
		b.Rows = append(b.Rows, flat[start:len(flat):len(flat)])
	}
	return b, d.End()
}

// DoneFlagCacheHit marks a result stream that was served from the
// server's query result cache: the rows came from memory, no executor
// ran. Clients surface it as Rows.CacheHit; dsload attributes
// latencies with it.
const DoneFlagCacheHit uint8 = 1 << 0

// Done closes a result stream: the row count, execution flags
// attributing how the result was produced, and the server-assigned
// query id — the handle under which the execution appears in the
// server's SHOW queries / SHOW slow virtual tables and slow-query
// log.
type Done struct {
	RowCount uint64
	Flags    uint8
	QueryID  uint64
}

// Done appends a Done payload.
func (e *Encoder) Done(dn Done) {
	e.U64(dn.RowCount)
	e.U8(dn.Flags)
	e.U64(dn.QueryID)
}

// EncodeDone builds a Done payload.
func EncodeDone(dn Done) []byte {
	var e Encoder
	e.Done(dn)
	return e.Bytes()
}

// DecodeDone parses a Done payload.
func DecodeDone(p []byte) (Done, error) {
	d := NewDecoder(p)
	dn := Done{RowCount: d.U64(), Flags: d.U8(), QueryID: d.U64()}
	return dn, d.End()
}

// StatPair is one named counter in a StatsResult frame.
type StatPair struct {
	Name  string
	Value int64
}

// Stats is the server counter snapshot carried by a StatsResult
// frame: ordered name/value pairs (the order is the server's
// presentation order; names are stable snake_case identifiers).
type Stats struct {
	Pairs []StatPair
}

// Get returns the named counter's value (0, false when absent).
func (s Stats) Get(name string) (int64, bool) {
	for _, p := range s.Pairs {
		if p.Name == name {
			return p.Value, true
		}
	}
	return 0, false
}

// EncodeStats builds a StatsResult payload.
func EncodeStats(s Stats) []byte {
	var e Encoder
	e.U16(uint16(len(s.Pairs)))
	for _, p := range s.Pairs {
		e.String(p.Name)
		e.I64(p.Value)
	}
	return e.Bytes()
}

// DecodeStats parses a StatsResult payload.
func DecodeStats(p []byte) (Stats, error) {
	d := NewDecoder(p)
	n := int(d.U16())
	if err := d.Err(); err != nil {
		return Stats{}, err
	}
	s := Stats{Pairs: make([]StatPair, 0, min(n, 64))}
	for i := 0; i < n; i++ {
		s.Pairs = append(s.Pairs, StatPair{Name: d.String(), Value: d.I64()})
		if err := d.Err(); err != nil {
			return Stats{}, err
		}
	}
	return s, d.End()
}

// ErrorFrame reports a failure.
type ErrorFrame struct {
	Code    string
	Message string
}

// Error renders the frame as a Go error string.
func (e ErrorFrame) Error() string {
	return fmt.Sprintf("dsdb server [%s]: %s", e.Code, e.Message)
}

// EncodeError builds an Error payload.
func EncodeError(ef ErrorFrame) []byte {
	var e Encoder
	e.String(ef.Code)
	e.String(ef.Message)
	return e.Bytes()
}

// DecodeError parses an Error payload.
func DecodeError(p []byte) (ErrorFrame, error) {
	d := NewDecoder(p)
	ef := ErrorFrame{Code: d.String(), Message: d.String()}
	return ef, d.End()
}

// DecodePayload dispatches a frame to its typed decoder, returning the
// decoded struct (Cancel and Quit carry no payload and return nil).
// It is the single entry point the fuzz target exercises: any byte
// string must come back as a value or an error, never a panic.
func DecodePayload(f Frame) (any, error) {
	switch f.Kind {
	case KindHello:
		return DecodeHello(f.Payload)
	case KindHelloOK:
		return DecodeHelloOK(f.Payload)
	case KindQuery:
		return DecodeQuery(f.Payload)
	case KindPrepare:
		return DecodePrepare(f.Payload)
	case KindPrepareOK:
		return DecodePrepareOK(f.Payload)
	case KindQueryStmt:
		return DecodeQueryStmt(f.Payload)
	case KindCloseStmt:
		return DecodeCloseStmt(f.Payload)
	case KindRowHeader:
		return DecodeRowHeader(f.Payload)
	case KindRowBatch:
		return DecodeRowBatch(f.Payload)
	case KindDone:
		return DecodeDone(f.Payload)
	case KindError:
		return DecodeError(f.Payload)
	case KindStatsResult:
		return DecodeStats(f.Payload)
	case KindCancel, KindQuit, KindStats:
		if len(f.Payload) != 0 {
			return nil, fmt.Errorf("wire: %s frame carries %d unexpected payload bytes", f.Kind, len(f.Payload))
		}
		return nil, nil
	}
	return nil, fmt.Errorf("wire: unknown frame kind %d", uint8(f.Kind))
}
