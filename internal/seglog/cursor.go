package seglog

import (
	"encoding/binary"
	"fmt"
)

// Cursor reads little-endian fields off a record payload without ever
// indexing past its end, so a codec built on it is panic-free on
// arbitrary input. The first failure sticks: every later read returns
// zero, and Finish reports it. All failures wrap ErrCorrupt.
type Cursor struct {
	p   []byte
	off int
	err error
}

// NewCursor returns a cursor at the start of payload p.
func NewCursor(p []byte) *Cursor { return &Cursor{p: p} }

// Bytes returns the next n bytes — a slice of the payload, not a copy —
// or nil, failing the cursor, if fewer remain.
func (c *Cursor) Bytes(n int) []byte {
	if c.err != nil || n < 0 || n > len(c.p)-c.off {
		c.Failf("truncated payload")
		return nil
	}
	b := c.p[c.off : c.off+n]
	c.off += n
	return b
}

// Str returns the next n bytes as a string.
func (c *Cursor) Str(n int) string { return string(c.Bytes(n)) }

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	if b := c.Bytes(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (c *Cursor) U16() uint16 {
	if b := c.Bytes(2); len(b) == 2 {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	if b := c.Bytes(4); len(b) == 4 {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	if b := c.Bytes(8); len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Failf fails the cursor with a formatted reason, unless it has already
// failed: codecs use it for field values the format forbids.
func (c *Cursor) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Err returns the cursor's failure, or nil while every read has
// succeeded.
func (c *Cursor) Err() error { return c.err }

// Finish returns the cursor's failure, if any, and otherwise rejects
// trailing bytes: a payload must be consumed exactly.
func (c *Cursor) Finish() error {
	if c.err == nil && c.off != len(c.p) {
		c.Failf("%d trailing bytes", len(c.p)-c.off)
	}
	return c.err
}
