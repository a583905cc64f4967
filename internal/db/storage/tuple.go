package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/db/value"
)

// EncodeTuple serializes a row into buf (reused if large enough) and
// returns the encoded bytes. Format per value: 1 type byte, then a
// fixed 8-byte payload for Int/Date/Float, 1 byte for Bool, a 2-byte
// length prefix plus bytes for Str, nothing for Null.
func EncodeTuple(vals []value.Value, buf []byte) []byte {
	buf = buf[:0]
	for _, v := range vals {
		buf = append(buf, byte(v.T))
		switch v.T {
		case value.Int, value.Date:
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], uint64(v.I))
			buf = append(buf, tmp[:]...)
		case value.Float:
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.F))
			buf = append(buf, tmp[:]...)
		case value.Str:
			var tmp [2]byte
			binary.LittleEndian.PutUint16(tmp[:], uint16(len(v.S)))
			buf = append(buf, tmp[:]...)
			buf = append(buf, v.S...)
		case value.Bool:
			b := byte(0)
			if v.I != 0 {
				b = 1
			}
			buf = append(buf, b)
		case value.Null:
			// type byte only
		}
	}
	return buf
}

var errTruncated = errors.New("storage: truncated tuple")

// DecodeTuple appends the wanted columns of an encoded row to dst and
// returns the extended slice. cols lists the wanted column ordinals in
// ascending order; nil means every column. Unwanted columns are
// stepped over without materialising them, and decoding stops after
// the last wanted column — an empty non-nil cols reads nothing. With a
// dst of sufficient capacity the call does not allocate.
//
// A decoded Str is a view of its bytes in data (value.StrView), not a
// copy: it is valid exactly as long as data's bytes are — for a tuple
// read from a page, until the page is unpinned, which every producer
// (HeapScan, Heap.Fetch through the caller's buffer.Pin) does no
// earlier than its next call. Whoever keeps a value longer copies its
// bytes (executor.Slab, value.Clone, value.CloneStrs).
func DecodeTuple(data []byte, cols []int, dst []value.Value) ([]value.Value, error) {
	if cols != nil && len(cols) == 0 {
		return dst, nil
	}
	i, next := 0, 0
	for ord := 0; i < len(data); ord++ {
		want := cols == nil || ord == cols[next]
		t := value.Type(data[i])
		i++
		switch t {
		case value.Int, value.Date:
			if i+8 > len(data) {
				return nil, errTruncated
			}
			if want {
				dst = append(dst, value.Value{T: t, I: int64(binary.LittleEndian.Uint64(data[i:]))})
			}
			i += 8
		case value.Float:
			if i+8 > len(data) {
				return nil, errTruncated
			}
			if want {
				dst = append(dst, value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))))
			}
			i += 8
		case value.Str:
			if i+2 > len(data) {
				return nil, errTruncated
			}
			n := int(binary.LittleEndian.Uint16(data[i:]))
			i += 2
			if i+n > len(data) {
				return nil, errTruncated
			}
			if want {
				dst = append(dst, value.StrView(data[i:i+n:i+n]))
			}
			i += n
		case value.Bool:
			if i+1 > len(data) {
				return nil, errTruncated
			}
			if want {
				dst = append(dst, value.NewBool(data[i] != 0))
			}
			i++
		case value.Null:
			if want {
				dst = append(dst, value.NewNull())
			}
		default:
			return nil, fmt.Errorf("storage: bad type byte %d", t)
		}
		if want && cols != nil {
			if next++; next == len(cols) {
				return dst, nil
			}
		}
	}
	if cols != nil {
		return nil, fmt.Errorf("storage: tuple ends before wanted column %d", cols[next])
	}
	return dst, nil
}
