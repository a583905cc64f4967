package executor

import (
	"errors"
	"math"
	"math/bits"
	"slices"

	"repro/internal/db/value"
)

// Chunk sizes of a rowStore, in rows: the first two chunks hold
// 1<<storeFirstShift rows each, every later one twice the rows of the
// one before, up to 1<<storeMaxShift rows. Like Slab's chunks they
// start small, so a one-row store pins a small chunk, and because the
// sizes follow a rule, row i's chunk is found by arithmetic (locate).
const (
	storeFirstShift = 2
	storeMaxShift   = 8
)

// A Str payload's offset in its chunk takes 16 bits; the constant
// conversion fails to compile if the string chunks outgrow them.
const _ = uint16(strChunkMax - 1)

// rowStore keeps rows of one width — what Sort, Material and the
// hash-join build retain — as an 8-byte payload and a 1-byte tag per
// value instead of a 40-byte value.Value. The payload of an Int, Date
// or Bool is I, of a Float the bits of F, of a Str a reference to its
// bytes (keepStr), and a Null has none; the tag is the value's own T,
// so NULLs and mixed-type computed columns come back exact whatever
// the schema says. A chunk holds its rows' values back to back in
// groups of eight: eight payload words, then a word of their eight
// tags, so a value's tag sits in the cache line of its payload. A
// chunk is one allocation without pointers. Rows are decoded on demand
// (row, keys, value); a decoded string is a view of the store's bytes,
// valid as long as the store. The zero rowStore is empty and ready to
// use.
type rowStore struct {
	n         int // rows kept
	wide      int // values per row, fixed by the first row
	chunks    [][]uint64
	strs      strArena
	strChunks [][]byte // every chunk of string bytes, in the order made
}

// reset empties the store. It keeps the two lists of chunks, without
// the chunks, so a plan that runs again does not allocate them again.
func (s *rowStore) reset() {
	clear(s.chunks)
	clear(s.strChunks)
	*s = rowStore{chunks: s.chunks[:0], strChunks: s.strChunks[:0]}
}

// locate returns the chunk that holds row i, i's row in it and the
// chunk's size in rows.
func locate(i int) (chunk, r, rows int) {
	switch {
	case i < 1<<storeFirstShift:
		return 0, i, 1 << storeFirstShift
	case i < 1<<storeMaxShift:
		// Chunk k ≥ 1 holds the rows from 1<<(k+storeFirstShift-1)
		// up to twice that.
		k := bits.Len(uint(i)) - storeFirstShift
		start := 1 << (k + storeFirstShift - 1)
		return k, i - start, start
	default:
		return storeMaxShift - storeFirstShift + i>>storeMaxShift, i & (1<<storeMaxShift - 1), 1 << storeMaxShift
	}
}

// errStoreFull refuses a row that an int32 cannot number.
var errStoreFull = errors.New("executor: more than 2^31-1 rows to keep for a sort, material or hash join")

// add keeps the columns cols of t, in that order, or all of t when
// cols is nil. Every row of a store has the same width.
func (s *rowStore) add(t Tuple, cols []int) error {
	w := len(t)
	if cols != nil {
		w = len(cols)
	}
	switch {
	case s.n == 0:
		s.wide = w
	case w != s.wide:
		panic("executor: rowStore rows of different widths")
	case s.n == math.MaxInt32:
		return errStoreFull
	}
	k, r, rows := locate(s.n)
	s.n++
	if w == 0 {
		return nil
	}
	if k == len(s.chunks) {
		if s.chunks == nil {
			// Room for the chunks of the first 1<<(storeMaxShift+1) rows.
			s.chunks = make([][]uint64, 0, storeMaxShift-storeFirstShift+2)
		}
		s.chunks = append(s.chunks, make([]uint64, (rows*w+7)/8*9))
	}
	ch := s.chunks[k]
	for j, at := 0, r*w; j < w; j, at = j+1, at+1 {
		v := t[j]
		if cols != nil {
			v = t[cols[j]]
		}
		g := at / 8 * 9
		switch v.T {
		case value.Float:
			ch[g+at%8] = math.Float64bits(v.F)
		case value.Str:
			ch[g+at%8] = s.keepStr(v.S)
		case value.Null: // no payload
		default:
			ch[g+at%8] = uint64(v.I)
		}
		ch[g+8] |= uint64(v.T) << (at % 8 * 8)
	}
	return nil
}

// keepStr copies str into the store's string chunks and returns its
// payload: 0 for the empty string; otherwise the number of its chunk
// plus one in the high 32 bits, its offset in bits 16–31 and its
// length in bits 0–15, where length 0 stands for the whole chunk — a
// string too long for 16 bits gets a chunk of its own.
func (s *rowStore) keepStr(str string) uint64 {
	n := len(str)
	if n == 0 {
		return 0
	}
	if n > math.MaxUint16 {
		s.strChunks = append(s.strChunks, []byte(str))
		// strs's chunk is no longer the last: the next string starts one.
		s.strs.used = len(s.strs.chunk)
		return uint64(len(s.strChunks)) << 32
	}
	copy(s.strs.carve(n), str)
	off := s.strs.used - n
	if off == 0 { // carve began a chunk
		s.strChunks = append(s.strChunks, s.strs.chunk)
	}
	return uint64(len(s.strChunks))<<32 | uint64(off)<<16 | uint64(n)
}

// at returns the chunk of row i and the index of the row's first
// value in it.
func (s *rowStore) at(i int) (ch []uint64, base int) {
	k, r, _ := locate(i)
	return s.chunks[k], r * s.wide
}

// decode sets *v to the value with index at in chunk ch. It writes
// through a pointer rather than returning the 40-byte Value, which
// the sort's comparator would copy once more.
func (s *rowStore) decode(v *value.Value, ch []uint64, at int) {
	g := at / 8 * 9
	p := ch[g+at%8]
	switch t := value.Type(ch[g+8] >> (at % 8 * 8)); t {
	case value.Float:
		*v = value.NewFloat(math.Float64frombits(p))
	case value.Str:
		*v = value.StrView(nil)
		if p != 0 {
			b := s.strChunks[p>>32-1]
			off, n := int(p>>16&math.MaxUint16), int(p&math.MaxUint16)
			if n == 0 {
				n = len(b)
			}
			*v = value.StrView(b[off : off+n])
		}
	default:
		*v = value.Value{T: t, I: int64(p)} // a Null's payload is 0
	}
}

// row appends the values of row i to dst.
func (s *rowStore) row(dst Tuple, i int) Tuple {
	if s.wide == 0 {
		return dst
	}
	n := len(dst)
	dst = slices.Grow(dst, s.wide)[:n+s.wide]
	ch, base := s.at(i)
	for j := range s.wide {
		s.decode(&dst[n+j], ch, base+j)
	}
	return dst
}

// keys decodes the key columns of row i into dst, which is a row wide.
func (s *rowStore) keys(dst Tuple, i int, keys []SortKey) {
	if len(keys) == 0 {
		return // rows may be zero-wide
	}
	ch, base := s.at(i)
	for _, k := range keys {
		s.decode(&dst[k.Col], ch, base+k.Col)
	}
}

// value returns column col of row i.
func (s *rowStore) value(i, col int) (v value.Value) {
	ch, base := s.at(i)
	s.decode(&v, ch, base+col)
	return v
}
