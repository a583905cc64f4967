package executor

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/db/probe"
	"repro/internal/db/value"
)

// SameValue reports whether a and b are the same datum: the same type
// and, in the field that type names, the same bits for a float and the
// same bytes for a string.
func SameValue(a, b value.Value) bool {
	if a.T != b.T {
		return false
	}
	switch a.T {
	case value.Float:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case value.Str:
		return a.S == b.S
	case value.Null:
		return true
	default:
		return a.I == b.I
	}
}

// SameRows reports whether two results hold the same datums in the
// same order.
func SameRows(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !SameValue(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// ReferenceSort is what Sort did before it kept a rowStore, kept as
// its oracle: it copies every row whole (or its columns cols) into a
// Tuple of its own and orders them with sort.SliceStable and
// tupleCompare, emitting Sort's probes from QsortEnter to QsortRet.
func ReferenceSort(c *Ctx, rows []Tuple, cols []int, keys []SortKey) []Tuple {
	kept := make([]Tuple, len(rows))
	for i, r := range rows {
		if cols == nil {
			kept[i] = append(Tuple(nil), r...)
			continue
		}
		for _, col := range cols {
			kept[i] = append(kept[i], r[col])
		}
	}
	c.emit(probe.QsortEnter)
	sort.SliceStable(kept, func(i, j int) bool {
		c.emit(probe.QsortCmpCall)
		r := tupleCompare(c, kept[i], kept[j], keys)
		c.emit(probe.QsortCmpCont)
		return r < 0
	})
	c.emit(probe.QsortRet)
	return kept
}

// roundTripValues covers every type, the extremes of each payload, and
// strings empty, one byte and longer than a first string chunk; the
// long ones fill 16 bits and pass strChunkMax.
func roundTripValues() (vals, long []value.Value) {
	vals = []value.Value{
		value.NewInt(0), value.NewInt(-1), value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64),
		value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(math.NaN()),
		value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)), value.NewFloat(-1.5),
		value.NewFloat(math.SmallestNonzeroFloat64), value.NewFloat(math.MaxFloat64),
		value.NewStr(""), value.NewStr("x"), value.NewStr(strings.Repeat("ab", strChunkMin)),
		value.NewDate(0), value.NewDate(math.MinInt64), value.NewDate(math.MaxInt64),
		value.NewBool(true), value.NewBool(false),
		value.NewNull(),
	}
	for _, t := range []value.Type{value.Int, value.Float, value.Str, value.Date, value.Bool, value.Null} {
		found := false
		for _, v := range vals {
			found = found || v.T == t
		}
		if !found {
			panic("roundTripValues misses " + t.String())
		}
	}
	long = []value.Value{value.NewStr(strings.Repeat("z", math.MaxUint16)), value.NewStr(strings.Repeat("L", strChunkMax+1))}
	return vals, long
}

// carveChunks is how many value chunks Slab's carving made for n rows:
// 4 rows' worth, then as many rows as were copied, up to 64.
func carveChunks(n int) int {
	chunks := 0
	for rows := 0; rows < n; chunks++ {
		rows += min(max(rows, 4), slabRows)
	}
	return chunks
}

// A store numbers its rows by int32: the row past that is an error.
func TestRowStoreFull(t *testing.T) {
	s := rowStore{n: math.MaxInt32, wide: 1}
	if err := s.add(Tuple{value.NewInt(1)}, nil); err != errStoreFull {
		t.Fatalf("add to a full store: %v, want errStoreFull", err)
	}
}

// Every value a store keeps comes back exact — through row, keys and
// value, at every width from zero to seven, across chunk edges —
// though the bytes of the strings it was given are overwritten once
// each row is added, and a store makes no more chunks than Slab did.
func TestRowStoreRoundTrip(t *testing.T) {
	vals, long := roundTripValues()
	want := func(i, j int) value.Value {
		if (i+j)%61 == 0 {
			return long[(i+j)/61%len(long)]
		}
		return vals[(i*7+j*3+i/len(vals))%len(vals)]
	}
	var s rowStore
	for w := 0; w <= 7; w++ {
		for _, n := range []int{0, 1, 4, 5, 64, 65, 256, 257, 1000} {
			s.reset()
			src, cols := make(Tuple, w+1), make([]int, w)
			var bufs [][]byte
			for i := 0; i < n; i++ {
				// Column j of the row sits at src[w-j]; src[0] is not kept.
				bufs = bufs[:0]
				for j := range w {
					cols[j] = w - j
					v := want(i, j)
					if v.T == value.Str {
						bufs = append(bufs, []byte(v.S))
						v = value.StrView(bufs[len(bufs)-1])
					}
					src[w-j] = v
				}
				src[0] = value.NewStr("not kept")
				var err error
				if i%2 == 0 {
					err = s.add(src, cols)
				} else {
					row := make(Tuple, w)
					for j := range w {
						row[j] = src[w-j]
					}
					err = s.add(row, nil)
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range bufs {
					clear(b)
				}
			}
			if s.n != n || (w > 0 && len(s.chunks) > carveChunks(n)) {
				t.Fatalf("w=%d n=%d: %d rows in %d chunks, Slab carved %d", w, n, s.n, len(s.chunks), carveChunks(n))
			}
			keys := make([]SortKey, w)
			for j := range keys {
				keys[j].Col = w - 1 - j
			}
			dst, scratch := make(Tuple, 0, w), make(Tuple, w)
			for i := 0; i < n; i++ {
				dst = s.row(dst[:0], i)
				s.keys(scratch, i, keys)
				if len(dst) != w {
					t.Fatalf("w=%d n=%d: row %d has %d values", w, n, i, len(dst))
				}
				for j := range w {
					if v := want(i, j); !SameValue(dst[j], v) || !SameValue(scratch[j], v) || !SameValue(s.value(i, j), v) {
						t.Fatalf("w=%d n=%d: row %d column %d = %v / %v / %v, want %v (%v)",
							w, n, i, j, dst[j], scratch[j], s.value(i, j), v.T, v)
					}
				}
			}
		}
	}
}
