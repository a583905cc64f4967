package storage

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/db/value"
)

// sameValues compares rows bit for bit (NaN floats included).
func sameValues(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || a[i].I != b[i].I || a[i].S != b[i].S ||
			math.Float64bits(a[i].F) != math.Float64bits(b[i].F) {
			return false
		}
	}
	return true
}

// maskCols turns the low arity bits of mask into an ascending, non-nil
// ordinal list.
func maskCols(mask uint16, arity int) []int {
	cols := []int{}
	for c := 0; c < arity && c < 16; c++ {
		if mask&(1<<c) != 0 {
			cols = append(cols, c)
		}
	}
	return cols
}

// checkSubset asserts the DecodeTuple contract for one column subset
// of a tuple whose full decode is known: the result is dst's prefix
// followed by the projection of the full row.
func checkSubset(t *testing.T, data []byte, full []value.Value, cols []int) {
	t.Helper()
	prefix := []value.Value{value.NewStr("kept"), value.NewInt(-1)}
	want := append([]value.Value(nil), prefix...)
	for _, c := range cols {
		want = append(want, full[c])
	}
	got, err := DecodeTuple(data, cols, append([]value.Value(nil), prefix...))
	if err != nil {
		t.Fatalf("cols %v: %v", cols, err)
	}
	if !sameValues(got, want) {
		t.Fatalf("cols %v: got %v, want %v", cols, got, want)
	}
}

func randomRow(rng *rand.Rand) []value.Value {
	row := make([]value.Value, rng.Intn(9))
	for i := range row {
		switch rng.Intn(6) {
		case 0:
			row[i] = value.NewInt(rng.Int63() - rng.Int63())
		case 1:
			row[i] = value.NewFloat(rng.NormFloat64())
		case 2:
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			row[i] = value.NewStr(string(b))
		case 3:
			row[i] = value.NewDate(int64(rng.Intn(20000)))
		case 4:
			row[i] = value.NewBool(rng.Intn(2) == 0)
		default:
			row[i] = value.NewNull()
		}
	}
	return row
}

// Property: for generated tuples and every column subset, decoding the
// subset equals projecting the full decode, and a non-empty dst keeps
// its prefix. A strict prefix of the bytes never satisfies a request
// for every column, and nothing panics on it.
func TestDecodeTupleSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		row := randomRow(rng)
		data := EncodeTuple(row, nil)
		full, err := DecodeTuple(data, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameValues(full, row) {
			t.Fatalf("full decode %v, want %v", full, row)
		}
		for mask := 0; mask < 1<<len(row); mask++ {
			checkSubset(t, data, full, maskCols(uint16(mask), len(row)))
		}
		all := maskCols(1<<len(row)-1, len(row))
		for n := 0; n < len(data); n++ {
			if _, err := DecodeTuple(data[:n], all, nil); err == nil {
				t.Fatalf("row %v cut to %d of %d bytes decoded all %d columns", row, n, len(data), len(row))
			}
			// nil cols: a cut on a column boundary is a shorter valid
			// tuple, anything else an error — either way no panic.
			if part, err := DecodeTuple(data[:n], nil, nil); err == nil && !sameValues(part, row[:len(part)]) {
				t.Fatalf("row %v cut to %d bytes decoded %v", row, n, part)
			}
		}
	}
}

// An empty non-nil column list reads nothing, whatever the bytes: the
// zero-width scan behind count(*).
func TestDecodeTupleZeroWidth(t *testing.T) {
	got, err := DecodeTuple([]byte{250, 1, 2}, []int{}, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v; want no values, no error", got, err)
	}
}

func TestDecodeTupleMissingColumn(t *testing.T) {
	data := EncodeTuple(sampleRow(), nil)
	if _, err := DecodeTuple(data, []int{1, len(sampleRow())}, nil); err == nil {
		t.Fatal("column past the tuple's arity must be an error")
	}
}

// With room in dst, decoding does not allocate, whichever columns are
// wanted: skipped string columns are stepped over, and a wanted one is
// a view of its bytes in the tuple, not a copy.
func TestDecodeTupleNoAllocs(t *testing.T) {
	for _, cols := range [][]int{
		{0, 1, 3, 4, 5}, // everything but the string
		{2},             // the string alone
		nil,             // every column
	} {
		data := EncodeTuple(sampleRow(), nil)
		dst := make([]value.Value, 0, len(sampleRow()))
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeTuple(data, cols, dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("cols %v: %v allocations per decode, want 0", cols, allocs)
		}
		got, err := DecodeTuple(data, cols, dst)
		if err != nil {
			t.Fatal(err)
		}
		// The string aliases the tuple: a change to the tuple's bytes
		// shows through it.
		at := bytes.Index(data, []byte("BRAZIL"))
		data[at] = 'b'
		for _, v := range got {
			if v.T == value.Str && v.S != "bRAZIL" {
				t.Fatalf("cols %v: decoded %q after the tuple changed to bRAZIL: a copy, not a view", cols, v.S)
			}
		}
	}
}

// FuzzDecodeTuple: arbitrary bytes never panic, for any column subset;
// bytes that do decode in full obey the subset contract.
func FuzzDecodeTuple(f *testing.F) {
	f.Add(EncodeTuple(sampleRow(), nil), uint16(0b101101))
	f.Add(EncodeTuple(sampleRow(), nil)[:20], uint16(0xFFFF))
	f.Add([]byte{}, uint16(1))
	f.Add([]byte{byte(value.Str), 255, 255, 'x'}, uint16(3))
	f.Add([]byte{250}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, mask uint16) {
		full, err := DecodeTuple(data, nil, nil)
		if err != nil {
			// Must still not panic on a subset (it may succeed: decoding
			// stops at the last wanted column).
			_, _ = DecodeTuple(data, maskCols(mask, 16), nil)
			return
		}
		checkSubset(t, data, full, maskCols(mask, len(full)))
	})
}
