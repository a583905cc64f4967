package storage

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/db/value"
)

func TestPageAddAndGet(t *testing.T) {
	p := NewPage()
	if p.NumSlots() != 0 {
		t.Fatal("new page must be empty")
	}
	s1, ok := p.AddTuple([]byte("hello"))
	if !ok || s1 != 0 {
		t.Fatalf("first AddTuple = (%d,%v)", s1, ok)
	}
	s2, ok := p.AddTuple([]byte("world!"))
	if !ok || s2 != 1 {
		t.Fatalf("second AddTuple = (%d,%v)", s2, ok)
	}
	got, err := p.Tuple(0)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Tuple(0) = %q, %v", got, err)
	}
	got, err = p.Tuple(1)
	if err != nil || string(got) != "world!" {
		t.Fatalf("Tuple(1) = %q, %v", got, err)
	}
	if _, err := p.Tuple(2); err == nil {
		t.Fatal("Tuple(2) must fail")
	}
	if _, err := p.Tuple(-1); err == nil {
		t.Fatal("Tuple(-1) must fail")
	}
}

func TestPageFillsUp(t *testing.T) {
	p := NewPage()
	data := make([]byte, 100)
	count := 0
	for {
		if _, ok := p.AddTuple(data); !ok {
			break
		}
		count++
	}
	// 8192 - 6 header; each tuple needs 100 + 4 slot bytes.
	want := (PageBytes - headerBytes) / (100 + slotBytes)
	if count != want {
		t.Fatalf("page held %d tuples, want %d", count, want)
	}
	// All tuples still readable after fill.
	for i := 0; i < count; i++ {
		if _, err := p.Tuple(i); err != nil {
			t.Fatalf("Tuple(%d): %v", i, err)
		}
	}
}

func TestPageFreeSpaceNeverNegative(t *testing.T) {
	p := NewPage()
	big := make([]byte, PageBytes/2)
	p.AddTuple(big)
	p.AddTuple(big) // fails
	if p.FreeSpace() < 0 {
		t.Fatal("free space must not go negative")
	}
}

func sampleRow() []value.Value {
	return []value.Value{
		value.NewInt(42),
		value.NewFloat(3.25),
		value.NewStr("BRAZIL"),
		value.NewDate(value.MakeDate(1994, 7, 15)),
		value.NewBool(true),
		value.NewNull(),
	}
}

func TestTupleCodecRoundTrip(t *testing.T) {
	row := sampleRow()
	enc := EncodeTuple(row, nil)
	dec, err := DecodeTuple(enc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(row) {
		t.Fatalf("arity %d, want %d", len(dec), len(row))
	}
	for i := range row {
		if row[i].T != dec[i].T {
			t.Fatalf("col %d type %v, want %v", i, dec[i].T, row[i].T)
		}
		if row[i].T != value.Null && value.Compare(row[i], dec[i]) != 0 {
			t.Fatalf("col %d value %v, want %v", i, dec[i], row[i])
		}
	}
}

// Property: encode/decode round-trips arbitrary int/float/string rows.
func TestTupleCodecProperty(t *testing.T) {
	f := func(i int64, fv float64, s string) bool {
		if math.IsNaN(fv) {
			fv = 0
		}
		if len(s) > 60000 {
			s = s[:60000]
		}
		row := []value.Value{value.NewInt(i), value.NewFloat(fv), value.NewStr(s)}
		dec, err := DecodeTuple(EncodeTuple(row, nil), nil, nil)
		if err != nil || len(dec) != 3 {
			return false
		}
		return dec[0].I == i && dec[1].F == fv && dec[2].S == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	bad := [][]byte{
		{byte(value.Int)},                    // truncated int
		{byte(value.Str), 10, 0, 'a'},        // truncated string
		{byte(value.Float), 1, 2, 3},         // truncated float
		{byte(value.Bool)},                   // truncated bool
		{250},                                // bad type byte
		append([]byte{byte(value.Str)}, 255), // truncated length
	}
	for i, b := range bad {
		if _, err := DecodeTuple(b, nil, nil); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestStoreReadWrite(t *testing.T) {
	s := NewStore(2)
	if len(s.files) != 2 || s.NumPages(0) != 0 {
		t.Fatal("bad initial store")
	}
	pn, err := s.AllocPage(0)
	if err != nil || pn != 0 {
		t.Fatalf("AllocPage = %d, %v", pn, err)
	}
	p := NewPage()
	p.AddTuple([]byte("data"))
	if err := s.WritePage(0, 0, p); err != nil {
		t.Fatal(err)
	}
	dst := NewPage()
	if err := s.ReadPage(0, 0, dst); err != nil {
		t.Fatal(err)
	}
	got, err := dst.Tuple(0)
	if err != nil || string(got) != "data" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if s.Reads() != 1 {
		t.Fatalf("reads = %d, want 1", s.Reads())
	}
}

func TestStoreBoundsChecks(t *testing.T) {
	s := NewStore(1)
	p := NewPage()
	if err := s.ReadPage(0, 0, p); err == nil {
		t.Fatal("read of missing page must fail")
	}
	if err := s.ReadPage(5, 0, p); err == nil {
		t.Fatal("read of missing file must fail")
	}
	if err := s.WritePage(0, 3, p); err == nil {
		t.Fatal("write of missing page must fail")
	}
	if _, err := s.AllocPage(9); err == nil {
		t.Fatal("alloc in missing file must fail")
	}
	s.EnsureFiles(10)
	if _, err := s.AllocPage(9); err != nil {
		t.Fatal("alloc after EnsureFiles must work")
	}
}

func TestTIDLess(t *testing.T) {
	a := TID{Page: 1, Slot: 5}
	b := TID{Page: 1, Slot: 6}
	c := TID{Page: 2, Slot: 0}
	if !a.Less(b) || !b.Less(c) || c.Less(a) || a.Less(a) {
		t.Fatal("TID ordering broken")
	}
}
