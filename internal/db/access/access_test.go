package access

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/db/buffer"
	"repro/internal/db/storage"
	"repro/internal/db/value"
)

func newPool(t *testing.T, files, frames int) *buffer.Manager {
	t.Helper()
	return buffer.New(storage.NewStore(files), frames)
}

func row(vals ...int64) []value.Value {
	out := make([]value.Value, len(vals))
	for i, v := range vals {
		out[i] = value.NewInt(v)
	}
	return out
}

func TestHeapInsertFetchScan(t *testing.T) {
	m := newPool(t, 1, 8)
	h := NewHeap(m, 0)
	var tids []storage.TID
	const n = 500
	for i := 0; i < n; i++ {
		tid, err := h.Insert(row(int64(i), int64(i*7)), nil)
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	// Fetch by TID, through one pin the caller owns.
	var pin buffer.Pin
	for i, tid := range tids {
		vals, err := h.Fetch(nil, &pin, tid, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if vals[0].I != int64(i) || vals[1].I != int64(i*7) {
			t.Fatalf("fetch %d got %v", i, vals)
		}
	}
	if m.PinnedFrames() != 1 {
		t.Fatalf("a fetch pin holds one page, pool has %d pinned", m.PinnedFrames())
	}
	pin.Release()
	// Sequential scan sees all rows in physical order.
	scan := h.BeginScan()
	count := 0
	for {
		vals, tid, ok, err := scan.Next(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if vals[0].I != int64(count) || tid != tids[count] {
			t.Fatalf("scan row %d mismatch", count)
		}
		count++
	}
	if count != n {
		t.Fatalf("scan saw %d rows, want %d", count, n)
	}
	if m.PinnedFrames() != 0 {
		t.Fatal("scan leaked pins")
	}
}

func TestHeapScanEmpty(t *testing.T) {
	m := newPool(t, 1, 4)
	h := NewHeap(m, 0)
	s := h.BeginScan()
	if _, _, ok, err := s.Next(nil, nil); ok || err != nil {
		t.Fatalf("empty scan: ok=%v err=%v", ok, err)
	}
}

func TestHeapScanCloseReleasesPin(t *testing.T) {
	m := newPool(t, 1, 4)
	h := NewHeap(m, 0)
	for i := 0; i < 100; i++ {
		if _, err := h.Insert(row(int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	s := h.BeginScan()
	if _, _, ok, _ := s.Next(nil, nil); !ok {
		t.Fatal("want a row")
	}
	s.Close()
	if m.PinnedFrames() != 0 {
		t.Fatal("Close leaked a pin")
	}
	if _, _, ok, _ := s.Next(nil, nil); ok {
		t.Fatal("Next after Close must return false")
	}
}

func TestHeapRejectsHugeTuple(t *testing.T) {
	m := newPool(t, 1, 4)
	h := NewHeap(m, 0)
	huge := []value.Value{value.NewStr(string(make([]byte, storage.PageBytes/2)))}
	if _, err := h.Insert(huge, nil); err == nil {
		t.Fatal("oversized tuple must be rejected")
	}
}

func TestBTreeInsertAndScanSorted(t *testing.T) {
	m := newPool(t, 1, 32)
	bt, err := CreateBTree(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, k := range perm {
		if err := bt.Insert(int64(k), storage.TID{Page: uint32(k), Slot: 0}); err != nil {
			t.Fatal(err)
		}
	}
	s := bt.Cursor()
	if err := s.SeekFirst(nil); err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	count := 0
	for {
		k, tid, ok, err := s.Next(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if k <= prev {
			t.Fatalf("keys out of order: %d after %d", k, prev)
		}
		if tid.Page != uint32(k) {
			t.Fatalf("tid mismatch for key %d", k)
		}
		prev = k
		count++
	}
	s.Close()
	if count != n {
		t.Fatalf("scan saw %d keys, want %d", count, n)
	}
	if m.PinnedFrames() != 0 {
		t.Fatal("btree leaked pins")
	}
}

func TestBTreeSeekRange(t *testing.T) {
	m := newPool(t, 1, 32)
	bt, err := CreateBTree(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 1000; k += 2 { // even keys only
		if err := bt.Insert(int64(k), storage.TID{Page: uint32(k)}); err != nil {
			t.Fatal(err)
		}
	}
	// Seek to odd key 501: first result must be 502.
	s, err := bt.SeekGE(nil, 501)
	if err != nil {
		t.Fatal(err)
	}
	k, _, ok, err := s.Next(nil)
	if err != nil || !ok || k != 502 {
		t.Fatalf("Seek(501).Next() = %d,%v,%v; want 502", k, ok, err)
	}
	// Seek beyond the end.
	s, err = bt.SeekGE(nil, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := s.Next(nil); ok {
		t.Fatal("seek past end must be empty")
	}
}

func TestBTreeDuplicateKeys(t *testing.T) {
	m := newPool(t, 1, 64)
	bt, err := CreateBTree(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 300 duplicates of each of 10 keys: forces splits among dups.
	for rep := 0; rep < 300; rep++ {
		for k := 0; k < 10; k++ {
			tid := storage.TID{Page: uint32(rep), Slot: uint16(k)}
			if err := bt.Insert(int64(k), tid); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := bt.SeekGE(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		k, _, ok, err := s.Next(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || k != 5 {
			break
		}
		count++
	}
	if count != 300 {
		t.Fatalf("found %d duplicates of key 5, want 300", count)
	}
}

// Property: a B-tree agrees with a sorted reference model on random
// key sets.
func TestBTreeMatchesModel(t *testing.T) {
	f := func(keys []int16) bool {
		m := newPool(t, 1, 64)
		bt, err := CreateBTree(m, 0)
		if err != nil {
			return false
		}
		for i, k := range keys {
			if err := bt.Insert(int64(k), storage.TID{Page: uint32(i)}); err != nil {
				return false
			}
		}
		want := append([]int16(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		s := bt.Cursor()
		defer s.Close()
		if err := s.SeekFirst(nil); err != nil {
			return false
		}
		for _, wk := range want {
			k, _, ok, err := s.Next(nil)
			if err != nil || !ok || k != int64(wk) {
				return false
			}
		}
		_, _, ok, _ := s.Next(nil)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCreateBTreeOnNonEmptyFileFails(t *testing.T) {
	m := newPool(t, 1, 8)
	if _, err := CreateBTree(m, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateBTree(m, 0); err == nil {
		t.Fatal("second create must fail")
	}
}

func TestHashIndexLookup(t *testing.T) {
	m := newPool(t, 1, 64)
	h, err := CreateHashIndex(m, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for k := 0; k < n; k++ {
		if err := h.Insert(int64(k), storage.TID{Page: uint32(k)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int64{0, 1, 999, 1999} {
		s := h.Lookup(nil, k)
		tid, ok, err := s.Next(nil)
		if err != nil || !ok || tid.Page != uint32(k) {
			t.Fatalf("lookup %d = %v,%v,%v", k, tid, ok, err)
		}
		if _, ok, _ := s.Next(nil); ok {
			t.Fatalf("key %d should be unique", k)
		}
	}
	// Missing key.
	if _, ok, _ := h.Lookup(nil, 123456).Next(nil); ok {
		t.Fatal("missing key must not be found")
	}
	if m.PinnedFrames() != 0 {
		t.Fatal("hash index leaked pins")
	}
}

func TestHashIndexDuplicates(t *testing.T) {
	m := newPool(t, 1, 64)
	h, err := CreateHashIndex(m, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 1500; rep++ { // force overflow chains
		if err := h.Insert(7, storage.TID{Page: uint32(rep)}); err != nil {
			t.Fatal(err)
		}
	}
	s := h.Lookup(nil, 7)
	seen := map[uint32]bool{}
	for {
		tid, ok, err := s.Next(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if seen[tid.Page] {
			t.Fatalf("duplicate tid %v", tid)
		}
		seen[tid.Page] = true
	}
	if len(seen) != 1500 {
		t.Fatalf("found %d entries, want 1500", len(seen))
	}
}

// Property: hash index finds exactly the inserted TIDs for every key.
func TestHashIndexMatchesModel(t *testing.T) {
	f := func(keys []uint8) bool {
		m := newPool(t, 1, 64)
		h, err := CreateHashIndex(m, 0, 8)
		if err != nil {
			return false
		}
		model := make(map[int64][]uint32)
		for i, k := range keys {
			if err := h.Insert(int64(k), storage.TID{Page: uint32(i)}); err != nil {
				return false
			}
			model[int64(k)] = append(model[int64(k)], uint32(i))
		}
		for k, want := range model {
			s := h.Lookup(nil, k)
			var got []uint32
			for {
				tid, ok, err := s.Next(nil)
				if err != nil {
					return false
				}
				if !ok {
					break
				}
				got = append(got, tid.Page)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenHashIndex(t *testing.T) {
	m := newPool(t, 1, 32)
	h, err := CreateHashIndex(m, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Insert(42, storage.TID{Page: 9}); err != nil {
		t.Fatal(err)
	}
	h2, err := OpenHashIndex(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	tid, ok, err := h2.Lookup(nil, 42).Next(nil)
	if err != nil || !ok || tid.Page != 9 {
		t.Fatalf("reopened lookup = %v,%v,%v", tid, ok, err)
	}
}

func TestCreateHashIndexValidation(t *testing.T) {
	m := newPool(t, 1, 8)
	if _, err := CreateHashIndex(m, 0, 0); err == nil {
		t.Fatal("zero buckets must fail")
	}
	if _, err := CreateHashIndex(m, 0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateHashIndex(m, 0, 4); err == nil {
		t.Fatal("create on non-empty file must fail")
	}
}
