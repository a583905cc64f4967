package access

import (
	"math/rand"
	"testing"

	"repro/internal/db/storage"
)

// btreeHeight reads the tree's height from its meta page.
func btreeHeight(t *testing.T, bt *BTree) int {
	t.Helper()
	_, h, err := bt.meta()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestPinOneShotScansHoldNothing is the shape bench/probes.go has: a
// value-returning SeekGE (or Lookup) followed by one Next, never
// closed. Ten thousand of each through a 16-frame pool must leave
// nothing pinned after any call — the one-shot scan is the cursor with
// retention off — and must still ask for the same pages (descent +
// leaf) every time.
func TestPinOneShotScansHoldNothing(t *testing.T) {
	const n, probes = 40000, 10000
	m := newPool(t, 2, 16)
	bt, err := CreateBTree(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := CreateHashIndex(m, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		tid := storage.TID{Page: uint32(k)}
		if err := bt.Insert(int64(k), tid); err != nil {
			t.Fatal(err)
		}
		if err := h.Insert(int64(k), tid); err != nil {
			t.Fatal(err)
		}
	}
	height := btreeHeight(t, bt)
	if height < 2 {
		t.Fatalf("tree height %d: the descent has no internal level to hold", height)
	}
	rng := rand.New(rand.NewSource(1))
	hits0, misses0 := m.Stats()
	steps := 0 // seeks that landed past a leaf's last entry: Next asks for the right sibling too
	for i := 0; i < probes; i++ {
		k := rng.Int63n(n)
		sc, err := bt.SeekGE(nil, k)
		if err != nil {
			t.Fatal(err)
		}
		if p := m.PinnedFrames(); p != 0 {
			t.Fatalf("probe %d: one-shot SeekGE left %d frames pinned", i, p)
		}
		before, beforeM := m.Stats()
		got, tid, ok, err := sc.Next(nil)
		if err != nil || !ok || got != k || tid.Page != uint32(k) {
			t.Fatalf("SeekGE(%d).Next = %d,%v,%v,%v", k, got, tid, ok, err)
		}
		after, afterM := m.Stats()
		steps += int(after-before+afterM-beforeM) - 1
		if p := m.PinnedFrames(); p != 0 {
			t.Fatalf("probe %d: Next on a one-shot scan left %d frames pinned", i, p)
		}
	}
	hits1, misses1 := m.Stats()
	// meta + one page per level + the leaf again for Next (+ a sibling
	// now and then): the request count retention must not change.
	if got, want := int(hits1-hits0+misses1-misses0), probes*(height+2)+steps; got != want {
		t.Fatalf("%d page requests for %d one-shot probes of a height-%d tree, want %d", got, probes, height, want)
	}
	for i := 0; i < probes; i++ {
		k := rng.Int63n(n)
		tid, ok, err := h.Lookup(nil, k).Next(nil)
		if err != nil || !ok || tid.Page != uint32(k) {
			t.Fatalf("Lookup(%d).Next = %v,%v,%v", k, tid, ok, err)
		}
		if p := m.PinnedFrames(); p != 0 {
			t.Fatalf("probe %d: Next on a one-shot hash scan left %d frames pinned", i, p)
		}
	}
}

// TestPinCursorRetainsWithinBound pins the retaining cursor's
// contract: it holds at most tree height + 1 pages however it is
// re-seeked and stepped, answers repeat requests itself (the pool sees
// a fraction of the requests a one-shot scan makes for the same
// probes) without changing what is requested, and gives every page
// back in Close — after which it can be seeked again.
func TestPinCursorRetainsWithinBound(t *testing.T) {
	const n, probes = 40000, 5000
	m := newPool(t, 1, 32)
	bt, err := CreateBTree(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if err := bt.Insert(int64(k), storage.TID{Page: uint32(k)}); err != nil {
			t.Fatal(err)
		}
	}
	height := btreeHeight(t, bt)

	// probe runs the same clustered probe sequence (a join whose outer
	// side is nearly sorted), then done, and reports requests and table
	// lookups. (A pin's own hits reach Stats when it lets go.)
	probe := func(seek func(k int64) (*BTreeScan, error), done func()) (requests, lookups uint64) {
		rng := rand.New(rand.NewSource(7))
		h0, m0 := m.Stats()
		l0 := m.Lookups()
		for i := 0; i < probes; i++ {
			k := int64(i*(n/probes)) + rng.Int63n(4)
			sc, err := seek(k)
			if err != nil {
				t.Fatal(err)
			}
			for j := int64(0); j < 3; j++ {
				got, _, ok, err := sc.Next(nil)
				if err != nil || !ok || got != k+j {
					t.Fatalf("probe %d: entry %d after SeekGE(%d) = %d,%v,%v", i, j, k, got, ok, err)
				}
			}
			if p := m.PinnedFrames(); p > height+1 {
				t.Fatalf("probe %d: %d frames pinned, a cursor over a height-%d tree may hold %d", i, p, height, height+1)
			}
		}
		done()
		h1, m1 := m.Stats()
		return h1 - h0 + m1 - m0, m.Lookups() - l0
	}

	oneShotReq, oneShotLookups := probe(func(k int64) (*BTreeScan, error) {
		sc, err := bt.SeekGE(nil, k)
		return &sc, err
	}, func() {})
	if oneShotReq != oneShotLookups {
		t.Fatalf("one-shot scans made %d requests but %d table lookups: something was retained", oneShotReq, oneShotLookups)
	}

	cur := bt.Cursor()
	curReq, curLookups := probe(func(k int64) (*BTreeScan, error) {
		return &cur, cur.SeekGE(nil, k)
	}, func() {
		if p := m.PinnedFrames(); p != height+1 {
			t.Fatalf("an open cursor over a height-%d tree holds %d pages, want %d (meta + one per level)", height, p, height+1)
		}
		cur.Close()
		if p := m.PinnedFrames(); p != 0 {
			t.Fatalf("Close left %d frames pinned", p)
		}
	})
	if curReq != oneShotReq {
		t.Fatalf("the cursor made %d page requests, one-shot scans %d: retention changed what is asked for", curReq, oneShotReq)
	}
	if curLookups*4 > oneShotLookups {
		t.Fatalf("the cursor made %d table lookups against %d for one-shot scans: pages are not being retained", curLookups, oneShotLookups)
	}

	// A closed cursor is unpositioned and can be seeked again.
	if _, _, ok, err := cur.Next(nil); ok || err != nil {
		t.Fatalf("Next on a closed cursor = %v,%v", ok, err)
	}
	if err := cur.SeekFirst(nil); err != nil {
		t.Fatal(err)
	}
	if k, _, ok, err := cur.Next(nil); err != nil || !ok || k != 0 {
		t.Fatalf("SeekFirst().Next = %d,%v,%v", k, ok, err)
	}
	cur.Close()
	cur.Close()
	if p := m.PinnedFrames(); p != 0 {
		t.Fatalf("%d frames pinned after the last Close", p)
	}
}

// TestPinHashScanKeepsItsBucketPage: a caller-owned HashScan keeps one
// page between Next calls and re-seeks, Close gives it back.
func TestPinHashScanKeepsItsBucketPage(t *testing.T) {
	m := newPool(t, 1, 16)
	h, err := CreateHashIndex(m, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000 // long overflow chains
	for k := 0; k < n; k++ {
		if err := h.Insert(int64(k%100), storage.TID{Page: uint32(k)}); err != nil {
			t.Fatal(err)
		}
	}
	var s HashScan
	for _, key := range []int64{5, 5, 42} {
		h.Seek(nil, key, &s)
		matches := 0
		for {
			_, ok, err := s.Next(nil)
			if err != nil {
				t.Fatal(err)
			}
			if p := m.PinnedFrames(); p > 1 {
				t.Fatalf("a hash scan holds %d pages", p)
			}
			if !ok {
				break
			}
			matches++
		}
		if matches != n/100 {
			t.Fatalf("key %d: %d matches, want %d", key, matches, n/100)
		}
	}
	if p := m.PinnedFrames(); p != 1 {
		t.Fatalf("an open hash scan holds %d pages, want its last chain page", p)
	}
	s.Close()
	s.Close()
	if p := m.PinnedFrames(); p != 0 {
		t.Fatalf("Close left %d frames pinned", p)
	}
}
