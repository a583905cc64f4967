package buffer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/db/probe"
	"repro/internal/db/storage"
)

// TestPoolLayoutKeepsCacheLinesApart pins the padding: a frame's pin
// count and hit counts must not share a cache line with its
// neighbour's.
func TestPoolLayoutKeepsCacheLinesApart(t *testing.T) {
	if typ := reflect.TypeOf(frame{}); typ.Size()%64 != 0 {
		t.Errorf("%s is %d bytes, not a whole number of 64-byte cache lines", typ.Name(), typ.Size())
	}
}

// newTaggedStore returns a disk-backed store of one file whose pages
// carry their own page number in their first eight bytes, and a switch
// that makes one WritePage in failEvery fail while it is on.
func newTaggedStore(t testing.TB, pages, failEvery int) (*storage.Store, *atomic.Bool) {
	t.Helper()
	st, err := storage.OpenDiskStore(t.TempDir(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := storage.NewPage()
	for i := 0; i < pages; i++ {
		pn, err := st.AllocPage(0)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(p, uint64(pn))
		if err := st.WritePage(0, pn, p); err != nil {
			t.Fatal(err)
		}
	}
	var failing atomic.Bool
	var writes atomic.Uint64
	st.SetSpill(func(file, page int, data []byte) error {
		if failing.Load() && writes.Add(1)%uint64(failEvery) == 0 {
			return errInjectedWrite
		}
		return nil
	})
	return st, &failing
}

var errInjectedWrite = errors.New("injected write failure")

// promoteGeneration checkpoints st's pages as generation 1 and makes
// it the store's mapped base, closing the store when the test ends.
func promoteGeneration(t testing.TB, st *storage.Store) {
	t.Helper()
	if err := st.WriteGeneration(1); err != nil {
		t.Fatal(err)
	}
	if err := st.PromoteGeneration(1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
}

func checkTag(p storage.Page, page int) error {
	if got := binary.LittleEndian.Uint64(p); got != uint64(page) {
		return fmt.Errorf("page %d holds the bytes of page %d: its frame was recycled under a pin", page, got)
	}
	return nil
}

// TestPoolStress drives a pool an eighth the size of its file from
// four goroutines mixing Get, GetForWrite, Release (clean, and dirty
// after GetForWrite), retained pins and FlushAll. While some storage
// writes fail it checks that nothing a goroutine has pinned is ever
// recycled (every page carries its page number) and that only the
// injected error surfaces; once the writes work again and the pool is
// flushed it checks the accounting exactly: every request is one hit
// or one miss, and every miss is one storage read. It runs over a
// store whose pages are all in the overlay, so every miss copies, and
// over a promoted generation, where a miss keeps a view of the mapping
// until a writer asks for the page.
func TestPoolStress(t *testing.T) {
	t.Run("overlay", func(t *testing.T) { poolStress(t, false) })
	t.Run("views", func(t *testing.T) { poolStress(t, true) })
}

func poolStress(t *testing.T, promote bool) {
	const pages, frames, goroutines, iters = 256, 32, 4, 4000
	st, failing := newTaggedStore(t, pages, 5)
	if promote {
		promoteGeneration(t, st)
	}
	m := New(st, frames)

	// round runs the mix on every goroutine and returns how many
	// requests succeeded and failed.
	round := func(seed int64) (ok, failed uint64) {
		var wg sync.WaitGroup
		var nOK, nFailed atomic.Uint64
		errs := make([]error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(g)))
				var pin Pin
				defer pin.Release()
				held := -1 // page the pin holds
				count := func(err error) bool {
					if err == nil {
						nOK.Add(1)
						return true
					}
					nFailed.Add(1)
					if !errors.Is(err, errInjectedWrite) {
						errs[g] = err
					}
					return false
				}
				for i := 0; i < iters && errs[g] == nil; i++ {
					switch op := rng.Intn(16); {
					case op == 0:
						if err := m.FlushAll(); err != nil && !errors.Is(err, errInjectedWrite) {
							errs[g] = err
						}
					case op < 8:
						// A scan's locality: stay on the held page, or move
						// to one nearby.
						page := held
						if page < 0 || rng.Intn(4) == 0 {
							page = rng.Intn(pages)
						}
						p, err := m.Repin(nil, &pin, 0, page)
						if !count(err) {
							held = -1
							continue
						}
						held = page
						errs[g] = checkTag(p, page)
					default:
						page := rng.Intn(pages)
						dirty := rng.Intn(3) == 0
						var b Buf
						var err error
						if dirty {
							b, err = m.GetForWrite(0, page)
						} else {
							b, err = m.Get(nil, 0, page)
						}
						if !count(err) {
							continue
						}
						if err := checkTag(b.Page, page); err != nil {
							errs[g] = err
						}
						if dirty && &b.Page[0] != &b.f.own[0] {
							errs[g] = fmt.Errorf("GetForWrite of page %d returned a view, not the frame's own buffer", page)
						}
						m.Release(b, dirty)
					}
					// Whatever the other goroutines evicted meanwhile, the
					// retained page is still the retained page.
					if held >= 0 && errs[g] == nil {
						p, err := m.Repin(nil, &pin, 0, held)
						count(err)
						if err == nil {
							errs[g] = checkTag(p, held)
						}
					}
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if n := m.PinnedFrames(); n != 0 {
			t.Fatalf("%d frames still pinned after every goroutine released", n)
		}
		return nOK.Load(), nFailed.Load()
	}

	failing.Store(true)
	ok, failed := round(1)
	hits, misses := m.Stats()
	if failed == 0 {
		t.Fatal("no request failed: the injected write failures never reached an evict-flush")
	}
	// A request that fails may or may not have been counted as a miss
	// (it fails before or after its claim), so failures give a range.
	if hits+misses < ok || hits+misses > ok+failed {
		t.Fatalf("hits %d + misses %d = %d with %d requests served and %d failed", hits, misses, hits+misses, ok, failed)
	}

	failing.Store(false)
	if err := m.FlushAll(); err != nil {
		t.Fatalf("FlushAll with working storage: %v", err)
	}
	h0, m0 := m.Stats()
	r0 := st.Reads()
	ok, failed = round(2)
	h1, m1 := m.Stats()
	if failed != 0 {
		t.Fatalf("%d requests failed with working storage", failed)
	}
	if got := (h1 - h0) + (m1 - m0); got != ok {
		t.Fatalf("hits %d + misses %d = %d, want the %d requests made", h1-h0, m1-m0, got, ok)
	}
	if reads := st.Reads() - r0; reads != m1-m0 {
		t.Fatalf("%d storage reads for %d misses", reads, m1-m0)
	}
	if m1-m0 < pages/4 {
		t.Fatalf("%d misses: implausibly few for a %d-frame pool over %d pages", m1-m0, frames, pages)
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// TestClaimedFrameRefusesPin pins the claim protocol on one frame: the
// clock sweep claims an unpinned frame by swapping its pin count to the
// claimed sentinel, a pin tried on it then fails and leaves the count
// as it was, and a racing pin whose +1 lands before the claimant lifts
// the count and is taken back after does not eat the claimant's pin.
func TestClaimedFrameRefusesPin(t *testing.T) {
	_, m := newEnv(t, 1, 2)
	b, err := m.Get(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Release(b, false)

	m.mu.Lock()
	f, _, err := m.evict(nil)
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.lookup(keyOf(0, 0)); got != nil {
		t.Fatal("the claimed victim is still published under its old page")
	}
	if f.tryPin() {
		t.Fatal("a claimed frame took a pin")
	}
	if got := f.pins.Load(); got != claimed {
		t.Fatalf("a refused pin left the count at %d, want the sentinel %d", got, int32(claimed))
	}
	if f.claim() {
		t.Fatal("a claimed frame was claimed again")
	}

	f.pins.Add(1)  // a racing tryPin's add, not yet taken back
	f.lift()       // the claimant lifts the count to its own pin
	f.pins.Add(-1) // the racing pin saw a count ≤ 0 and backs off
	if got := f.pins.Load(); got != 1 {
		t.Fatalf("claimant's count is %d after a racing pin, want 1", got)
	}
	if !f.tryPin() {
		t.Fatal("a pin on a frame the claimant lifted was refused")
	}
	if got := f.pins.Load(); got != 2 {
		t.Fatalf("count is %d, want the claimant's pin and one more", got)
	}
}

// TestLockFreeHitsAccountExactly races four goroutines over a pool of
// four frames and sixteen tagged pages, mixing Get and Repin so that
// hits, misses, evictions and stale table reads interleave: every page
// handed out must carry its own page number, and once the goroutines
// are done the counts must be exact — every request one hit or one
// miss, every miss one storage read, and every request a Pin did not
// answer itself one page-table lookup. A goroutine holds one page at a
// time, so some frame is always unpinned, and with as many goroutines
// as frames re-setting reference bits no miss may fail: the sweep stops
// honouring them after 2n steps and gives up only on a full pass of
// pinned frames.
func TestLockFreeHitsAccountExactly(t *testing.T) {
	const pages, frames, goroutines, iters = 16, 4, 4, 5000
	st, _ := newTaggedStore(t, pages, 1)
	m := New(st, frames)
	var requests, pinAnswered atomic.Uint64
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var pin Pin
			defer pin.Release()
			held := -1
			for i := 0; i < iters && errs[g] == nil; i++ {
				page := rng.Intn(pages)
				requests.Add(1)
				if rng.Intn(2) == 0 {
					pin.Release()
					held = -1
					b, err := m.Get(nil, 0, page)
					if err != nil {
						errs[g] = err
						break
					}
					errs[g] = checkTag(b.Page, page)
					m.Release(b, false)
					continue
				}
				if rng.Intn(2) == 0 && held >= 0 {
					page = held
				}
				if page == held {
					pinAnswered.Add(1)
				}
				p, err := m.Repin(nil, &pin, 0, page)
				if err != nil {
					errs[g] = err
					break
				}
				held = page
				errs[g] = checkTag(p, page)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := m.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}
	hits, misses := m.Stats()
	if hits+misses != requests.Load() {
		t.Fatalf("hits %d + misses %d = %d, want the %d requests made", hits, misses, hits+misses, requests.Load())
	}
	if reads := st.Reads(); reads != misses {
		t.Fatalf("%d storage reads for %d misses", reads, misses)
	}
	if got, want := m.Lookups(), requests.Load()-pinAnswered.Load(); got != want {
		t.Fatalf("%d table lookups, want %d (requests %d less %d answered by a Pin)", got, want, requests.Load(), pinAnswered.Load())
	}
	if misses < pages {
		t.Fatalf("%d misses: implausibly few for %d frames over %d pages", misses, frames, pages)
	}
}

// TestMissDoesNotAllocate cycles through four times more pages than
// the pool has frames, over a checkpointed disk store, so that every
// request is a miss that evicts a clean page and views the new one in
// the mapped generation: none of that may allocate. (One miss in
// `frames` sweeps the whole clock and outgrows its event buffer; spread
// over the run that is well under one allocation per miss.)
func TestMissDoesNotAllocate(t *testing.T) {
	const frames, pages = 16, 64
	st, _ := newTaggedStore(t, pages, 1)
	promoteGeneration(t, st)
	m := New(st, frames)
	page := 0
	perMiss := testing.AllocsPerRun(4*pages, func() {
		b, err := m.Get(nil, 0, page)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkTag(b.Page, page); err != nil {
			t.Fatal(err)
		}
		m.Release(b, false)
		page = (page + 1) % pages
	})
	if hits, misses := m.Stats(); hits != 0 || misses != 4*pages+1 {
		t.Fatalf("hits/misses = %d/%d, want 0/%d: the cycle was meant to miss every time", hits, misses, 4*pages+1)
	}
	if perMiss != 0 {
		t.Fatalf("%v allocations per buffer miss, want 0", perMiss)
	}
}

// TestMissViewsTheGeneration pins what a miss on a checkpointed page
// costs: the frame shares memory with the store's view of the page —
// nothing was copied — until a writer asks for the page. The writer
// then gets a copy of the frame's own, its write lands there and is
// what later readers see, and the generation is untouched until the
// page is written back. Every miss is still one storage read.
func TestMissViewsTheGeneration(t *testing.T) {
	st, _ := newTaggedStore(t, 4, 1)
	promoteGeneration(t, st)
	m := New(st, 2)
	ownReads := uint64(0) // the test's own reads of the store
	view := func(page int) storage.Page {
		t.Helper()
		ownReads++
		p, err := st.ReadView(0, page, storage.NewPage())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if v := view(1); cap(v) != storage.PageBytes {
		t.Fatalf("a view has capacity %d, want %d: appending to it would run into the next page", cap(v), storage.PageBytes)
	}

	b, err := m.Get(nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if &b.Page[0] != &view(1)[0] {
		t.Fatal("the miss copied the page: the frame does not share memory with the store's view")
	}
	m.Release(b, false)

	w, err := m.GetForWrite(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if &w.Page[0] == &view(1)[0] {
		t.Fatal("GetForWrite handed out the store's read-only view")
	}
	if err := checkTag(w.Page, 1); err != nil {
		t.Fatal(err)
	}
	w.Page[8] = 0xAB
	m.Release(w, true)
	if b, err = m.Get(nil, 0, 1); err != nil {
		t.Fatal(err)
	}
	if b.Page[8] != 0xAB || &b.Page[0] != &w.Page[0] {
		t.Fatal("a reader after the write does not see the frame's copy")
	}
	m.Release(b, false)
	if view(1)[8] != 0 {
		t.Fatal("the write reached the store before the page was written back")
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if view(1)[8] != 0xAB {
		t.Fatal("FlushAll did not write the frame's copy back to the store")
	}

	// Misses on a page written since the checkpoint copy it out of the
	// overlay; either way a miss is one read.
	for _, page := range []int{2, 3, 1, 0} {
		if b, err = m.Get(nil, 0, page); err != nil {
			t.Fatal(err)
		}
		m.Release(b, false)
	}
	if _, misses := m.Stats(); st.Reads()-ownReads != misses {
		t.Fatalf("%d storage reads for %d misses", st.Reads()-ownReads, misses)
	}
}

// TestDirtyReleaseOfReadBufPanics: a Buf from Get may be a view of the
// read-only mapping, so releasing it dirty is a bug in the caller, and
// the pool says so as it does for a bad release.
func TestDirtyReleaseOfReadBufPanics(t *testing.T) {
	st, _ := newTaggedStore(t, 1, 1)
	promoteGeneration(t, st)
	m := New(st, 2)
	b, err := m.Get(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dirty release of a Buf from Get must panic")
		}
	}()
	m.Release(b, true)
}

// TestPoolFailedEvictFlushKeepsThePage walks the one miss path that
// touches three frames' worth of state: an eviction whose flush fails
// while another session is waiting on that flush to re-read the page.
// The evictor's claim fails and its frame goes back to the dirty page
// it held; the waiter's own claim — in another frame — fails too
// rather than read stale bytes; nothing stays pinned, and the page is
// still in the pool to be hit.
func TestPoolFailedEvictFlushKeepsThePage(t *testing.T) {
	st, failing := newTaggedStore(t, 3, 1)
	m := New(st, 2)
	inFlush := make(chan struct{})
	releaseFlush := make(chan struct{})
	m.testEvictFlushHook = func() {
		close(inFlush)
		<-releaseFlush
	}
	// Frame 0: page 0, dirtied with a byte only the pool has. Frame 1:
	// page 1, clean. The next miss evicts page 0.
	b, err := m.GetForWrite(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Page[8] = 0xAB
	m.Release(b, true)
	if b, err = m.Get(nil, 0, 1); err != nil {
		t.Fatal(err)
	}
	m.Release(b, false)
	failing.Store(true)

	get := func(page int) chan error {
		done := make(chan error, 1)
		go func() {
			b, err := m.Get(nil, 0, page)
			if err == nil {
				m.Release(b, false)
			}
			done <- err
		}()
		return done
	}
	evictor := get(2)
	<-inFlush // page 0 is unmapped, its flush parked and about to fail
	rereader := get(0)
	select {
	case err := <-rereader:
		t.Fatalf("re-read of page 0 finished while its flush was in flight (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(releaseFlush)
	if err := <-evictor; !errors.Is(err, errInjectedWrite) {
		t.Fatalf("evictor: %v, want the injected write failure", err)
	}
	if err := <-rereader; !errors.Is(err, errInjectedWrite) {
		t.Fatalf("re-reader: %v, want the flush's failure, not stale bytes", err)
	}
	if n := m.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames pinned after both claims failed", n)
	}

	m.testEvictFlushHook = nil
	failing.Store(false)
	h0, m0 := m.Stats()
	if b, err = m.Get(nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := checkTag(b.Page, 0); err != nil || b.Page[8] != 0xAB {
		t.Fatalf("page 0 after the failed flush: tag %v, byte %#x, want the dirty bytes back", err, b.Page[8])
	}
	m.Release(b, false)
	if h1, m1 := m.Stats(); h1-h0 != 1 || m1 != m0 {
		t.Fatalf("re-reading the restored page: %d hits, %d misses, want a hit", h1-h0, m1-m0)
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// reentrantGetTracer calls back into the pool for the very page being
// requested on every emit: an emit issued while any lock that request
// needs is held deadlocks.
type reentrantGetTracer struct {
	m      *Manager
	page   int
	inside bool
	events []probe.ID
}

func (t *reentrantGetTracer) Emit(id probe.ID) {
	t.events = append(t.events, id)
	if t.inside {
		return
	}
	t.inside = true
	defer func() { t.inside = false }()
	if b, err := t.m.Get(t, 0, t.page); err == nil {
		t.m.Release(b, false)
	}
}

// TestPoolHitReentersFromTracer is TestHitPathEmitsOutsideLatch for the
// page itself: a tracer that re-enters Get for the same page — the
// same table entry and frame — on every event completes, from a plain
// Get and from a Pin.
func TestPoolHitReentersFromTracer(t *testing.T) {
	_, m := newEnv(t, 4, 2)
	b, err := m.Get(nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Release(b, false)

	tr := &reentrantGetTracer{m: m, page: 1}
	done := make(chan error, 1)
	go func() {
		b, err := m.Get(tr, 0, 1)
		if err == nil {
			m.Release(b, false)
			var pin Pin
			for i := 0; i < 2 && err == nil; i++ {
				_, err = m.Repin(tr, &pin, 0, 1)
			}
			pin.Release()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hit-path Get deadlocked: tracer emission runs under a lock the request needs")
	}
	// Three requests, each three events, each event re-entering for
	// three more.
	if want := 3 * 3 * 4; len(tr.events) != want {
		t.Fatalf("%d events, want %d", len(tr.events), want)
	}
	if n := m.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames left pinned", n)
	}
}

// TestPinAnswersRepeatRequestsItself pins the retained pin's contract:
// a request for the page it holds emits the hit events and counts as a
// hit but never reaches the page table; a request for another page
// lets the held one go; Release is idempotent and folds the count in.
func TestPinAnswersRepeatRequestsItself(t *testing.T) {
	_, m := newEnv(t, 4, 3)
	tr := &eventTracer{}
	var pin Pin
	pin.Release() // the zero Pin holds nothing

	p, err := m.Repin(tr, &pin, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if raw, err := p.Tuple(0); err != nil || raw[0] != 0 {
		t.Fatalf("page 0 contents wrong: %v %v", raw, err)
	}
	lookups := m.Lookups()
	tr.events = nil
	for i := 0; i < 5; i++ {
		again, err := m.Repin(tr, &pin, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if &again[0] != &p[0] {
			t.Fatal("a repeat request returned another frame")
		}
	}
	if got := m.Lookups(); got != lookups {
		t.Fatalf("repeat requests made %d table lookups", got-lookups)
	}
	want := []probe.ID{probe.BufGetEnter, probe.BufTableLookup, probe.BufGetHit}
	if len(tr.events) != 5*len(want) {
		t.Fatalf("repeat requests emitted %v", tr.events)
	}
	for i, id := range tr.events {
		if id != want[i%len(want)] {
			t.Fatalf("repeat requests emitted %v", tr.events)
		}
	}
	if n := m.PinnedFrames(); n != 1 {
		t.Fatalf("%d frames pinned, want 1", n)
	}

	// Another page: the first is let go, its hits are counted.
	if _, err := m.Repin(nil, &pin, 0, 1); err != nil {
		t.Fatal(err)
	}
	if n := m.PinnedFrames(); n != 1 {
		t.Fatalf("%d frames pinned after moving on, want 1", n)
	}
	if hits, misses := m.Stats(); hits != 5 || misses != 2 {
		t.Fatalf("stats = %d/%d, want 5 hits (all answered by the pin) and 2 misses", hits, misses)
	}

	// A failed request leaves the pin empty, not on the old page.
	if _, err := m.Repin(nil, &pin, 0, 99); err == nil {
		t.Fatal("page 99 does not exist")
	}
	if n := m.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames pinned after a failed request", n)
	}
	pin.Release()
	pin.Release()
	if got := m.Lookups(); got != 3 {
		t.Fatalf("%d table lookups, want 3 (one per distinct page asked for)", got)
	}
}

// benchPool returns a pool that holds all of a store's pages, every
// page faulted in.
func benchPool(b *testing.B, pages int) *Manager {
	st := storage.NewStore(1)
	p := storage.NewPage()
	for i := 0; i < pages; i++ {
		pn, err := st.AllocPage(0)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.WritePage(0, pn, p); err != nil {
			b.Fatal(err)
		}
	}
	m := New(st, 2*pages)
	for i := 0; i < pages; i++ {
		buf, err := m.Get(nil, 0, i)
		if err != nil {
			b.Fatal(err)
		}
		m.Release(buf, false)
	}
	return m
}

// BenchmarkPoolGetParallel is the concurrent twin of bench/'s
// buffer.get_hit_ns probe (Get + Release of a resident page, one
// goroutine): the same pair from GOMAXPROCS goroutines, all on one
// page — one frame, whose pin count and hit count every goroutine
// writes — and each on pages of its own, which share no line.
func BenchmarkPoolGetParallel(b *testing.B) {
	const pages = 256
	var nop probe.NopTracer
	run := func(b *testing.B, pageOf func(worker, i int) int) {
		m := benchPool(b, pages)
		var workers atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := int(workers.Add(1)) - 1
			for i := 0; pb.Next(); i++ {
				buf, err := m.Get(nop, 0, pageOf(w, i))
				if err != nil {
					b.Error(err)
					return
				}
				m.Release(buf, false)
			}
		})
	}
	b.Run("same-page", func(b *testing.B) {
		run(b, func(int, int) int { return 7 })
	})
	b.Run("disjoint-pages", func(b *testing.B) {
		// Worker w cycles through the pages congruent to w mod 8.
		run(b, func(w, i int) int { return (w%8 + 8*i) % pages })
	})
}
