package buffer

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/db/probe"
	"repro/internal/db/storage"
)

func newEnv(t *testing.T, frames, pages int) (*storage.Store, *Manager) {
	t.Helper()
	st := storage.NewStore(1)
	for i := 0; i < pages; i++ {
		pn, err := st.AllocPage(0)
		if err != nil {
			t.Fatal(err)
		}
		p := storage.NewPage()
		p.AddTuple([]byte{byte(pn)})
		if err := st.WritePage(0, pn, p); err != nil {
			t.Fatal(err)
		}
	}
	return st, New(st, frames)
}

func TestHitAndMissCounting(t *testing.T) {
	_, m := newEnv(t, 4, 2)
	b, err := m.Get(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Release(b, false)
	b, err = m.Get(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Release(b, false)
	hits, misses := m.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 1/1", hits, misses)
	}
}

func TestPageContentsSurviveEviction(t *testing.T) {
	_, m := newEnv(t, 2, 5)
	// Touch all 5 pages through a 2-frame pool.
	for i := 0; i < 5; i++ {
		b, err := m.Get(nil, 0, i)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := b.Page.Tuple(0)
		if err != nil || raw[0] != byte(i) {
			t.Fatalf("page %d contents wrong: %v %v", i, raw, err)
		}
		m.Release(b, false)
	}
}

func TestDirtyPageFlushedOnEvict(t *testing.T) {
	st, m := newEnv(t, 1, 3)
	b, err := m.GetForWrite(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Page.AddTuple([]byte("mutation"))
	m.Release(b, true)
	// Evict page 0 by touching two other pages through 1 frame.
	for i := 1; i < 3; i++ {
		bb, err := m.Get(nil, 0, i)
		if err != nil {
			t.Fatal(err)
		}
		m.Release(bb, false)
	}
	// Read page 0 straight from storage: the mutation must be there.
	p := storage.NewPage()
	if err := st.ReadPage(0, 0, p); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 2 {
		t.Fatalf("dirty page not flushed: %d slots", p.NumSlots())
	}
}

func TestPinnedPagesAreNotEvicted(t *testing.T) {
	_, m := newEnv(t, 2, 4)
	b0, err := m.Get(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle other pages through the remaining frame.
	for i := 1; i < 4; i++ {
		bb, err := m.Get(nil, 0, i)
		if err != nil {
			t.Fatal(err)
		}
		m.Release(bb, false)
	}
	// Page 0 must still be resident (hit).
	h0, _ := m.Stats()
	b, err := m.Get(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := m.Stats()
	if h1 != h0+1 {
		t.Fatal("pinned page was evicted")
	}
	m.Release(b, false)
	m.Release(b0, false)
}

func TestAllPinnedFails(t *testing.T) {
	_, m := newEnv(t, 2, 4)
	b0, _ := m.Get(nil, 0, 0)
	b1, _ := m.Get(nil, 0, 1)
	if _, err := m.Get(nil, 0, 2); err == nil {
		t.Fatal("Get with all frames pinned must fail")
	}
	m.Release(b0, false)
	m.Release(b1, false)
	if _, err := m.Get(nil, 0, 2); err != nil {
		t.Fatalf("Get after release: %v", err)
	}
}

func TestNewPageAllocatesAndPins(t *testing.T) {
	st, m := newEnv(t, 2, 0)
	b, err := m.NewPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if b.PageNo != 0 || st.NumPages(0) != 1 {
		t.Fatalf("NewPage: pageNo=%d files=%d", b.PageNo, st.NumPages(0))
	}
	if m.PinnedFrames() != 1 {
		t.Fatal("NewPage must pin")
	}
	b.Page.AddTuple([]byte("x"))
	m.Release(b, true)
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p := storage.NewPage()
	if err := st.ReadPage(0, 0, p); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 1 {
		t.Fatal("FlushAll did not persist the new page")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	_, m := newEnv(t, 2, 1)
	b, err := m.Get(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Release(b, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double release must panic")
		}
	}()
	m.Release(b, false)
}

func TestNumPagesPassThrough(t *testing.T) {
	_, m := newEnv(t, 2, 3)
	if m.NumPages(0) != 3 {
		t.Fatalf("NumPages = %d, want 3", m.NumPages(0))
	}
	if m.Size() != 2 {
		t.Fatalf("Size = %d, want 2", m.Size())
	}
}

// Clock must give re-referenced pages a second chance: a page touched
// after the sweep cleared its ref bit survives the next eviction, while
// an untouched page is evicted instead.
func TestClockSecondChance(t *testing.T) {
	_, m := newEnv(t, 3, 10)
	get := func(p int) {
		b, err := m.Get(nil, 0, p)
		if err != nil {
			t.Fatal(err)
		}
		m.Release(b, false)
	}
	get(0) // frames: [0,1,2], all ref bits set
	get(1)
	get(2)
	get(3) // sweep clears all refs, evicts page 0 -> [3,1,2]
	get(1) // hit: page 1's ref bit set again
	get(4) // hand at frame 1: page 1 spared (ref), page 2 evicted
	// Page 1 must still be resident.
	h0, _ := m.Stats()
	get(1)
	h1, _ := m.Stats()
	if h1 != h0+1 {
		t.Fatal("re-referenced page lost its second chance")
	}
	// Page 2 must be gone.
	_, m0 := m.Stats()
	get(2)
	_, m1 := m.Stats()
	if m1 != m0+1 {
		t.Fatal("page 2 should have been the clock victim")
	}
}

// TestConcurrentGetRelease hammers one pool from many goroutines,
// asserting the frame table stays consistent (no bad releases, no
// leaked pins) and that the atomic hit/miss counters account for
// every Get exactly once.
func TestConcurrentGetRelease(t *testing.T) {
	const pages, frames, goroutines, iters = 64, 16, 8, 2000
	_, m := newEnv(t, frames, pages)
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				b, err := m.Get(nil, 0, rng.Intn(pages))
				if err != nil {
					errs[g] = err
					return
				}
				if b.Page[0] == 0 { // touch the pinned page
					errs[g] = fmt.Errorf("page %d empty", b.PageNo)
					return
				}
				m.Release(b, false)
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
		t.Fatalf("leaked %d pins", n)
	}
	hits, misses := m.Stats()
	if hits+misses != goroutines*iters {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d (lost counter updates)",
			hits, misses, hits+misses, goroutines*iters)
	}
	if misses < pages/4 {
		t.Fatalf("misses = %d, implausibly low for a %d-frame pool over %d pages", misses, frames, pages)
	}
}

// reentrantTracer records probe events while calling back into the
// pool on every emit. Pool methods take the (non-reentrant) pool
// mutex, so any emit issued while the mutex is held deadlocks — which
// is exactly what the hit-path regression test below uses to prove
// hit emission happens outside the latch.
type reentrantTracer struct {
	m      *Manager
	events []probe.ID
}

func (t *reentrantTracer) Emit(id probe.ID) {
	_ = t.m.PinnedFrames() // acquires m.mu; deadlocks if called under it
	t.events = append(t.events, id)
}

// TestHitPathEmitsOutsideLatch pins the PR's buffer-pool slice of the
// latch-granularity roadmap item: the hit path must emit its
// instrumentation after the pool mutex is released (a tracer that
// re-enters the pool completes instead of self-deadlocking), the
// event sequence must be unchanged, and the buffer must already be
// pinned when the events fire.
func TestHitPathEmitsOutsideLatch(t *testing.T) {
	_, m := newEnv(t, 4, 2)
	// Fault the page in untraced; the traced Get below is a pure hit.
	b, err := m.Get(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Release(b, false)

	tr := &reentrantTracer{m: m}
	done := make(chan error, 1)
	go func() {
		b, err := m.Get(tr, 0, 0)
		if err == nil {
			m.Release(b, false)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hit-path Get deadlocked: tracer emission still runs under the pool mutex")
	}
	want := []probe.ID{probe.BufGetEnter, probe.BufTableLookup, probe.BufGetHit}
	if len(tr.events) != len(want) {
		t.Fatalf("hit path emitted %v, want %v", tr.events, want)
	}
	for i, id := range want {
		if tr.events[i] != id {
			t.Fatalf("hit path emitted %v, want %v", tr.events, want)
		}
	}
}

// eventTracer records probe IDs without re-entering the pool.
type eventTracer struct{ events []probe.ID }

func (t *eventTracer) Emit(id probe.ID) { t.events = append(t.events, id) }

// TestMissPathEventSequenceUnchanged pins the miss-path trace shape:
// reordering the hit emits must not have perturbed the cold path the
// CFG validation depends on.
func TestMissPathEventSequenceUnchanged(t *testing.T) {
	_, m := newEnv(t, 4, 2)
	tr := &eventTracer{}
	b, err := m.Get(tr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Release(b, false)
	want := []probe.ID{
		probe.BufGetEnter, probe.BufTableLookup, probe.BufGetMiss,
		probe.BufClockEnter, probe.BufClockTake,
		probe.BufGetRead, probe.SmgrRead, probe.BufGetFill,
	}
	if fmt.Sprint(tr.events) != fmt.Sprint(want) {
		t.Fatalf("miss path emitted %v, want %v", tr.events, want)
	}
}

// rendezvousTracer blocks inside the BufGetRead emit — which fires
// between the victim claim and the storage read, outside the pool
// mutex — until every participating session has reached the same
// point. If miss IO still ran under the pool mutex, the second
// session could never reach BufGetRead while the first was parked
// there, and the rendezvous would time out.
type rendezvousTracer struct {
	arrived chan<- struct{}
	release <-chan struct{}
}

func (t *rendezvousTracer) Emit(id probe.ID) {
	if id == probe.BufGetRead {
		t.arrived <- struct{}{}
		<-t.release
	}
}

// TestConcurrentMissesOverlapIO pins the per-frame IO latch slice of
// the latch-granularity roadmap item: two concurrent misses on
// different pages must be able to sit in their storage reads at the
// same time (each under its own frame latch), not serialized under
// the pool mutex.
func TestConcurrentMissesOverlapIO(t *testing.T) {
	st, m := newEnv(t, 4, 4)
	const sessions = 2
	arrived := make(chan struct{}, sessions)
	release := make(chan struct{})
	done := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		go func(page int) {
			b, err := m.Get(&rendezvousTracer{arrived: arrived, release: release}, 0, page)
			if err == nil {
				m.Release(b, false)
			}
			done <- err
		}(g)
	}
	for i := 0; i < sessions; i++ {
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatal("miss IO did not overlap: a session never reached its storage read while the other held one open")
		}
	}
	close(release)
	for i := 0; i < sessions; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := m.Stats(); hits != 0 || misses != sessions {
		t.Fatalf("hits/misses = %d/%d, want 0/%d", hits, misses, sessions)
	}
	if got := st.Reads(); got != sessions {
		t.Fatalf("storage reads = %d, want %d", got, sessions)
	}
	if n := m.PinnedFrames(); n != 0 {
		t.Fatalf("leaked %d pins", n)
	}
}

// lookupTracer signals once its session has looked its page up — on
// every path that is after the session pinned the frame it found.
type lookupTracer struct{ looked chan<- struct{} }

func (t lookupTracer) Emit(id probe.ID) {
	if id == probe.BufTableLookup {
		t.looked <- struct{}{}
	}
}

// TestWaiterGetsLoadersRead pins the read-page-once guarantee across
// the frame latch: sessions that race a loading frame must wait for
// the in-flight read and share its outcome. When the read lands they
// come back as hits and see the loaded contents; when it fails they
// all get the loader's error and nothing stays pinned.
func TestWaiterGetsLoadersRead(t *testing.T) {
	const waiters = 8
	for _, tc := range []struct {
		name  string
		page  int
		fails bool
	}{
		{"read lands", 1, false},
		{"read fails", 99, true}, // beyond the file: the store refuses the read
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, m := newEnv(t, 4, 4)
			get := func(tr probe.Tracer) error {
				b, err := m.Get(tr, 0, tc.page)
				if err != nil {
					return err
				}
				defer m.Release(b, false)
				if raw, terr := b.Page.Tuple(0); terr != nil || raw[0] != byte(tc.page) {
					return fmt.Errorf("saw wrong contents: %v %v", raw, terr)
				}
				return nil
			}
			arrived := make(chan struct{}, 1)
			release := make(chan struct{})
			done := make(chan error, waiters+1)
			go func() { done <- get(&rendezvousTracer{arrived: arrived, release: release}) }()
			<-arrived // the loader holds the frame latch, read not yet issued

			looked := make(chan struct{}, waiters)
			for i := 0; i < waiters; i++ {
				go func() { done <- get(lookupTracer{looked}) }()
			}
			for i := 0; i < waiters; i++ {
				<-looked
			}
			// Every waiter found the claim and holds a pin on it; none may
			// get past the latch — to a result or an error — before the
			// read is over.
			f := m.lookup(keyOf(0, tc.page))
			if f == nil || f.pins.Load() != waiters+1 {
				t.Fatalf("claimed frame %p not pinned by the loader and all %d waiters", f, waiters)
			}
			select {
			case err := <-done:
				t.Fatalf("a session completed before the load finished (err=%v)", err)
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			for i := 0; i < waiters+1; i++ {
				err := <-done
				if tc.fails && (err == nil || !strings.Contains(err.Error(), "read beyond")) {
					t.Fatalf("session got %v, want the loader's read error", err)
				}
				if !tc.fails && err != nil {
					t.Fatal(err)
				}
			}
			wantHits, wantReads := uint64(waiters), uint64(1)
			if tc.fails {
				wantHits, wantReads = 0, 0
			}
			if hits, misses := m.Stats(); hits != wantHits || misses != 1 {
				t.Fatalf("hits/misses = %d/%d, want %d/1", hits, misses, wantHits)
			}
			if got := st.Reads(); got != wantReads {
				t.Fatalf("storage reads = %d, want %d (read-page-once violated)", got, wantReads)
			}
			if n := m.PinnedFrames(); n != 0 {
				t.Fatalf("leaked %d pins", n)
			}
		})
	}
}

// TestEvictFlushNotOvertakenByReread regression-tests the in-flight
// flush registry: when a miss evicts a dirty victim and flushes it
// outside the pool mutex, a concurrent miss re-reading that same page
// must wait for the flush — reading storage early would install the
// page's pre-flush (stale) bytes. The test parks the evictor inside
// its flush window (via the test hook) and proves the re-reader
// cannot complete until the flush lands, and then sees the flushed
// contents.
func TestEvictFlushNotOvertakenByReread(t *testing.T) {
	_, m := newEnv(t, 2, 3)
	inFlush := make(chan struct{})
	releaseFlush := make(chan struct{})
	m.testEvictFlushHook = func() {
		close(inFlush)
		<-releaseFlush
	}
	// Frame 0 holds page 0, dirtied with a second tuple that only the
	// flushed version has; frame 1 holds page 1 clean. The next miss's
	// clock sweep clears both ref bits and takes frame 0 — the dirty
	// one — as its victim.
	b, err := m.GetForWrite(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Page.AddTuple([]byte("mutation"))
	m.Release(b, true)
	if b, err = m.Get(nil, 0, 1); err != nil {
		t.Fatal(err)
	}
	m.Release(b, false)

	evictorDone := make(chan error, 1)
	go func() { // evicts dirty page 0 to load page 2; parks in the hook
		b, err := m.Get(nil, 0, 2)
		if err == nil {
			m.Release(b, false)
		}
		evictorDone <- err
	}()
	<-inFlush // page 0 is unmapped, its dirty bytes not yet in storage

	rereadDone := make(chan error, 1)
	go func() { // re-reads page 0 mid-flush
		b, err := m.Get(nil, 0, 0)
		if err == nil {
			if b.Page.NumSlots() != 2 {
				err = fmt.Errorf("re-read page 0 with %d slots, want 2 (stale pre-flush bytes)", b.Page.NumSlots())
			}
			m.Release(b, false)
		}
		rereadDone <- err
	}()
	// The re-reader must block on the in-flight flush, not complete
	// with whatever storage holds right now.
	select {
	case err := <-rereadDone:
		t.Fatalf("re-read completed while the evict-flush was still in flight (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(releaseFlush)
	if err := <-evictorDone; err != nil {
		t.Fatal(err)
	}
	if err := <-rereadDone; err != nil {
		t.Fatal(err)
	}
}

// TestFlushAllWaitsForInFlightEvictFlush: a dirty page mid-evict
// lives in no frame, so FlushAll's frame sweep cannot see it — it
// must wait on the in-flight flush registry instead of reporting
// durability it does not have.
func TestFlushAllWaitsForInFlightEvictFlush(t *testing.T) {
	st, m := newEnv(t, 2, 3)
	inFlush := make(chan struct{})
	releaseFlush := make(chan struct{})
	m.testEvictFlushHook = func() {
		close(inFlush)
		<-releaseFlush
	}
	b, err := m.GetForWrite(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Page.AddTuple([]byte("mutation"))
	m.Release(b, true)
	if b, err = m.Get(nil, 0, 1); err != nil {
		t.Fatal(err)
	}
	m.Release(b, false)

	evictorDone := make(chan error, 1)
	go func() { // evicts dirty page 0, parks inside its flush window
		b, err := m.Get(nil, 0, 2)
		if err == nil {
			m.Release(b, false)
		}
		evictorDone <- err
	}()
	<-inFlush

	flushDone := make(chan error, 1)
	go func() { flushDone <- m.FlushAll() }()
	select {
	case err := <-flushDone:
		t.Fatalf("FlushAll returned (err=%v) while an evict-flush was still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(releaseFlush)
	if err := <-flushDone; err != nil {
		t.Fatal(err)
	}
	if err := <-evictorDone; err != nil {
		t.Fatal(err)
	}
	// The durability FlushAll promised: page 0's mutation is in storage.
	p := storage.NewPage()
	if err := st.ReadPage(0, 0, p); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 2 {
		t.Fatalf("page 0 has %d slots in storage after FlushAll, want 2", p.NumSlots())
	}
}

// TestConcurrentGetSamePageReadsOnce races every goroutine for the
// same cold page: the pool latch must admit exactly one storage read.
func TestConcurrentGetSamePageReadsOnce(t *testing.T) {
	const goroutines = 16
	st, m := newEnv(t, 8, 4)
	before := st.Reads()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := m.Get(nil, 0, 2)
			if err != nil {
				t.Error(err)
				return
			}
			m.Release(b, false)
		}()
	}
	wg.Wait()
	if got := st.Reads() - before; got != 1 {
		t.Fatalf("page read %d times from storage, want 1", got)
	}
	hits, misses := m.Stats()
	if misses != 1 || hits != goroutines-1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", hits, misses, goroutines-1)
	}
}
