// Package buffer implements the buffer manager of the database kernel:
// a fixed pool of page frames over the storage manager with clock
// (second-chance) replacement, pin/unpin discipline and hit/miss
// statistics — the module the paper identifies (with the access
// methods) as a major source of instruction-cache misses.
//
// The pool is latched at two granularities, and a hit takes neither:
//
//   - The page table. The key → frame table is lock-free: per file, a
//     directory of fixed chunks of chunkSize atomic frame pointers,
//     published as an immutable snapshot. Chunks never move once made,
//     and entries are written only under the miss mutex. A hit looks
//     its key up, pins the frame with an atomic add, and then looks
//     again: the frame is its page only if the entry still names it
//     (validate after pin). A loading frame is waited for (below); any
//     other is checked once more, because a failed load unpublishes its
//     frame before it clears loading. Release is an atomic decrement.
//     pins, ref, dirty and the frame's hit counts are per-frame atomics
//     and frames are padded to their own cache lines, so the only
//     shared line a hit writes is its frame's, and two sessions hitting
//     different pages write no common line.
//   - The miss mutex (Manager.mu). The clock hand, the victim claim,
//     the table writes, the miss count and the in-flight flush registry
//     stay under one pool-wide mutex, taken on the miss path (and by a
//     writer copying a viewed page, see GetForWrite) only. The sweep
//     claims its victim by swapping its pin count from 0 to the
//     claimed sentinel, a large negative number — free frames too. A
//     hit that pins a claimed frame sees a count that is not positive,
//     takes its pin back and goes to the miss path, which re-checks the
//     table under the mutex; the claimant unpublishes the victim, then
//     adds 1 − claimed, which leaves its own pin plus any racing
//     transient ones, and publishes the frame under the new key. A
//     stale frame pointer — read from the table before the frame moved
//     on — is therefore harmless: pinning it either fails or holds a
//     frame whose entry the re-lookup no longer finds, and the pin is
//     given back.
//   - The frame latch. Miss IO — the evict-flush and the storage read —
//     runs with only the claimed frame held: loading is set and the
//     loader holds the frame's latch token while it lasts. Two sessions
//     missing on different pages overlap their IO, while a session
//     racing for a page whose read is in flight finds the claim in the
//     table, pins it, waits for that frame's token alone and still
//     reads the page from storage exactly once. The latch is made with
//     the frame, so a miss allocates nothing.
//
// On top of that a caller can keep a page: a Pin is a caller-owned
// handle that stays pinned between requests, and asking it for the
// page it already holds touches no pool state (see Pin).
//
// Page contents themselves are not latched — concurrent readers of a
// pinned page are safe, while writers are serialized above the pool
// (the engine holds its write latch across inserts and index builds).
//
// A miss on a page of the store's checkpoint generation copies nothing:
// the frame keeps the read-only view of the mapped generation that
// storage.ReadView returns, and copies it into the frame's own buffer
// only when a writer asks for the page (GetForWrite) or the generation
// is about to be released (OwnAll).
package buffer

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db/probe"
	"repro/internal/db/storage"
)

// key names a page: the file number in the high half, the page number
// in the low half.
type key uint64

func keyOf(file, page int) key { return key(uint64(uint32(file))<<32 | uint64(uint32(page))) }

func (k key) file() int { return int(uint32(k >> 32)) }
func (k key) page() int { return int(uint32(k)) }

// frame is one page slot, padded to two cache lines so neighbouring
// frames' pin counts do not share one.
type frame struct {
	// pins, ref and dirty are atomics: a hit pins with no lock, Release
	// and the clock's reference bit take none either. pins holds the
	// claimed sentinel while the clock sweep takes the frame.
	pins  atomic.Int32
	ref   atomic.Bool
	dirty atomic.Bool

	// loading marks a claimed frame whose IO (evict-flush + storage
	// read) is in flight under the frame-local latch: the key is
	// published in the page table, pins is at least 1 (the loader's),
	// but the contents are not yet valid. ready is the latch: a channel
	// of capacity one made with the frame, holding one token whenever no
	// load is in flight. The loader takes the token at the claim and
	// puts it back when the IO finishes; a waiter takes it and puts it
	// straight back. The claim never blocks on it: a frame is claimed
	// unpinned, and every waiter returns the token before it unpins.
	// loadErr carries a failed read to the waiters (set before the token
	// comes back, read by waiters that still hold their pin, so the
	// frame cannot be recycled under them).
	loading atomic.Bool
	ready   chan struct{}
	loadErr error

	// tableHits counts the requests the page table answered with this
	// frame, pinHits those a Pin holding it answered itself (each Pin
	// adds its count when it lets go). They live in the frame, whose
	// line a hit writes anyway.
	tableHits atomic.Uint64
	pinHits   atomic.Uint64

	// key and valid change only in the hands of the frame's claimant —
	// under the miss mutex with the frame claimed and unpublished, or by
	// the loader while it holds its pin. Everyone else reads them
	// either under the miss mutex or while holding a pin it validated.
	key   key
	valid bool

	// page is the frame's contents: either own, the buffer New made for
	// the frame, or a read-only view of the store's mapped generation,
	// which the loader keeps instead of copying a checkpointed page. A
	// view becomes own — copied, under the miss mutex — when a writer
	// asks for the page (GetForWrite) and in OwnAll, so a dirty frame's
	// page is own, and a failed load leaves the frame on own. page is
	// atomic because that switch happens while readers hold the frame;
	// a reader keeps whichever bytes it loaded, and both stay valid
	// while it holds its pin.
	page atomic.Pointer[[storage.PageBytes]byte]
	own  *[storage.PageBytes]byte

	_ [40]byte
}

// claimed is the pin count the clock sweep swaps into an unpinned
// frame to take it. It is far enough below zero that racing transient
// pins, each a +1 taken back at once, never lift it to a positive
// count.
const claimed = math.MinInt32 / 2

// tryPin adds a pin to f unless f is claimed, in which case the count
// is left as it was found and tryPin reports false.
func (f *frame) tryPin() bool {
	if f.pins.Add(1) > 0 {
		return true
	}
	f.pins.Add(-1)
	return false
}

// claim takes an unpinned frame for the clock sweep, or reports false
// if it is pinned. The caller holds the miss mutex.
func (f *frame) claim() bool { return f.pins.CompareAndSwap(0, claimed) }

// lift turns a claim into the claimant's pin: from the sentinel to 1,
// plus any transient pins that raced the claim and have not yet been
// taken back, so that taking them back leaves exactly the claimant's.
func (f *frame) lift() { f.pins.Add(1 - claimed) }

// viewing reports whether the frame's page is a view of the store's
// generation rather than its own buffer.
func (f *frame) viewing() bool { return f.page.Load() != f.own }

// chunkSize is the number of consecutive pages of one file whose table
// entries share a chunk (a power of two).
const (
	chunkBits = 9
	chunkSize = 1 << chunkBits
)

// chunk holds the page-table entries of chunkSize consecutive pages.
type chunk [chunkSize]atomic.Pointer[frame]

// directory is a snapshot of the page table: directory[file][c] is the
// chunk of the file's pages c·chunkSize onwards, nil until one of them
// is first published. A snapshot is never modified; the miss path
// publishes a grown copy that shares the existing chunks.
type directory [][]*chunk

// flushWait is one in-flight evict-flush: done closes when the write
// finished, err (set before done closes) reports its failure to any
// session waiting to re-read the page.
type flushWait struct {
	done chan struct{}
	err  error
}

// Buf is a pinned page handle.
type Buf struct {
	// Page is the frame contents; valid while pinned. Write to it only
	// through a Buf from GetForWrite or NewPage: any other may be a view
	// of the store's read-only mapping.
	Page storage.Page
	// File and PageNo identify the page.
	File, PageNo int
	f            *frame
	write        bool // obtained for writing: may be released dirty
}

// Manager is the buffer pool. All methods are safe for concurrent
// use.
type Manager struct {
	store  *storage.Store
	frames []frame

	// table is the page table's current snapshot, replaced under the
	// miss mutex when a miss needs a chunk it does not have yet.
	table atomic.Pointer[directory]

	mu     sync.Mutex // the miss mutex: guards hand, misses, flushing and table writes
	hand   int
	misses uint64

	// flushing tracks pages whose evict-flush is in flight outside the
	// miss mutex: the victim's table entry is gone (its frame was
	// reassigned) but its dirty bytes have not reached storage yet. A
	// miss that wants to read such a page must wait for the flush —
	// and fail if the flush failed — or it would install stale bytes.
	flushing map[key]*flushWait

	// testEvictFlushHook, when non-nil, runs just before an
	// evict-flush's storage write, after the miss mutex dropped — test
	// instrumentation for holding the flush window open (the
	// stale-reread regression test depends on it).
	testEvictFlushHook func()
}

// New returns a buffer pool of n frames over the store.
func New(store *storage.Store, n int) *Manager {
	m := &Manager{
		store:    store,
		frames:   make([]frame, n),
		flushing: make(map[key]*flushWait),
	}
	m.table.Store(&directory{})
	for i := range m.frames {
		f := &m.frames[i]
		f.own = (*[storage.PageBytes]byte)(storage.NewPage())
		f.page.Store(f.own)
		f.ready = make(chan struct{}, 1)
		f.ready <- struct{}{}
	}
	return m
}

// lookup returns the frame the page table holds for k, or nil. It
// takes no lock: the frame may be moving on to another page as it
// returns, which is why a hit validates after it pins.
func (m *Manager) lookup(k key) *frame {
	dir := *m.table.Load()
	file, c := k.file(), k.page()>>chunkBits
	if file >= len(dir) || c >= len(dir[file]) || dir[file][c] == nil {
		return nil
	}
	return dir[file][c][k.page()&(chunkSize-1)].Load()
}

// entry returns k's page-table entry, publishing a grown snapshot
// first if k's chunk does not exist yet. The caller holds the miss
// mutex; chunks never move, so the entry stays k's for good.
func (m *Manager) entry(k key) *atomic.Pointer[frame] {
	dir := *m.table.Load()
	file, c := k.file(), k.page()>>chunkBits
	if file >= len(dir) || c >= len(dir[file]) || dir[file][c] == nil {
		grown := make(directory, max(len(dir), file+1))
		copy(grown, dir)
		chunks := make([]*chunk, max(len(grown[file]), c+1))
		copy(chunks, grown[file])
		chunks[c] = new(chunk)
		grown[file] = chunks
		m.table.Store(&grown)
		dir = grown
	}
	return &dir[file][c][k.page()&(chunkSize-1)]
}

// Get pins the given page, reading it from storage on a miss. The
// tracer receives the ReadBuffer instrumentation events (nil means
// untraced); if it is a probe.IOWaiter it also receives the time the
// session spends blocked on pool IO — evict-flushes, storage reads, and
// waits on another session's in-flight read. Two sessions racing for
// an unbuffered page still read it from storage exactly once: the
// first claims the frame and performs the read, the loser finds the
// in-flight claim in the page table, waits on that frame's latch,
// and takes the hit path.
//
// The page is for reading: it may be a view of the store's read-only
// mapping, so a Buf from Get must not be written or released dirty.
func (m *Manager) Get(tr probe.Tracer, file, page int) (Buf, error) {
	f, err := m.pin(tr, probe.Resolve(tr), keyOf(file, page))
	if err != nil {
		return Buf{}, err
	}
	return Buf{Page: f.page.Load()[:], File: file, PageNo: page, f: f}, nil
}

// GetForWrite pins a page to modify it: an untraced Get that first
// copies a frame viewing the store's mapping into the frame's own
// buffer, so the caller writes the pool's copy and never the
// generation. Only a Buf from GetForWrite or NewPage may be released
// dirty. Readers that took the page before the copy keep reading the
// view; writers are serialized with readers above the pool.
func (m *Manager) GetForWrite(file, page int) (Buf, error) {
	f, err := m.pin(nil, nil, keyOf(file, page))
	if err != nil {
		return Buf{}, err
	}
	if f.viewing() {
		m.mu.Lock()
		f.ownPage()
		m.mu.Unlock()
	}
	return Buf{Page: f.own[:], File: file, PageNo: page, f: f, write: true}, nil
}

// ownPage copies a viewed page into the frame's own buffer and makes
// that the page. The caller holds the miss mutex, which is what
// serializes two writers copying the same frame.
func (f *frame) ownPage() {
	if p := f.page.Load(); p != f.own {
		*f.own = *p
		f.page.Store(f.own)
	}
}

// pin is Get without the handle: it returns k's frame with one more
// pin on it. rec records the events (probe.Resolve(tr)); tr is the
// caller's tracer, through which the miss path attributes IO waits.
//
// Instrumentation is emitted with no lock held: the tracer is
// per-session state (sessions are single-threaded) and user code, and
// user code under a pool lock can re-enter the pool and deadlock (the
// PR 3 class — enforced statically by dsdblint's tracerlock). On a
// miss the clock sweep's events are recorded under the miss mutex and
// replayed once it drops.
//
// A hit takes no lock: look k up, pin the frame, and keep the pin only
// if the table still maps k to that frame (see the package comment).
// A frame the sweep has claimed refuses the pin, and the request goes
// to the miss path, which waits out the claim on the miss mutex.
func (m *Manager) pin(tr, rec probe.Tracer, k key) (*frame, error) {
	for {
		f := m.lookup(k)
		if f == nil || !f.tryPin() {
			return m.miss(tr, rec, k)
		}
		if m.lookup(k) == f {
			if f.loading.Load() {
				return m.awaitLoad(tr, rec, f)
			}
			// Not loading: loaded, or its load failed, and a failed load
			// unpublished the frame before it cleared loading.
			if m.lookup(k) == f {
				f.tableHits.Add(1)
				f.touch()
				probe.Emit(rec, probe.BufGetEnter)
				probe.Emit(rec, probe.BufTableLookup)
				probe.Emit(rec, probe.BufGetHit)
				return f, nil
			}
		}
		// The frame moved on between the lookup and the pin.
		f.pins.Add(-1)
	}
}

// touch sets the clock's reference bit. Loading it first keeps a
// frame that is hit over and over from taking a store each time.
func (f *frame) touch() {
	if !f.ref.Load() {
		f.ref.Store(true)
	}
}

// awaitLoad completes a request that found another session's read of
// its page in flight. The caller pinned f (so it cannot be recycled
// under us), found it still published under its key and saw it
// loading; wait on the frame's latch, then complete as a hit — the
// read happened once.
func (m *Manager) awaitLoad(tr, rec probe.Tracer, f *frame) (*frame, error) {
	probe.Emit(rec, probe.BufGetEnter)
	probe.Emit(rec, probe.BufTableLookup)
	// An IOWaiter tracer additionally receives the wait (see Get); only
	// this and the miss path touch the clock — hot hits pay nothing.
	w, observed := tr.(probe.IOWaiter)
	var waitStart time.Time
	if observed {
		waitStart = time.Now()
	}
	<-f.ready
	f.ready <- struct{}{}
	if observed {
		w.AddIOWait(time.Since(waitStart))
	}
	if err := f.loadErr; err != nil {
		f.pins.Add(-1)
		return nil, err
	}
	f.tableHits.Add(1)
	f.touch()
	probe.Emit(rec, probe.BufGetHit)
	return f, nil
}

// miss claims a frame for k and fills it.
//
// The claim — clock sweep, unpublishing the victim, publishing the
// frame under the new key, registering the victim's flush — happens
// under the miss mutex and does no IO. The evict-flush and the storage
// read — the slow part — then run under only the claimed frame's
// latch, so misses on different pages overlap their IO.
func (m *Manager) miss(tr, rec probe.Tracer, k key) (*frame, error) {
	m.mu.Lock()
	slot := m.entry(k)
	if slot.Load() != nil {
		// Published since the caller looked — a racing miss's claim for
		// k — or the frame the caller found was claimed and this is its
		// successor. Take the hit path.
		m.mu.Unlock()
		return m.pin(tr, rec, k)
	}
	m.misses++
	var evbuf [8]probe.ID
	evs := append(evbuf[:0], probe.BufGetEnter, probe.BufTableLookup, probe.BufGetMiss)
	f, evs, err := m.evict(evs)
	if err != nil {
		m.mu.Unlock()
		emitAll(rec, evs)
		return nil, err
	}
	// The frame is claimed and unpublished: nobody else can pin it
	// until the claim is published below.
	oldKey, needFlush := f.key, f.valid && f.dirty.Load()
	f.key = k
	f.valid = false
	if needFlush {
		f.dirty.Store(false)
	}
	f.touch()
	<-f.ready // the latch token; an unpinned frame always has it (see frame.ready)
	f.loading.Store(true)
	f.loadErr = nil
	f.lift()
	slot.Store(f)
	var flushOut *flushWait
	if needFlush {
		// Publish the in-flight flush before dropping the mutex: a
		// racing miss on oldKey no longer finds it in the page table
		// and must not read it from storage until this write lands.
		flushOut = &flushWait{done: make(chan struct{})}
		m.flushing[oldKey] = flushOut
	}
	// A racing eviction may still be flushing the page we are about to
	// read; its registration is visible here because its critical
	// section (unpublish + register) completed before ours found the
	// page absent from the page table.
	waitFlush := m.flushing[k]
	m.mu.Unlock()
	emitAll(rec, evs)
	if w, observed := tr.(probe.IOWaiter); observed {
		// Everything from here to any return is miss IO: the victim
		// flush, waiting out a racing flush of this page, and the read.
		ioStart := time.Now()
		defer func() { w.AddIOWait(time.Since(ioStart)) }()
	}

	// IO under the frame latch only: evict-flush of the dirty victim,
	// then the read that fills the frame. Other frames' misses proceed
	// concurrently; waiters for this page block on f.ready.
	if needFlush {
		if m.testEvictFlushHook != nil {
			m.testEvictFlushHook()
		}
		err = m.store.WritePage(oldKey.file(), oldKey.page(), f.own[:]) // dirty: page is own
		m.mu.Lock()
		delete(m.flushing, oldKey)
		if err != nil {
			// The victim's bytes never reached storage: fail the claim
			// for k, then restore the frame to its old identity, valid
			// and still dirty, so the data survives and a later eviction
			// retries the write. Any waiters pinned on the claim see
			// loadErr and drain before the clock can touch the frame.
			m.failLoad(f, err, &oldKey)
			m.mu.Unlock()
			flushOut.err = err
			close(flushOut.done)
			return nil, err
		}
		m.mu.Unlock()
		close(flushOut.done)
	}
	if waitFlush != nil {
		<-waitFlush.done
		if ferr := waitFlush.err; ferr != nil {
			// The page's dirty bytes never made it to storage (they
			// live on in the restored frame); reading now would install
			// stale data. Fail this load.
			m.mu.Lock()
			m.failLoad(f, ferr, nil)
			m.mu.Unlock()
			return nil, ferr
		}
	}
	probe.Emit(rec, probe.BufGetRead)
	p, err := m.store.ReadView(k.file(), k.page(), f.own[:])
	if err != nil {
		m.mu.Lock()
		m.failLoad(f, err, nil)
		m.mu.Unlock()
		return nil, err
	}
	// A checkpointed page comes back as a view of the mapping and is
	// kept as it is; anything else was copied into own.
	f.page.Store((*[storage.PageBytes]byte)(p))
	// Release the frame latch. No lock: the loader's pin keeps the
	// frame its own, and a session that finds the claim reads loading
	// after pinning — false means the bytes above are in place.
	f.valid = true
	f.loading.Store(false)
	f.ready <- struct{}{}
	probe.Emit(rec, probe.SmgrRead)
	probe.Emit(rec, probe.BufGetFill)
	return f, nil
}

// failLoad fails the in-flight load of f, which is published under
// f.key: unpublish the claim (the entry can only still name this frame
// if no restored frame took the key over — no session can re-claim a
// key that is present in the page table), hand the error to the
// waiters — they still hold pins, so the frame outlives them — and
// release the loader's pin and the latch token. restore, when non-nil,
// is the identity the frame goes back to, valid and dirty. The caller
// holds the miss mutex.
//
// loading drops only after the claim is unpublished: a session that
// saw loading set reads loadErr, one that sees it clear looks the key
// up again and does not find this frame.
func (m *Manager) failLoad(f *frame, err error, restore *key) {
	m.entry(f.key).CompareAndSwap(f, nil)
	f.loadErr = err
	f.valid = false
	f.page.Store(f.own)
	f.loading.Store(false)
	if restore != nil {
		f.key = *restore
		f.valid = true
		f.dirty.Store(true)
		m.entry(f.key).Store(f)
	}
	f.pins.Add(-1)
	f.ready <- struct{}{}
}

// NewPage allocates a fresh page in the file and returns it pinned
// for writing.
func (m *Manager) NewPage(file int) (Buf, error) {
	pageNo, err := m.store.AllocPage(file)
	if err != nil {
		return Buf{}, err
	}
	return m.GetForWrite(file, pageNo)
}

// Release unpins a buffer, marking it dirty if modified — which only a
// Buf obtained for writing may be. It takes no lock.
func (m *Manager) Release(b Buf, dirty bool) {
	f := b.f
	if f == nil || f.pins.Load() <= 0 || f.key != keyOf(b.File, b.PageNo) {
		panic(fmt.Sprintf("buffer: bad release of file %d page %d", b.File, b.PageNo))
	}
	if dirty && !b.write {
		panic(fmt.Sprintf("buffer: dirty release of file %d page %d, which was not obtained for writing (GetForWrite)", b.File, b.PageNo))
	}
	if dirty {
		f.dirty.Store(true)
	}
	f.pins.Add(-1)
}

// pinnedPasses is how many full passes of pinned frames a sweep makes,
// yielding the processor between them, before it fails. A pass is no
// snapshot: sessions that release a page and pin another ahead of the
// hand can make every frame it visits look pinned while one is free.
const pinnedPasses = 3

// evict picks a victim frame with the clock algorithm
// (StrategyGetBuffer), claims it and unpublishes it, without doing any
// IO: a dirty
// victim's flush happens in miss under the frame latch, after the miss
// mutex drops. The caller holds m.mu, so the sweep's probe events are
// appended to evs and handed back for the caller to emit after
// unlocking (handed back, not written through a pointer, which would
// move the caller's event buffer to the heap on every miss). Loading
// frames are pinned by their loader, so the pins check skips them.
//
// The victim is claimed by swapping its pin count from 0 to claimed, so
// a hit that pinned it after the sweep looked makes the claim fail and
// the sweep move on; once claimed, no pin sticks until the caller
// lifts the count. The returned frame is claimed.
//
// For its first 2n steps the sweep honours reference bits, as the clock
// does. Hits keep setting them without a lock, so sessions as many as
// the frames can keep every unpinned frame referenced each time the
// hand passes; from then on the sweep takes the first frame it can
// claim. It fails only when full passes, n steps in a row each, have
// found every frame pinned pinnedPasses times in a row.
func (m *Manager) evict(evs []probe.ID) (*frame, []probe.ID, error) {
	evs = append(evs, probe.BufClockEnter)
	n := len(m.frames)
	for sweep, pinned, passes := 0, 0, 0; ; sweep++ {
		if sweep >= 2*n && pinned >= n {
			if passes++; passes == pinnedPasses {
				break
			}
			pinned = 0
			runtime.Gosched()
		}
		f := &m.frames[m.hand]
		m.hand = (m.hand + 1) % n
		if f.pins.Load() > 0 {
			// Covers loading frames too (their loader holds a pin), and
			// failed-load frames still pinned by draining waiters.
			evs = append(evs, probe.BufClockSkip)
			pinned++
			continue
		}
		if sweep < 2*n && f.valid && f.ref.Load() {
			f.ref.Store(false)
			evs = append(evs, probe.BufClockSkip)
			pinned = 0
			continue
		}
		if !f.claim() {
			evs = append(evs, probe.BufClockSkip)
			pinned++
			continue
		}
		if f.valid {
			m.entry(f.key).CompareAndSwap(f, nil)
		}
		return f, append(evs, probe.BufClockTake), nil
	}
	return nil, evs, fmt.Errorf("buffer: all %d frames pinned (an open scan retains its page, an index scan or join up to tree height + 2, until closed)", n)
}

// emitAll replays probe events recorded while a pool lock was held;
// callers invoke it only after releasing it.
func emitAll(rec probe.Tracer, evs []probe.ID) {
	if rec == nil {
		return
	}
	for _, e := range evs {
		rec.Emit(e)
	}
}

// FlushAll writes every dirty frame back to storage (used after bulk
// loads). Dirty pages whose evict-flush is in flight in a concurrent
// miss live in no frame at that moment — their frame was reassigned —
// so FlushAll also waits on the in-flight flush registry and
// propagates its failures: when it returns nil, every page that was
// dirty at entry is durably in storage.
func (m *Manager) FlushAll() error {
	m.mu.Lock()
	for i := range m.frames {
		f := &m.frames[i]
		// Only a filled frame is ever dirty, its page is own, and no
		// frame changes hands while the miss mutex is held. The bit is
		// cleared before the write so a Release(dirty) that lands during
		// it is kept.
		if f.dirty.Swap(false) {
			if err := m.store.WritePage(f.key.file(), f.key.page(), f.own[:]); err != nil {
				f.dirty.Store(true)
				m.mu.Unlock()
				return err
			}
		}
	}
	// Snapshot under the same mutex hold as the frame sweep: every
	// page dirty at this instant is either in a frame (just written)
	// or in this snapshot. The waits happen unlatched — the flusher
	// needs the mutex to retire its registry entry.
	waits := make([]*flushWait, 0, len(m.flushing))
	for _, fw := range m.flushing {
		waits = append(waits, fw)
	}
	m.mu.Unlock()
	for _, fw := range waits {
		<-fw.done
		if fw.err != nil {
			return fw.err
		}
	}
	return nil
}

// OwnAll copies every frame that views the store's mapped generation
// into the frame's own buffer, so that no frame refers to the mapping
// any more — call it before the generation is released
// (storage.PromoteGeneration, Store.Close). It cannot reach a page
// slice handed out earlier, and a miss after it views the mapping
// again: the caller keeps requests out from before OwnAll until the
// generation is gone.
func (m *Manager) OwnAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.frames {
		f := &m.frames[i]
		// A loading frame's page is its loader's until the load ends;
		// no frame is claimed while the miss mutex is held.
		if !f.loading.Load() {
			f.ownPage()
		}
	}
}

// Stats returns hit and miss counts: every request is one or the
// other. Hits are counted in the frame that answered them — by the
// page table, or by a Pin that already held the page, which adds its
// count when it lets go — and summed over the frames here, so reading
// them is not one atomic snapshot, but each count is exact once the
// pool quiesces and no Pin is held.
func (m *Manager) Stats() (hits, misses uint64) {
	table, pinned, misses := m.counts()
	return table + pinned, misses
}

// Lookups returns how many requests went to the page table (hits there
// plus misses): Stats less the requests a Pin answered itself.
func (m *Manager) Lookups() uint64 {
	table, _, misses := m.counts()
	return table + misses
}

// counts sums the frames' table and Pin hit counts and reads the miss
// count.
func (m *Manager) counts() (table, pinned, misses uint64) {
	for i := range m.frames {
		f := &m.frames[i]
		table += f.tableHits.Load()
		pinned += f.pinHits.Load()
	}
	m.mu.Lock()
	misses = m.misses
	m.mu.Unlock()
	return table, pinned, misses
}

// Resident reports whether every page of the store is in the pool:
// then no request misses until a page is added to the store. It holds
// the miss mutex, so no frame changes hands while it counts; a frame
// still loading does not count.
func (m *Manager) Resident() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for i := range m.frames {
		// loading clears after valid is set (see miss).
		if f := &m.frames[i]; !f.loading.Load() && f.valid {
			n++
		}
	}
	return n == m.store.Pages()
}

// NumPages returns the length of a storage file in pages (pass-through
// to the storage manager so access methods need only the pool).
func (m *Manager) NumPages(file int) int { return m.store.NumPages(file) }

// PinnedFrames returns the number of currently pinned frames (for
// leak checks in tests). It holds the miss mutex, so no frame changes
// hands while it counts.
func (m *Manager) PinnedFrames() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for i := range m.frames {
		if m.frames[i].pins.Load() > 0 {
			n++
		}
	}
	return n
}

// Size returns the pool size in frames.
func (m *Manager) Size() int { return len(m.frames) }
