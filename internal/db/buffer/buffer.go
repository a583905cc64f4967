// Package buffer implements the buffer manager of the database kernel:
// a fixed pool of page frames over the storage manager with clock
// (second-chance) replacement, pin/unpin discipline and hit/miss
// statistics — the module the paper identifies (with the access
// methods) as a major source of instruction-cache misses.
//
// The pool is latched at three granularities, so that a page request
// takes the cheapest one that can serve it:
//
//   - Lookup shards. The key → frame table is split over numShards
//     maps, each under its own mutex with its own hit count. A hit
//     locks one shard, pins the frame with an atomic add and unlocks;
//     Release is an atomic decrement and takes no lock at all. pins,
//     ref and dirty are per-frame atomics, and frames and shards are
//     padded to their own cache lines, so two sessions hitting
//     different pages write no common line. A frame goes from unpinned
//     to pinned only under the shard of its key, which is what lets
//     the eviction below trust a zero pin count it reads there.
//   - The miss mutex (Manager.mu). The clock hand, the victim claim,
//     the miss count and the in-flight flush registry stay under one
//     pool-wide mutex, taken on the miss path only. It nests outside
//     the shards (pool → shard, never two shards at once): the sweep
//     unmaps its victim under the victim's shard after re-checking
//     there that nobody pinned it, then publishes the claim under the
//     new key's shard. A clean miss takes four locks (shard lookup,
//     miss mutex, victim's shard, new key's shard), three when it
//     takes a free frame; finishing the load takes none.
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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db/probe"
	"repro/internal/db/storage"
)

// key names a page: the file number in the high half, the page number
// in the low half. One word, so the lookup tables hash it with the
// runtime's 64-bit fast path.
type key uint64

func keyOf(file, page int) key { return key(uint64(uint32(file))<<32 | uint64(uint32(page))) }

func (k key) file() int { return int(uint32(k >> 32)) }
func (k key) page() int { return int(uint32(k)) }

// frame is one page slot, padded to two cache lines so neighbouring
// frames' pin counts do not share one.
type frame struct {
	// pins, ref and dirty are atomics: a hit pins under its shard only,
	// Release and the clock's reference bit take no lock.
	pins  atomic.Int32
	ref   atomic.Bool
	dirty atomic.Bool

	// loading marks a claimed frame whose IO (evict-flush + storage
	// read) is in flight under the frame-local latch: the key is
	// published in the lookup table, pins is at least 1 (the loader's),
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

	// key and valid change only in the hands of the frame's claimant —
	// under the miss mutex with the frame unmapped and unpinned, or by
	// the loader while it holds its pin. Everyone else reads them
	// either under the miss mutex or while holding a pin of their own.
	key   key
	valid bool

	// page is the frame's contents: either own, the buffer New made for
	// the frame, or a read-only view of the store's mapped generation,
	// which the loader keeps instead of copying a checkpointed page. A
	// view becomes own — copied, under the shard of the frame's key —
	// when a writer asks for the page (GetForWrite) and in OwnAll, so a
	// dirty frame's page is own, and a failed load leaves the frame on
	// own. page is atomic because that switch happens while readers
	// hold the frame; a reader keeps whichever bytes it loaded, and both
	// stay valid while it holds its pin.
	page atomic.Pointer[[storage.PageBytes]byte]
	own  *[storage.PageBytes]byte

	_ [56]byte
}

// viewing reports whether the frame's page is a view of the store's
// generation rather than its own buffer.
func (f *frame) viewing() bool { return f.page.Load() != f.own }

// shard is one slice of the lookup table, padded to a cache line.
type shard struct {
	mu    sync.Mutex
	table map[key]*frame
	hits  uint64 // requests answered from this table

	// gen counts inserts. A miss reads it under mu with its failed
	// lookup and again under the miss mutex: unchanged means no claim
	// for its key can have been published in between (inserts happen
	// under the miss mutex only), so the lookup need not be repeated;
	// changed, the miss starts over.
	gen atomic.Uint64

	_ [32]byte
}

// numShards is the number of lookup shards (a power of two).
const (
	shardBits = 6
	numShards = 1 << shardBits
)

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
	shards []shard

	// pinHits counts requests answered by a Pin that already held the
	// page; each Pin folds its own count in when it lets go.
	pinHits atomic.Uint64

	mu     sync.Mutex // the miss mutex: guards hand, misses and flushing
	hand   int
	misses uint64

	// flushing tracks pages whose evict-flush is in flight outside the
	// miss mutex: the victim's lookup entry is gone (its frame was
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
		shards:   make([]shard, numShards),
		flushing: make(map[key]*flushWait),
	}
	for i := range m.frames {
		f := &m.frames[i]
		f.own = (*[storage.PageBytes]byte)(storage.NewPage())
		f.page.Store(f.own)
		f.ready = make(chan struct{}, 1)
		f.ready <- struct{}{}
	}
	for i := range m.shards {
		m.shards[i].table = make(map[key]*frame, n/numShards+1)
	}
	return m
}

// shardOf returns the lookup shard of k (Fibonacci hashing, so the
// pages of one file spread over all shards).
func (m *Manager) shardOf(k key) *shard {
	return &m.shards[uint64(k)*0x9E3779B97F4A7C15>>(64-shardBits)]
}

// Get pins the given page, reading it from storage on a miss. The
// tracer receives the ReadBuffer instrumentation events (nil means
// untraced); if it is a probe.IOWaiter it also receives the time the
// session spends blocked on pool IO — evict-flushes, storage reads, and
// waits on another session's in-flight read. Two sessions racing for
// an unbuffered page still read it from storage exactly once: the
// first claims the frame and performs the read, the loser finds the
// in-flight claim in the lookup table, waits on that frame's latch,
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
	k := keyOf(file, page)
	f, err := m.pin(nil, nil, k)
	if err != nil {
		return Buf{}, err
	}
	if f.viewing() {
		sh := m.shardOf(k)
		sh.mu.Lock()
		f.ownPage()
		sh.mu.Unlock()
	}
	return Buf{Page: f.own[:], File: file, PageNo: page, f: f, write: true}, nil
}

// ownPage copies a viewed page into the frame's own buffer and makes
// that the page. The caller holds the shard of f's key, which is what
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
func (m *Manager) pin(tr, rec probe.Tracer, k key) (*frame, error) {
	sh := m.shardOf(k)
	sh.mu.Lock()
	f, ok := sh.table[k]
	if !ok {
		gen := sh.gen.Load()
		sh.mu.Unlock()
		return m.miss(tr, rec, sh, gen, k)
	}
	f.pins.Add(1)
	if f.loading.Load() {
		sh.mu.Unlock()
		return m.awaitLoad(tr, rec, sh, f)
	}
	sh.hits++
	sh.mu.Unlock()
	f.touch()
	probe.Emit(rec, probe.BufGetEnter)
	probe.Emit(rec, probe.BufTableLookup)
	probe.Emit(rec, probe.BufGetHit)
	return f, nil
}

// touch sets the clock's reference bit. Loading it first keeps a
// frame that is hit over and over from taking a store each time.
func (f *frame) touch() {
	if !f.ref.Load() {
		f.ref.Store(true)
	}
}

// awaitLoad completes a request that found another session's read of
// its page in flight. The caller pinned f under the shard (so it
// cannot be recycled under us) and saw it loading; wait on the frame's
// latch, then complete as a hit — the read happened once.
func (m *Manager) awaitLoad(tr, rec probe.Tracer, sh *shard, f *frame) (*frame, error) {
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
	sh.mu.Lock()
	sh.hits++
	sh.mu.Unlock()
	f.touch()
	probe.Emit(rec, probe.BufGetHit)
	return f, nil
}

// miss claims a frame for k and fills it. sh is k's shard and gen its
// insert count when the caller's lookup failed.
//
// The claim — clock sweep, unmapping the victim, publishing the frame
// under the new key, registering the victim's flush — happens under
// the miss mutex and does no IO. The evict-flush and the storage read
// — the slow part — then run under only the claimed frame's latch, so
// misses on different pages overlap their IO.
func (m *Manager) miss(tr, rec probe.Tracer, sh *shard, gen uint64, k key) (*frame, error) {
	m.mu.Lock()
	if sh.gen.Load() != gen {
		// Something was published in this shard since the lookup — maybe
		// a racing miss's claim for k. Look again.
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
	// The frame is unmapped and unpinned: nobody else can reach it
	// until the claim is published below.
	oldKey, needFlush := f.key, f.valid && f.dirty.Load()
	f.key = k
	f.valid = false
	if needFlush {
		f.dirty.Store(false)
	}
	f.pins.Store(1)
	f.touch()
	<-f.ready // the latch token; an unpinned frame always has it (see frame.ready)
	f.loading.Store(true)
	f.loadErr = nil
	sh.mu.Lock()
	sh.table[k] = f
	sh.gen.Add(1)
	sh.mu.Unlock()
	var flushOut *flushWait
	if needFlush {
		// Publish the in-flight flush before dropping the mutex: a
		// racing miss on oldKey no longer finds it in the lookup table
		// and must not read it from storage until this write lands.
		flushOut = &flushWait{done: make(chan struct{})}
		m.flushing[oldKey] = flushOut
	}
	// A racing eviction may still be flushing the page we are about to
	// read; its registration is visible here because its critical
	// section (unmap + register) completed before ours found the page
	// absent from the lookup table.
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
			m.failLoad(f, sh, err, &oldKey)
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
			m.failLoad(f, sh, ferr, nil)
			m.mu.Unlock()
			return nil, ferr
		}
	}
	probe.Emit(rec, probe.BufGetRead)
	p, err := m.store.ReadView(k.file(), k.page(), f.own[:])
	if err != nil {
		m.mu.Lock()
		m.failLoad(f, sh, err, nil)
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
// f.key in sh: unpublish the claim (the mapping can only still point
// at this frame if no restored frame took the key over — no session
// can re-claim a key that is present in the lookup table), hand the
// error to the waiters — they still hold pins, so the frame outlives
// them — and release the loader's pin and the latch token. restore,
// when non-nil, is the identity the frame goes back to, valid and
// dirty. The caller holds the miss mutex.
//
// loading drops only after the claim is unpublished: a session that
// found the claim saw loading set and reads loadErr, one that comes
// later does not find it.
func (m *Manager) failLoad(f *frame, sh *shard, err error, restore *key) {
	sh.mu.Lock()
	if sh.table[f.key] == f {
		delete(sh.table, f.key)
	}
	sh.mu.Unlock()
	f.loadErr = err
	f.valid = false
	f.page.Store(f.own)
	f.loading.Store(false)
	if restore != nil {
		f.key = *restore
		f.valid = true
		f.dirty.Store(true)
		rsh := m.shardOf(f.key)
		rsh.mu.Lock()
		rsh.table[f.key] = f
		rsh.gen.Add(1)
		rsh.mu.Unlock()
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

// evict picks a victim frame with the clock algorithm
// (StrategyGetBuffer) and unmaps it, without doing any IO: a dirty
// victim's flush happens in miss under the frame latch, after the miss
// mutex drops. The caller holds m.mu, so the sweep's probe events are
// appended to evs and handed back for the caller to emit after
// unlocking (handed back, not written through a pointer, which would
// move the caller's event buffer to the heap on every miss). Loading
// frames are pinned by their loader, so the pins check skips them.
func (m *Manager) evict(evs []probe.ID) (*frame, []probe.ID, error) {
	evs = append(evs, probe.BufClockEnter)
	n := len(m.frames)
	for sweep := 0; sweep < 2*n; sweep++ {
		f := &m.frames[m.hand]
		m.hand = (m.hand + 1) % n
		if f.pins.Load() > 0 {
			// Covers loading frames too (their loader holds a pin), and
			// failed-load frames still pinned by draining waiters.
			evs = append(evs, probe.BufClockSkip)
			continue
		}
		if !f.valid {
			return f, append(evs, probe.BufClockTake), nil
		}
		if f.ref.Load() {
			f.ref.Store(false)
			evs = append(evs, probe.BufClockSkip)
			continue
		}
		if !m.unmap(f) {
			evs = append(evs, probe.BufClockSkip)
			continue
		}
		return f, append(evs, probe.BufClockTake), nil
	}
	return nil, evs, fmt.Errorf("buffer: all %d frames pinned (an open scan retains its page, an index scan or join up to tree height + 2, until closed)", n)
}

// unmap removes an unpinned frame from the lookup table, or reports
// false if a hit pinned it after the sweep looked: pins leaves zero
// only under the shard of the frame's key, so the check made there
// holds until the entry is gone. The caller holds m.mu.
func (m *Manager) unmap(f *frame) bool {
	sh := m.shardOf(f.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f.pins.Load() != 0 {
		return false
	}
	delete(sh.table, f.key)
	return true
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
		if f.loading.Load() || !f.viewing() {
			continue
		}
		sh := m.shardOf(f.key)
		sh.mu.Lock()
		f.ownPage()
		sh.mu.Unlock()
	}
}

// Stats returns hit and miss counts: every request is one or the
// other. Hits are counted where they are answered — in the lookup
// shard, or in the Pin that already held the page, which adds its
// count when it lets go — so reading them is not one atomic snapshot,
// but each count is exact once the pool quiesces and no Pin is held.
func (m *Manager) Stats() (hits, misses uint64) {
	table, misses := m.tableCounts()
	return table + m.pinHits.Load(), misses
}

// Lookups returns how many requests went to the lookup table (hits
// there plus misses): Stats less the requests a Pin answered itself.
func (m *Manager) Lookups() uint64 {
	table, misses := m.tableCounts()
	return table + misses
}

func (m *Manager) tableCounts() (hits, misses uint64) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		sh.mu.Unlock()
	}
	m.mu.Lock()
	misses = m.misses
	m.mu.Unlock()
	return hits, misses
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
