// Package engine assembles the database kernel: catalog, storage
// manager, buffer pool, access methods and executor, with bulk loading
// and index maintenance — the "backend" of the paper's Figure 1.
//
// Concurrency model: the engine carries a single reader-preferring
// reader/writer latch. Queries run under the shared side (BeginRead),
// so any number of sessions can execute plans at once — including
// nested reads from a session with an open result set; Insert,
// CreateTable and CreateIndex take the exclusive side, so writers
// never mutate heap pages or the access-method maps under a running
// scan. The layers below (catalog, buffer pool, storage) carry their
// own fine-grained latches, so even latch-free internal callers get
// racy-but-memory-safe behavior rather than corruption — except across
// the release of a checkpoint generation (Checkpoint, Close, Abandon),
// which buffer frames may view: that happens under the exclusive side,
// after the frames are copied off it (buffer.OwnAll).
package engine

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/dsdb/obs"
	"repro/internal/db/access"
	"repro/internal/db/buffer"
	"repro/internal/db/catalog"
	"repro/internal/db/storage"
	"repro/internal/db/value"
	"repro/internal/db/wal"
)

// rwLatch is the engine latch: a reader-preferring reader/writer
// lock. Unlike sync.RWMutex, a reader only waits while a writer is
// *active*, never behind a merely queued writer — so a session that
// already holds a read latch (an open result set) can issue nested
// reads without deadlocking against a waiting Insert. The price is
// that writers can starve under a saturated read load; acceptable for
// a decision-support kernel whose writes are loads and index builds.
type rwLatch struct {
	mu      sync.Mutex
	cond    sync.Cond
	readers int
	writer  bool
	// release is runlock, bound once so BeginRead hands out the same
	// func value every time instead of allocating a method value.
	release func()
}

func newRWLatch() *rwLatch {
	l := &rwLatch{}
	l.cond.L = &l.mu
	l.release = l.runlock
	return l
}

func (l *rwLatch) rlock() {
	l.mu.Lock()
	for l.writer {
		l.cond.Wait()
	}
	l.readers++
	l.mu.Unlock()
}

func (l *rwLatch) runlock() {
	l.mu.Lock()
	l.readers--
	if l.readers == 0 {
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

func (l *rwLatch) lock() {
	l.mu.Lock()
	for l.writer || l.readers > 0 {
		l.cond.Wait()
	}
	l.writer = true
	l.mu.Unlock()
}

func (l *rwLatch) unlock() {
	l.mu.Lock()
	l.writer = false
	l.cond.Broadcast()
	l.mu.Unlock()
}

// DB is one database instance.
type DB struct {
	Cat   *catalog.Catalog
	Store *storage.Store
	Buf   *buffer.Manager

	// latch is the engine latch: shared for query execution and the
	// map accessors, exclusive for Insert and DDL.
	latch  *rwLatch
	heaps  map[string]*access.Heap
	btrees map[string]*access.BTree
	hashes map[string]*access.HashIndex
	rows   map[string]int

	// epochs carries one monotonic write-epoch counter per table,
	// bumped by every Insert and every DDL statement that touches the
	// table. Epochs are how the result cache (dsdb/qcache) validates
	// entries: a cached result is served only while every referenced
	// table's epoch is unchanged. Like the other maps, epochs is
	// written under the exclusive latch and read under the shared one.
	epochs map[string]uint64

	// Durable-mode state (see durable.go; zero in memory mode).
	// logging gates both the logical write-ahead records appended by
	// Insert/DDL and the page-image spills from the disk store — off
	// during recovery replay, bulk loads and checkpoints.
	durable bool
	dir     string
	wal     *wal.Writer
	logging atomic.Bool
	gen     uint64
	lock    *os.File
	closeMu sync.Mutex
	closed  bool
	// enc is the logged insert's encoding buffer, used under the
	// exclusive latch: the WAL copies the bytes into its frame and the
	// heap into its page, so neither keeps them.
	enc []byte

	// failed poisons the engine after a checkpoint failure past the
	// point of no return (manifest published, promote or log truncation
	// failed): every further write returns it, because appended records
	// would land in segments recovery no longer reads. Written and read
	// under the exclusive latch.
	failed error
}

// Open creates an empty database with a buffer pool of the given
// number of frames.
func Open(frames int) *DB {
	st := storage.NewStore(0)
	return &DB{
		Cat:    catalog.New(),
		Store:  st,
		Buf:    buffer.New(st, frames),
		latch:  newRWLatch(),
		heaps:  make(map[string]*access.Heap),
		btrees: make(map[string]*access.BTree),
		hashes: make(map[string]*access.HashIndex),
		rows:   make(map[string]int),
		epochs: make(map[string]uint64),
	}
}

// BeginRead acquires the engine latch in shared mode for the duration
// of a query (compile + execute) and returns the release function.
// Readers run concurrently with each other and exclude Insert/DDL.
// Readers never wait behind a merely queued writer, so nested reads
// (a query issued while another result set is open) are safe; do not
// call Insert or DDL from a goroutine that still holds a read latch.
//
//lint:allow unlockpath the latch deliberately escapes as the returned release closure
func (db *DB) BeginRead() func() {
	db.latch.rlock()
	return db.latch.release
}

// CreateTable registers a table and its heap file. In durable mode
// the statement is logged before the catalog mutates.
func (db *DB) CreateTable(name string, schema *catalog.Schema) (*catalog.Table, error) {
	db.latch.lock()
	defer db.latch.unlock()
	if db.failed != nil {
		return nil, db.failed
	}
	if _, dup := db.Cat.Table(name); dup {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	cols := make([]wal.Column, schema.Len())
	for i, c := range schema.Columns {
		cols[i] = wal.Column{Name: c.Name, Type: uint8(c.Type)}
	}
	if err := db.logRecord(wal.CreateTable{Name: name, Cols: cols}); err != nil {
		return nil, err
	}
	t, err := db.Cat.AddTable(name, schema)
	if err != nil {
		return nil, err
	}
	db.Store.EnsureFiles(db.Cat.NumFiles())
	db.heaps[name] = access.NewHeap(db.Buf, t.FileID)
	db.epochs[name]++
	return t, nil
}

// CreateIndex builds an index on table.column. For hash indices the
// bucket count is sized from the current table cardinality, so build
// indices after loading (as the paper's database setup does).
func (db *DB) CreateIndex(table, column string, kind catalog.IndexKind, unique bool) error {
	db.latch.lock()
	defer db.latch.unlock()
	if db.failed != nil {
		return db.failed
	}
	// Validate what the write-ahead record must not capture: a logged
	// DDL statement is replayed verbatim on recovery, so it has to be
	// one that succeeds.
	t, ok := db.Cat.Table(table)
	if !ok {
		return fmt.Errorf("catalog: no table %q", table)
	}
	if t.Schema.ColIndex(column) < 0 {
		return fmt.Errorf("catalog: no column %q in %q", column, table)
	}
	if ct := t.Schema.Columns[t.Schema.ColIndex(column)].Type; ct != value.Int && ct != value.Date {
		return fmt.Errorf("engine: index on %s.%s: only integer/date keys supported (column is %s)", table, column, ct)
	}
	logged := db.durable && db.logging.Load()
	if err := db.logRecord(wal.CreateIndex{Table: table, Column: column, Kind: uint8(kind), Unique: unique}); err != nil {
		return err
	}
	ix, err := db.Cat.AddIndex(table, column, kind, unique)
	if err != nil {
		return db.writeFailed(logged, err)
	}
	db.epochs[table]++
	db.Store.EnsureFiles(db.Cat.NumFiles())
	switch kind {
	case catalog.BTree:
		bt, err := access.CreateBTree(db.Buf, ix.FileID)
		if err != nil {
			return db.writeFailed(logged, err)
		}
		db.btrees[ix.Name] = bt
	case catalog.Hash:
		buckets := db.rows[table]/200 + 4
		hx, err := access.CreateHashIndex(db.Buf, ix.FileID, buckets)
		if err != nil {
			return db.writeFailed(logged, err)
		}
		db.hashes[ix.Name] = hx
	}
	// Backfill from the heap, deforming the key column only.
	scan := db.heaps[table].BeginScan(ix.Col)
	defer scan.Close()
	var buf []value.Value
	for {
		key, tid, ok, err := scan.Next(nil, buf)
		if err != nil {
			return db.writeFailed(logged, err)
		}
		if !ok {
			break
		}
		if err := db.indexInsertOne(ix, key[0], tid); err != nil {
			return db.writeFailed(logged, err)
		}
		buf = key
	}
	return nil
}

func (db *DB) indexInsertOne(ix *catalog.Index, key value.Value, tid storage.TID) error {
	if key.T != value.Int && key.T != value.Date {
		return fmt.Errorf("engine: index %s: only integer/date keys supported", ix.Name)
	}
	switch ix.Kind {
	case catalog.BTree:
		return db.btrees[ix.Name].Insert(key.I, tid)
	default:
		return db.hashes[ix.Name].Insert(key.I, tid)
	}
}

// Insert appends a row to a table, maintaining its indices. The
// engine latch is held exclusively, so the heap append and every
// index insert land atomically with respect to running queries. All
// validation — arity, tuple size, index key types — happens before
// anything mutates: a row either lands in full (heap and every index)
// or not at all, which is also what lets durable mode journal the row
// up front and replay the record unconditionally on recovery.
func (db *DB) Insert(table string, row []value.Value) error {
	return db.InsertSpanned(table, row, nil)
}

// InsertSpanned is Insert with an observability span attached: the
// WAL append — the durability fsync, the dominant cost of a durable
// insert — is timed into the span's WAL stage. A nil span inserts
// unobserved at no extra cost.
func (db *DB) InsertSpanned(table string, row []value.Value, sp *obs.Span) error {
	db.latch.lock()
	defer db.latch.unlock()
	if db.failed != nil {
		return db.failed
	}
	t, ok := db.Cat.Table(table)
	if !ok {
		return fmt.Errorf("engine: no table %q", table)
	}
	if len(row) != t.Schema.Len() {
		return fmt.Errorf("engine: %s: got %d values, want %d", table, len(row), t.Schema.Len())
	}
	for _, ix := range t.Indexes {
		if key := row[ix.Col]; key.T != value.Int && key.T != value.Date {
			return fmt.Errorf("engine: index %s: only integer/date keys supported", ix.Name)
		}
	}
	var tid storage.TID
	var err error
	logged := false
	if db.durable && db.logging.Load() {
		// Log-then-apply, encoding exactly once: the journaled bytes
		// are the bytes the heap stores. Unlogged paths (memory mode,
		// bulk loads, replay) let the heap encode for itself.
		data := storage.EncodeTuple(row, db.enc)
		db.enc = data
		if err := access.CheckTupleSize(data); err != nil {
			return err
		}
		var walStart time.Time
		if sp != nil {
			walStart = time.Now()
		}
		err := db.wal.Append(wal.Insert{Table: table, Tuple: data})
		if sp != nil {
			sp.Add(obs.StageWAL, time.Since(walStart))
		}
		if err != nil {
			return err
		}
		logged = true
		tid, err = db.heaps[table].InsertTuple(data)
	} else {
		tid, err = db.heaps[table].Insert(row, nil)
	}
	if err != nil {
		return db.writeFailed(logged, err)
	}
	// The heap has mutated: bump the epoch now, not after index
	// maintenance, so even an index IO failure cannot leave a cached
	// result validating against a heap it no longer matches.
	db.epochs[table]++
	for _, ix := range t.Indexes {
		if err := db.indexInsertOne(ix, row[ix.Col], tid); err != nil {
			return db.writeFailed(logged, err)
		}
	}
	db.rows[table]++
	return nil
}

// writeFailed handles an apply failure, possibly after the operation's
// WAL record was already committed. Validation rejects everything a
// record could deterministically fail on before it is appended, so a
// post-append failure is environmental (I/O, pool exhaustion) — the
// logged operation WILL be applied by recovery, diverging from what
// this process told its caller. Poison the engine so the divergence
// cannot compound: further writes fail until the directory is
// reopened, and reopening applies the record cleanly. The caller holds
// the exclusive latch.
func (db *DB) writeFailed(logged bool, err error) error {
	if logged && db.failed == nil {
		db.failed = fmt.Errorf("engine: write failed after its WAL record was committed (reopen the data directory to recover): %w", err)
	}
	return err
}

// NumRows returns the loaded cardinality of a table. Like the other
// map accessors below, it must be called either under the shared
// latch (BeginRead) or on a quiesced engine: the latch is not
// reentrant, so the accessors do not take it themselves.
func (db *DB) NumRows(table string) int { return db.rows[table] }

// TableEpoch returns a table's write epoch: a monotonic counter bumped
// by every Insert and every DDL statement touching the table (0 for a
// table that was never written). Call under BeginRead, like the other
// map accessors — a reader holding the shared latch sees a stable
// epoch for the whole execution, since writers are excluded.
func (db *DB) TableEpoch(table string) uint64 { return db.epochs[table] }

// WALSeq returns the sequence number of the write-ahead log segment
// currently appended to (0 on a non-durable database). Safe without
// the engine latch: the WAL writer has its own mutex and the wal
// pointer is immutable after open.
func (db *DB) WALSeq() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.Seq()
}

// WALCounters returns the write-ahead log's lifetime append/fsync
// counters (zero on a non-durable database). Safe without the engine
// latch: the counters are atomic.
func (db *DB) WALCounters() wal.Counters {
	if db.wal == nil {
		return wal.Counters{}
	}
	return db.wal.Counters()
}

// Heap returns a table's heap access method (call under BeginRead).
func (db *DB) Heap(table string) *access.Heap { return db.heaps[table] }

// BTreeFor returns the B-tree for an index descriptor, if built
// (call under BeginRead).
func (db *DB) BTreeFor(ix *catalog.Index) *access.BTree { return db.btrees[ix.Name] }

// HashFor returns the hash index for an index descriptor, if built
// (call under BeginRead).
func (db *DB) HashFor(ix *catalog.Index) *access.HashIndex { return db.hashes[ix.Name] }

// Flush writes back all dirty pages (call after loading). It holds
// the engine latch shared: dirty frame bytes are only ever mutated by
// Insert and the DDL backfills, which hold it exclusively, so the
// flush never reads a page mid-write.
func (db *DB) Flush() error {
	db.latch.rlock()
	defer db.latch.runlock()
	return db.Buf.FlushAll()
}
