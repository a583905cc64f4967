package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/db/access"
	"repro/internal/db/buffer"
	"repro/internal/db/catalog"
	"repro/internal/db/storage"
	"repro/internal/db/value"
	"repro/internal/db/wal"
)

// Durable mode. OpenDurable roots a database in a data directory:
//
//	<dir>/MANIFEST        catalog snapshot + generation + WAL position
//	<dir>/gen-NNNNNN/     page files of the last checkpoint (immutable)
//	<dir>/wal/            write-ahead log segments since the checkpoint
//	<dir>/LOCK            single-process guard
//
// Every Insert and DDL statement appends a logical record to the WAL
// before mutating anything, and the disk store journals evicted dirty
// pages as full page images, so a crash at any instant loses at most
// the record being appended. Checkpoint collapses the log back into
// page files: flush dirty frames, write the merged state as a new
// generation, atomically publish a manifest naming it, then truncate
// the log. Recovery is the reverse — load the manifest's generation
// and catalog, then replay the log in order, stopping exactly at the
// committed prefix (a torn final record is discarded; corruption
// anywhere earlier aborts the open rather than silently dropping
// committed work).

const (
	manifestName    = "MANIFEST"
	manifestVersion = 1
	walSubdir       = "wal"
	lockName        = "LOCK"
)

type colMeta struct {
	Name string `json:"name"`
	Type uint8  `json:"type"`
}

type indexMeta struct {
	Column string `json:"column"`
	Kind   uint8  `json:"kind"`
	Unique bool   `json:"unique"`
	FileID int    `json:"file_id"`
}

type tableMeta struct {
	Name    string      `json:"name"`
	Cols    []colMeta   `json:"cols"`
	FileID  int         `json:"file_id"`
	Rows    int         `json:"rows"`
	Indexes []indexMeta `json:"indexes,omitempty"`
}

// manifest is the durable root of a data directory: which checkpoint
// generation holds the page files, where WAL replay starts, and the
// full catalog as of the checkpoint. It is only ever replaced by an
// atomic rename, so a data directory always has a consistent one.
type manifest struct {
	Version    int         `json:"version"`
	Gen        uint64      `json:"gen"`
	WALSeq     uint64      `json:"wal_seq"`
	NextFileID int         `json:"next_file_id"`
	Tables     []tableMeta `json:"tables"`
}

// readManifest returns nil (no error) when the directory has none.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("engine: corrupt manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("engine: manifest version %d, want %d", m.Version, manifestVersion)
	}
	return &m, nil
}

// writeManifest publishes m atomically: write a temp file, fsync it,
// rename over MANIFEST, fsync the directory.
func writeManifest(dir string, m *manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return storage.SyncDir(dir)
}

// OpenDurable opens (creating or recovering) a durable database rooted
// at dir with a buffer pool of the given number of frames. recovered
// reports whether existing state was found — a manifest, or committed
// WAL records from a run that never checkpointed — and replayed; a
// fresh directory opens empty with recovered false.
//
// The directory is guarded by an advisory file lock: a second
// concurrent open fails rather than corrupting the log.
func OpenDurable(frames int, dir string) (db *DB, recovered bool, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, false, err
	}
	lock, err := lockDir(filepath.Join(dir, lockName))
	if err != nil {
		return nil, false, err
	}
	defer func() {
		if err != nil && lock != nil {
			lock.Close()
		}
	}()

	m, err := readManifest(dir)
	if err != nil {
		return nil, false, err
	}
	var gen, walSeq uint64 = 0, 1
	nfiles := 0
	if m != nil {
		gen, walSeq, nfiles = m.Gen, m.WALSeq, m.NextFileID
	}
	st, err := storage.OpenDiskStore(dir, gen, nfiles)
	if err != nil {
		return nil, false, err
	}
	db = &DB{
		Cat:     catalog.New(),
		Store:   st,
		Buf:     buffer.New(st, frames),
		latch:   newRWLatch(),
		heaps:   make(map[string]*access.Heap),
		btrees:  make(map[string]*access.BTree),
		hashes:  make(map[string]*access.HashIndex),
		rows:    make(map[string]int),
		epochs:  make(map[string]uint64),
		durable: true,
		dir:     dir,
		gen:     gen,
		lock:    lock,
	}
	if m != nil {
		if err := db.restoreCatalog(m); err != nil {
			st.Close()
			return nil, false, err
		}
		// A checkpoint that crashed after writing its generation but
		// before publishing the manifest left a half-built directory.
		if err := storage.RemoveStaleGenerations(dir, gen); err != nil {
			st.Close()
			return nil, false, err
		}
	}

	// Replay the committed log prefix. Logging is still off, so the
	// replayed operations do not re-journal themselves.
	applied := 0
	walDir := filepath.Join(dir, walSubdir)
	tail, err := wal.Replay(walDir, walSeq, func(rec wal.Record) error {
		applied++
		return db.applyRecord(rec)
	})
	if err != nil {
		st.Close()
		return nil, false, fmt.Errorf("engine: wal replay: %w", err)
	}
	w, err := wal.OpenWriter(walDir, tail, wal.Options{})
	if err != nil {
		st.Close()
		return nil, false, err
	}
	db.wal = w
	db.logging.Store(true)
	st.SetSpill(db.spillPage)
	return db, m != nil || applied > 0, nil
}

// restoreCatalog rebuilds the catalog, heaps and index handles from a
// manifest. Catalog file IDs are assigned sequentially in creation
// order, and creation order is exactly ascending file ID — so
// re-adding tables and indexes in that order reproduces every ID.
//
//lint:allow walcheck recovery replay: the manifest IS the durable record, nothing here needs relogging
func (db *DB) restoreCatalog(m *manifest) error {
	type item struct {
		fileID int
		table  *tableMeta
		owner  *tableMeta
		index  *indexMeta
	}
	var items []item
	for i := range m.Tables {
		t := &m.Tables[i]
		items = append(items, item{fileID: t.FileID, table: t})
		for j := range t.Indexes {
			items = append(items, item{fileID: t.Indexes[j].FileID, owner: t, index: &t.Indexes[j]})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].fileID < items[j].fileID })
	for _, it := range items {
		if it.table != nil {
			cols := make([]catalog.Column, len(it.table.Cols))
			for i, c := range it.table.Cols {
				cols[i] = catalog.Column{Name: c.Name, Type: value.Type(c.Type)}
			}
			t, err := db.Cat.AddTable(it.table.Name, catalog.NewSchema(cols...))
			if err != nil {
				return err
			}
			if t.FileID != it.table.FileID {
				return fmt.Errorf("engine: manifest file ID mismatch for table %s: %d vs %d", t.Name, t.FileID, it.table.FileID)
			}
			db.heaps[t.Name] = access.NewHeap(db.Buf, t.FileID)
			db.rows[t.Name] = it.table.Rows
			continue
		}
		ix, err := db.Cat.AddIndex(it.owner.Name, it.index.Column, catalog.IndexKind(it.index.Kind), it.index.Unique)
		if err != nil {
			return err
		}
		if ix.FileID != it.index.FileID {
			return fmt.Errorf("engine: manifest file ID mismatch for index %s: %d vs %d", ix.Name, ix.FileID, it.index.FileID)
		}
		switch ix.Kind {
		case catalog.BTree:
			db.btrees[ix.Name] = access.OpenBTree(db.Buf, ix.FileID)
		case catalog.Hash:
			hx, err := access.OpenHashIndex(db.Buf, ix.FileID)
			if err != nil {
				return err
			}
			db.hashes[ix.Name] = hx
		}
	}
	return nil
}

// applyRecord replays one WAL record through the normal engine paths
// (logging disabled, so nothing is re-journaled). Inserts and DDL run
// exactly the code that produced them, which is what makes replay
// deterministic; page images go straight into the storage overlay —
// by construction they equal what the logical replay (re)computes, so
// order is the only thing that matters.
func (db *DB) applyRecord(rec wal.Record) error {
	switch r := rec.(type) {
	case wal.CreateTable:
		cols := make([]catalog.Column, len(r.Cols))
		for i, c := range r.Cols {
			cols[i] = catalog.Column{Name: c.Name, Type: value.Type(c.Type)}
		}
		_, err := db.CreateTable(r.Name, catalog.NewSchema(cols...))
		return err
	case wal.CreateIndex:
		return db.CreateIndex(r.Table, r.Column, catalog.IndexKind(r.Kind), r.Unique)
	case wal.Insert:
		vals, err := storage.DecodeTuple(r.Tuple, nil, nil)
		if err != nil {
			return err
		}
		return db.Insert(r.Table, vals)
	case wal.PageWrite:
		return db.Store.InstallRecovered(int(r.File), int(r.Page), r.Data)
	default:
		return fmt.Errorf("engine: unknown wal record %T", rec)
	}
}

// spillPage is the disk store's page-write observer: between
// checkpoints every page image that leaves the buffer pool (an
// eviction of a dirty frame, or FlushAll) is journaled, so the log
// carries everything the immutable base files do not.
func (db *DB) spillPage(file, page int, data []byte) error {
	if !db.logging.Load() {
		return nil
	}
	return db.wal.Append(wal.PageWrite{File: uint32(file), Page: uint32(page), Data: data})
}

// logRecord appends one logical record if write-ahead logging is
// active (durable mode, not replaying, not bulk-loading).
func (db *DB) logRecord(rec wal.Record) error {
	if !db.durable || !db.logging.Load() {
		return nil
	}
	return db.wal.Append(rec)
}

// SetLogging toggles write-ahead logging on a durable engine. Bulk
// loads turn it off, load, then Checkpoint — which captures the loaded
// state in page files and re-enables logging — so per-row records are
// never written for data a checkpoint is about to absorb. Call only on
// a quiesced engine; no effect in memory mode.
func (db *DB) SetLogging(on bool) {
	if db.durable {
		db.logging.Store(on)
	}
}

// Durable reports whether the engine persists to a data directory.
func (db *DB) Durable() bool { return db.durable }

// Checkpoint makes the current committed state the new recovery base:
// flush every dirty frame, write the merged pages as a fresh
// generation, atomically publish the manifest naming it, promote it
// and truncate the write-ahead log. It quiesces the engine (exclusive
// latch) for the duration and re-enables logging on success. On a
// memory-mode engine it degrades to Flush.
func (db *DB) Checkpoint() error {
	if !db.durable {
		return db.Flush()
	}
	db.latch.lock()
	defer db.latch.unlock()
	if db.failed != nil {
		return db.failed
	}
	// Suppress page-image journaling for the flush: these pages are
	// landing in the new generation, so log records for them would be
	// truncated moments later.
	db.logging.Store(false)
	if err := db.Buf.FlushAll(); err != nil {
		db.logging.Store(true)
		return err
	}
	newGen := db.gen + 1
	if err := db.Store.WriteGeneration(newGen); err != nil {
		db.logging.Store(true)
		return err
	}
	newSeq := db.wal.NextSeq()
	if err := writeManifest(db.dir, db.snapshotManifest(newGen, newSeq)); err != nil {
		db.logging.Store(true)
		return err
	}
	// The manifest now names the new generation: promote and truncate.
	// A failure past this point cannot be rolled back — the published
	// manifest already routes recovery through newGen/newSeq, so a log
	// that kept appending to the old segments would be silently skipped
	// on replay. Poison the engine instead: every further write fails
	// until the process reopens the directory (recovery is safe — the
	// checkpointed state is complete and durable).
	//
	// Promoting unmaps the old generation, which buffer frames may still
	// view: copy them off it first (the latch keeps new views out).
	db.Buf.OwnAll()
	if err := db.Store.PromoteGeneration(newGen); err != nil {
		db.poison(err)
		return err
	}
	if err := db.wal.ResetTo(newSeq); err != nil {
		db.poison(err)
		return err
	}
	db.gen = newGen
	db.logging.Store(true)
	return nil
}

// poison marks the durable engine write-dead after a checkpoint
// failure that cannot be rolled back. The caller holds the exclusive
// latch.
func (db *DB) poison(err error) {
	db.failed = fmt.Errorf("engine: checkpoint failed past the point of no return (reopen the data directory): %w", err)
}

// snapshotManifest captures the catalog under the exclusive latch.
func (db *DB) snapshotManifest(gen, walSeq uint64) *manifest {
	m := &manifest{
		Version:    manifestVersion,
		Gen:        gen,
		WALSeq:     walSeq,
		NextFileID: db.Cat.NumFiles(),
	}
	for _, t := range db.Cat.Tables() {
		tm := tableMeta{Name: t.Name, FileID: t.FileID, Rows: db.rows[t.Name]}
		for _, c := range t.Schema.Columns {
			tm.Cols = append(tm.Cols, colMeta{Name: c.Name, Type: uint8(c.Type)})
		}
		for _, ix := range t.Indexes {
			tm.Indexes = append(tm.Indexes, indexMeta{
				Column: ix.Column, Kind: uint8(ix.Kind), Unique: ix.Unique, FileID: ix.FileID,
			})
		}
		m.Tables = append(m.Tables, tm)
	}
	return m
}

// Abandon drops a durable engine without checkpointing or flushing:
// the data directory is left exactly as a crash at this instant would
// leave it — manifest and page files from the last checkpoint, WAL
// carrying everything since — and the directory lock is released so it
// can be reopened. Dirty frames die with the buffer pool; recovery
// reconstructs them from the log. It is the crash-simulation hook the
// durability tests are built on, and a no-op in memory mode.
func (db *DB) Abandon() {
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	if db.closed || !db.durable {
		db.closed = true
		return
	}
	db.closed = true
	db.logging.Store(false)
	db.wal.Close() //lint:allow walcheck crash simulation discards the writer; a close error is part of the simulated crash
	db.closeStore()
	if db.lock != nil {
		db.lock.Close()
	}
}

// Close shuts the engine down. A durable engine checkpoints (so the
// next open recovers instantly, with nothing to replay), closes the
// log and releases the directory lock; a memory engine just flushes.
// Close is idempotent.
func (db *DB) Close() error {
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if !db.durable {
		return db.Flush()
	}
	err := db.Checkpoint()
	if werr := db.wal.Close(); err == nil {
		err = werr
	}
	if serr := db.closeStore(); err == nil {
		err = serr
	}
	if db.lock != nil {
		db.lock.Close()
	}
	return err
}

// closeStore copies every buffer frame off the mapped generation and
// closes the store, under the exclusive latch so that no query creates
// a view between the two: a query on the closed engine reads pages it
// still buffers and fails on a miss — an error, never a fault.
func (db *DB) closeStore() error {
	db.latch.lock()
	defer db.latch.unlock()
	db.Buf.OwnAll()
	return db.Store.Close()
}
