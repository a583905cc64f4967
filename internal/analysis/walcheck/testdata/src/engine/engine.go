// Package engine is a testdata stand-in for the engine package,
// where walcheck's write-ahead dominance rule applies.
package engine

import (
	"access"
	"catalog"
	"wal"
)

type DB struct {
	w       *wal.Writer
	heap    *access.Heap
	cat     *catalog.Catalog
	durable bool
}

func (db *DB) logRecord(rec []byte) error {
	return db.w.Append(rec)
}

// --- Part 1: WAL writer errors must be consumed. ---

func (db *DB) badDiscard() {
	db.w.ResetTo(1) // want "wal.Writer.ResetTo error is discarded"
}

func (db *DB) badBlank() {
	_ = db.w.Close() // want "wal.Writer.Close error is assigned to _"
}

func (db *DB) badGo() {
	go db.w.ResetTo(1) // want "wal.Writer.ResetTo error is unreachable"
}

func (db *DB) badDefer() {
	defer db.w.Close() // want "wal.Writer.Close error is unreachable"
}

func (db *DB) legalChecked() error {
	if err := db.w.ResetTo(1); err != nil {
		return err
	}
	return db.w.Close()
}

// --- Part 2: mutations dominated by a write-ahead marker. ---

// legalInsert logs first, applies second: the write-ahead rule.
func (db *DB) legalInsert(rec []byte) error {
	if err := db.logRecord(rec); err != nil {
		return err
	}
	if _, err := db.heap.Insert(rec); err != nil {
		return err
	}
	return nil
}

// legalGated branches on the durability gate: the unlogged path marks
// itself as deliberate.
func (db *DB) legalGated(rec []byte) error {
	if db.durable {
		if err := db.logRecord(rec); err != nil {
			return err
		}
	}
	_, err := db.heap.Insert(rec)
	return err
}

func (db *DB) badMutateFirst(rec []byte) error {
	if _, err := db.heap.Insert(rec); err != nil { // want "Heap.Insert mutates durable state on a path with no preceding WAL log call"
		return err
	}
	return db.logRecord(rec)
}

// badOneBranch logs on only one arm, so the join point still has an
// unlogged path into the mutation.
func (db *DB) badOneBranch(rec []byte, replay bool) error {
	if replay {
		_ = rec
	} else {
		if err := db.logRecord(rec); err != nil {
			return err
		}
	}
	_, err := db.heap.Insert(rec) // want "Heap.Insert mutates durable state on a path with no preceding WAL log call"
	return err
}

func (db *DB) badCatalog(name string) error {
	return db.cat.AddTable(name) // want "Catalog.AddTable mutates durable state on a path with no preceding WAL log call"
}

// restore rebuilds the catalog from recovery state: the WAL itself
// was the source, so logging again would double-apply.
//
//lint:allow walcheck recovery replays already-durable state
func (db *DB) restore(names []string) {
	for _, n := range names {
		db.cat.AddTable(n)
	}
}
