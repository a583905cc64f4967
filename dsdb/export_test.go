package dsdb

import "errors"

// FailStoreReadsForTest makes every later read from the storage
// manager fail, under the open database and its running queries, and
// leaves the checkpoint's mappings in place — buffer frames view them,
// so unmapping under a running query would be a fault, not an error.
// It is how the external tests inject storage read errors.
func (db *DB) FailStoreReadsForTest() {
	db.eng.Store.InjectReadError(errors.New("dsdb: injected storage read error"))
}

// HealStoreReadsForTest undoes FailStoreReadsForTest.
func (db *DB) HealStoreReadsForTest() { db.eng.Store.InjectReadError(nil) }

// MaxIdlePlans is the bound on the plan pool's idle statements.
const MaxIdlePlans = maxIdlePlans
