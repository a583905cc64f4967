package dsdb

// CloseStoreForTest closes the storage manager under the open
// database: every later read of a checkpointed page fails, which is how
// the external tests inject storage read errors under a running query.
func (db *DB) CloseStoreForTest() error { return db.eng.Store.Close() }
