// Package dsdb is the public façade of the repository: a
// database/sql-flavored API over the instrumented decision-support
// database kernel that the Software Trace Cache reproduction is built
// around. Open a database with functional options, query it through a
// streaming Rows iterator, and attach a probe tracer to record the
// dynamic basic-block traces the paper's toolchain consumes (see
// dsdb/stcpipe for the profile → layout → simulate pipeline).
//
//	db, err := dsdb.Open(dsdb.WithTPCD(0.002))
//	rows, err := db.Query(ctx, "select sum(l_extendedprice) from lineitem")
//	for rows.Next() { ... rows.Scan(&v) ... }
//
// Prefixing a select with "explain" returns the chosen plan as rows
// (one line per operator); "explain analyze" executes it under
// per-operator instrumentation and annotates each operator with its
// actual row count, loop count, wall/self time and buffer-pool
// traffic. See the README's Observability section for a worked
// example.
//
// This package and dsdb/stcpipe are the only sanctioned entry points;
// everything under internal/ is implementation.
package dsdb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/dsdb/obs"
	"repro/dsdb/qcache"
	"repro/internal/db/catalog"
	"repro/internal/db/engine"
	"repro/internal/db/probe"
	"repro/internal/db/value"
	"repro/internal/tpcd"
)

// Value is one SQL value (integer, float, string, date, bool or NULL).
type Value = value.Value

// Type enumerates SQL value types.
type Type = value.Type

// Value types.
const (
	Int   = value.Int
	Float = value.Float
	Str   = value.Str
	Date  = value.Date
	Bool  = value.Bool
	Null  = value.Null
)

// Value constructors, re-exported for the Insert passthrough.
var (
	NewInt   = value.NewInt
	NewFloat = value.NewFloat
	NewStr   = value.NewStr
	NewDate  = value.NewDate
	NewNull  = value.NewNull
	// ParseDate parses "YYYY-MM-DD" into day-number form.
	ParseDate = value.ParseDate
	// MakeDate builds a day number from year, month, day.
	MakeDate = value.MakeDate
)

// Column describes one column of a table schema.
type Column = catalog.Column

// Col is a convenience constructor for Column.
func Col(name string, t Type) Column { return Column{Name: name, Type: t} }

// IndexKind selects the access method backing an index.
type IndexKind = catalog.IndexKind

// Index kinds.
const (
	BTree = catalog.BTree
	Hash  = catalog.Hash
)

// Tracer receives the kernel's instrumentation probe events. The
// stcpipe package supplies tracers that record basic-block traces; a
// nil tracer runs queries uninstrumented, each probe site costing one
// nil check.
type Tracer = probe.Tracer

// config collects the Open options.
type config struct {
	frames       int
	indexes      IndexKind
	seed         int64
	tpcdSF       float64
	loadTPCD     bool
	cacheBytes   int64
	cacheTTL     time.Duration
	cacheMinCost time.Duration
	dataDir      string
	obsCfg       obs.Config
}

// Option configures Open.
type Option func(*config)

// WithBufferFrames sizes the buffer pool (default 2048 frames).
func WithBufferFrames(n int) Option {
	return func(c *config) { c.frames = n }
}

// WithIndexKind selects the index access method used by the TPC-D
// preload and as the CreateIndex default context (default BTree). The
// paper builds one database of each kind.
func WithIndexKind(k IndexKind) Option {
	return func(c *config) { c.indexes = k }
}

// WithTPCD preloads the 8-table TPC-D benchmark database at the given
// scale factor (SF=1 is the standard 1GB database; the paper-scale
// experiments use 0.002 and smaller). Generation is deterministic
// under WithSeed.
func WithTPCD(sf float64) Option {
	return func(c *config) {
		c.tpcdSF = sf
		c.loadTPCD = true
	}
}

// WithSeed seeds the deterministic data generator (default 42). Two
// databases opened with identical options always hold identical data,
// so benchmarks and experiments compare like with like.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithResultCache attaches a query result cache bounded to the given
// number of accounted bytes (see dsdb/qcache; 0, the default,
// disables caching). Repeated queries — the signature of
// decision-support traffic — are then answered from memory without
// touching the executor: a hit runs no scans, takes no buffer pool
// hits or misses, and emits no kernel instrumentation events. Results
// are always consistent: entries are validated against per-table
// write epochs, so any Insert or DDL on a referenced table
// invalidates every cached result that read it. Local queries and
// queries served over the wire (dsdb/server) share the one cache.
//
// Caching trades instrumentation fidelity for speed: a traced session
// whose query hits the cache records nothing for it (that collapse is
// exactly what stcpipe's cached-profile mode measures). Leave the
// cache off for paper-faithful profiles.
func WithResultCache(bytes int64) Option {
	return func(c *config) { c.cacheBytes = bytes }
}

// WithResultCacheTTL bounds the wall-clock lifetime of result-cache
// entries (0, the default, keeps entries until invalidation or
// eviction). Expired entries are dropped on first touch and counted as
// misses — the knob for workloads whose answers go stale by clock time
// even though no tracked table changed (external feeds, approximate
// dashboards). Meaningful only together with WithResultCache.
func WithResultCacheTTL(ttl time.Duration) Option {
	return func(c *config) { c.cacheTTL = ttl }
}

// WithResultCacheAdmission sets the result cache's admission
// threshold: a query whose first execution completed faster than min
// is not cached at all (0, the default, admits everything). Cheap
// queries — the sub-millisecond point lookups that pepper DSS traffic
// — are cheaper to re-run than the cache space they would steal from
// the expensive aggregates the cache exists for. Meaningful only
// together with WithResultCache.
func WithResultCacheAdmission(min time.Duration) Option {
	return func(c *config) { c.cacheMinCost = min }
}

// WithDataDir makes the database durable, rooted at dir: pages live in
// checkpoint-generation files on disk, and every Insert and DDL
// statement is write-ahead logged, so the database survives crashes
// and restarts. Opening a directory that already holds a database
// recovers it — replaying the log to the exact committed prefix — and
// skips any WithTPCD preload (the warm start dsdbd restarts rely on);
// a fresh directory is populated (bulk-loading TPC-D unlogged and
// checkpointing it, when WithTPCD is given) and then logs normally.
// Close checkpoints, so a cleanly closed database reopens with an
// empty log. See DB.Checkpoint for the explicit durability point.
func WithDataDir(dir string) Option {
	return func(c *config) { c.dataDir = dir }
}

// WithObservability tunes (or, with Config.Disabled, turns off) the
// query-observability tracer every database carries by default: spans
// with per-stage timings for each query, a recent-query ring, and a
// slow-query ring/log (see dsdb/obs and DB.Obs). Observability is on
// by default because its cost is a pooled span and a handful of clock
// reads per query; disable it to measure the kernel bare.
func WithObservability(cfg obs.Config) Option {
	return func(c *config) { c.obsCfg = cfg }
}

// DB is one open database, safe for concurrent use: any number of
// goroutines may call Query, QueryRow, Exec and Prepare at once, each
// execution getting its own executor context. Queries hold the
// engine latch shared — the latch prefers readers, so nested queries
// from a goroutine that is mid-iteration are fine. Insert,
// CreateTable and CreateIndex take the latch exclusively: writes wait
// for every open result set to close (always Close your Rows) and
// must not be issued from a goroutine that is itself mid-iteration.
// An individual Stmt or Rows remains single-threaded: share the DB,
// not the statement.
type DB struct {
	eng *engine.DB

	// cache is the query result cache (nil when Open ran without
	// WithResultCache). It is immutable after Open.
	cache *qcache.Cache

	// obs is the query-observability tracer (nil when opened with
	// WithObservability(obs.Config{Disabled: true})). Immutable after
	// Open; shared by local queries and every served session.
	obs *obs.Tracer

	// recovered reports that Open found existing durable state in the
	// data directory and replayed it instead of loading fresh data.
	recovered bool

	// plans keeps idle one-shot statements for reuse (plans.go).
	plans planPool
}

// Open creates a database configured by the given options.
func Open(opts ...Option) (*DB, error) {
	cfg := config{frames: 2048, indexes: BTree, seed: 42}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.frames <= 0 {
		return nil, fmt.Errorf("dsdb: buffer pool must have at least 1 frame, got %d", cfg.frames)
	}
	var eng *engine.DB
	recovered := false
	if cfg.dataDir != "" {
		var err error
		eng, recovered, err = engine.OpenDurable(cfg.frames, cfg.dataDir)
		if err != nil {
			return nil, fmt.Errorf("dsdb: opening data dir %s: %w", cfg.dataDir, err)
		}
	} else {
		eng = engine.Open(cfg.frames)
	}
	db := &DB{eng: eng, recovered: recovered}
	if !cfg.obsCfg.Disabled {
		db.obs = obs.New(cfg.obsCfg)
	}
	if cfg.cacheBytes > 0 {
		db.cache = qcache.NewWith(qcache.Config{
			MaxBytes: cfg.cacheBytes,
			TTL:      cfg.cacheTTL,
			MinCost:  cfg.cacheMinCost,
		})
	}
	if cfg.loadTPCD && recovered {
		// The warm start is about to skip the preload, so the directory
		// must actually hold the database these options describe —
		// serving an sf 0.001 build to a caller who asked for 0.01
		// would be silently wrong-scale.
		if err := checkTPCDStamp(cfg); err != nil {
			db.eng.Abandon()
			return nil, err
		}
	}
	if cfg.loadTPCD && !recovered {
		// tpcd.Load fills the engine sized above. A durable bulk load runs
		// unlogged — per-row WAL records for millions of generated rows
		// would be pure overhead — and the checkpoint that follows
		// captures the loaded state in page files and turns logging on.
		tc := tpcd.Config{
			SF:      cfg.tpcdSF,
			Seed:    cfg.seed,
			Indexes: cfg.indexes,
		}
		db.eng.SetLogging(false)
		if err := tpcd.Load(db.eng, tc); err != nil {
			db.eng.SetLogging(true)
			if cfg.dataDir != "" {
				db.eng.Abandon()
			}
			return nil, fmt.Errorf("dsdb: loading TPC-D: %w", err)
		}
		if cfg.dataDir != "" {
			if err := db.eng.Checkpoint(); err != nil {
				db.eng.Abandon()
				return nil, fmt.Errorf("dsdb: checkpointing TPC-D load: %w", err)
			}
			if err := writeTPCDStamp(cfg); err != nil {
				db.eng.Abandon()
				return nil, fmt.Errorf("dsdb: stamping TPC-D build: %w", err)
			}
		} else {
			db.eng.SetLogging(true)
		}
	}
	return db, nil
}

// tpcdStamp records how a data directory's TPC-D dataset was built,
// so a warm start can refuse options that describe a different
// database instead of silently serving the wrong one.
type tpcdStamp struct {
	SF      float64 `json:"sf"`
	Seed    int64   `json:"seed"`
	Indexes string  `json:"indexes"`
}

func tpcdStampPath(dir string) string { return filepath.Join(dir, "TPCD.json") }

func writeTPCDStamp(cfg config) error {
	data, err := json.Marshal(tpcdStamp{SF: cfg.tpcdSF, Seed: cfg.seed, Indexes: cfg.indexes.String()})
	if err != nil {
		return err
	}
	return os.WriteFile(tpcdStampPath(cfg.dataDir), append(data, '\n'), 0o644)
}

// checkTPCDStamp validates a warm start's WithTPCD options against the
// directory's build stamp.
func checkTPCDStamp(cfg config) error {
	data, err := os.ReadFile(tpcdStampPath(cfg.dataDir))
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("dsdb: data dir %s holds a recovered database with no TPC-D build stamp; open it without WithTPCD or use a fresh directory", cfg.dataDir)
		}
		return err
	}
	var st tpcdStamp
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("dsdb: corrupt TPC-D stamp in %s: %w", cfg.dataDir, err)
	}
	if st.SF != cfg.tpcdSF || st.Seed != cfg.seed || st.Indexes != cfg.indexes.String() {
		return fmt.Errorf("dsdb: data dir %s was built with TPC-D sf=%g seed=%d %s indices; requested sf=%g seed=%d %s — pass matching options or a different directory",
			cfg.dataDir, st.SF, st.Seed, st.Indexes, cfg.tpcdSF, cfg.seed, cfg.indexes.String())
	}
	return nil
}

// SetParallelism does nothing: every scan is serial.
//
// Deprecated: kept only for bench's executor.parallel2_speedup
// metric, which has always timed a serial plan; ROADMAP 6(e) deletes
// this shim together with that metric.
func (db *DB) SetParallelism(int) {}

// ResultCache returns the query result cache, or nil when Open ran
// without WithResultCache. Useful for stats reporting and for
// explicit Clear/Invalidate in tests and tools.
func (db *DB) ResultCache() *qcache.Cache { return db.cache }

// ResultCacheStats snapshots the result cache counters; ok is false
// when caching is disabled.
func (db *DB) ResultCacheStats() (stats qcache.Stats, ok bool) {
	if db.cache == nil {
		return qcache.Stats{}, false
	}
	return db.cache.Stats(), true
}

// TableEpoch returns a table's write epoch — the counter behind
// result-cache invalidation, bumped by every Insert/DDL on the table
// (0 for an unknown or never-written table).
func (db *DB) TableEpoch(table string) uint64 {
	release := db.eng.BeginRead()
	defer release()
	return db.eng.TableEpoch(table)
}

// TableStat describes one table for introspection (the server's
// SHOW TABLES virtual table is built on it).
type TableStat struct {
	// Name is the table name.
	Name string
	// Rows is the loaded cardinality.
	Rows int
	// Epoch is the table's write epoch (see TableEpoch).
	Epoch uint64
	// Indexes is the number of indices on the table.
	Indexes int
}

// TableStats snapshots every table in catalog order: name,
// cardinality, write epoch, index count. The snapshot is taken under
// the shared engine latch, so it is consistent with respect to
// writers.
func (db *DB) TableStats() []TableStat {
	release := db.eng.BeginRead()
	defer release()
	tables := db.eng.Cat.Tables()
	out := make([]TableStat, 0, len(tables))
	for _, t := range tables {
		out = append(out, TableStat{
			Name:    t.Name,
			Rows:    db.eng.NumRows(t.Name),
			Epoch:   db.eng.TableEpoch(t.Name),
			Indexes: len(t.Indexes),
		})
	}
	return out
}

// PoolStats is a snapshot of the buffer pool's counters.
type PoolStats struct {
	// Frames is the configured pool size; Pinned counts frames
	// currently pinned by open scans.
	Frames, Pinned int
	// Hits and Misses are the cumulative page-access counters.
	Hits, Misses uint64
}

// PoolStats snapshots the buffer pool counters (all atomics or
// pool-internal state; no engine latch is taken).
func (db *DB) PoolStats() PoolStats {
	hits, misses := db.eng.Buf.Stats()
	return PoolStats{
		Frames: db.eng.Buf.Size(),
		Pinned: db.eng.Buf.PinnedFrames(),
		Hits:   hits,
		Misses: misses,
	}
}

// PoolResident reports whether every page of the database is in the
// buffer pool, so that no query misses until the database grows.
func (db *DB) PoolResident() bool { return db.eng.Buf.Resident() }

// Section declares the pool's counters: SHOW pool, the pool_* stat
// pairs and the dsdb_buffer_pool_* series.
func (p PoolStats) Section() obs.Section {
	s := obs.Section{Name: "pool", Prom: "buffer_pool_"}
	s.Gauge("frames", int64(p.Frames))
	s.Gauge("pinned", int64(p.Pinned))
	s.Counter("hits", p.Hits)
	s.Counter("misses", p.Misses)
	return s
}

// WALStats is a snapshot of the write-ahead log state.
type WALStats struct {
	// Durable reports whether the database persists to a data dir at
	// all; Seq is the WAL segment currently appended to (0 when not
	// durable).
	Durable bool
	Seq     uint64
	// Appends and Fsyncs are the log writer's lifetime counters:
	// records appended and segment fsyncs (both 0 when not durable).
	Appends uint64
	Fsyncs  uint64
}

// WALStats snapshots the write-ahead log state.
func (db *DB) WALStats() WALStats {
	ctr := db.eng.WALCounters()
	return WALStats{Durable: db.eng.Durable(), Seq: db.eng.WALSeq(),
		Appends: ctr.Appends, Fsyncs: ctr.Fsyncs}
}

// Section declares the WAL's counters: SHOW wal, the wal_* stat pairs
// and the dsdb_wal_* series. durable is 1 or 0.
func (w WALStats) Section() obs.Section {
	s := obs.Section{Name: "wal", Prom: "wal_"}
	durable := int64(0)
	if w.Durable {
		durable = 1
	}
	s.Gauge("durable", durable)
	s.Gauge("seq", int64(w.Seq))
	s.Counter("appends", w.Appends)
	s.Counter("fsyncs", w.Fsyncs)
	return s
}

// CreateTable registers a table with the given columns.
func (db *DB) CreateTable(name string, cols ...Column) error {
	if len(cols) == 0 {
		return fmt.Errorf("dsdb: table %q needs at least one column", name)
	}
	_, err := db.eng.CreateTable(name, catalog.NewSchema(cols...))
	return err
}

// CreateIndex builds an index on table.column. Build indices after
// loading: hash bucket counts are sized from current cardinality.
func (db *DB) CreateIndex(table, column string, kind IndexKind, unique bool) error {
	return db.eng.CreateIndex(table, column, kind, unique)
}

// Obs returns the database's query-observability tracer: recent and
// slow query records, per-stage aggregate histograms, and the
// slow-query threshold/logger knobs. Nil when observability was
// disabled at Open (every tracer method is nil-safe, so callers may
// chain without checking).
func (db *DB) Obs() *obs.Tracer { return db.obs }

// Insert appends one row to a table, maintaining its indices. Like
// queries, inserts are observed: the span's WAL stage times the
// write-ahead append/fsync on durable databases.
func (db *DB) Insert(table string, row ...Value) error {
	sp := db.obs.Begin("insert", "insert "+table)
	err := db.eng.InsertSpanned(table, row, sp)
	if err != nil {
		sp.SetErr(err)
	} else {
		sp.AddRows(1)
	}
	sp.End()
	return err
}

// NumRows returns a table's loaded cardinality.
func (db *DB) NumRows(table string) int {
	release := db.eng.BeginRead()
	defer release()
	return db.eng.NumRows(table)
}

// WarmStarted reports whether Open found an existing database in its
// data directory and recovered it (skipping any WithTPCD preload)
// rather than loading fresh data. Always false without WithDataDir.
func (db *DB) WarmStarted() bool { return db.recovered }

// Durable reports whether the database persists to a data directory.
func (db *DB) Durable() bool { return db.eng.Durable() }

// Checkpoint makes the current committed state the recovery base of a
// durable database: dirty pages are flushed and fsynced into a fresh
// generation of page files, the catalog manifest is atomically
// republished, and the write-ahead log is truncated — after it
// returns, recovery replays nothing. The engine is quiesced for the
// duration (checkpoints wait for open result sets, like any writer).
// On a non-durable database it degrades to a flush.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// Close shuts the database down. A durable database checkpoints first
// — so the next Open recovers instantly with an empty log — then
// releases its files and directory lock; an in-memory database just
// flushes its dirty pages. Close is idempotent.
func (db *DB) Close() error { return db.eng.Close() }

// Abandon drops a durable database without checkpointing or flushing,
// leaving the data directory exactly as a crash at this instant would
// — and releasing the directory lock so it can be reopened. The next
// Open recovers by replaying the write-ahead log. It is the
// crash-simulation hook the durability tests are built on; on an
// in-memory database it simply discards everything.
func (db *DB) Abandon() { db.eng.Abandon() }

// Engine exposes the underlying kernel engine for the stcpipe
// pipeline and tests inside this module. External code cannot name
// the returned type (it lives under internal/) and should treat this
// as an opaque handle.
func (db *DB) Engine() *engine.DB { return db.eng }

// TPCDQuery returns the text of one of the paper's TPC-D queries
// (2,3,4,5,6,9,11,12,13,14,15,17).
func TPCDQuery(n int) (string, bool) { return tpcd.Query(n) }

// TPCDQueryNumbers lists the available TPC-D query numbers.
func TPCDQueryNumbers() []int { return tpcd.AllQueryNumbers() }
