package dsdb

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/dsdb/obs"
	"repro/dsdb/qcache"
	"repro/internal/db/executor"
	"repro/internal/db/sql"
	"repro/internal/db/value"
)

// ErrNoRows is returned by Row.Scan when the query matched nothing.
var ErrNoRows = errors.New("dsdb: no rows in result set")

// ErrStmtBusy is returned when a prepared statement is re-executed
// while a Rows from a previous execution is still open.
var ErrStmtBusy = errors.New("dsdb: statement is busy (close the previous Rows first)")

// Stmt is a prepared statement: the query is parsed and planned once
// and the compiled plan is cached across executions (executor nodes
// reset on re-open). A Stmt holds mutable execution state and must
// not be run concurrently with itself — concurrent sessions each
// prepare their own statements against the shared DB. Re-executing a
// busy statement fails fast with ErrStmtBusy (detected atomically, so
// even misuse from two goroutines errors rather than races).
type Stmt struct {
	db      *DB
	query   string
	c       *executor.Ctx
	plan    executor.Node
	cols    []string
	busy    atomic.Bool
	unlatch func() // releases the engine read latch of the running execution

	// cacheKey and tables are the statement's result-cache identity:
	// the canonicalized query text and the deduplicated table
	// footprint the planner derived at compile time. Unused (but still
	// recorded) when the DB has no result cache.
	cacheKey string
	tables   []string
	// epochs are the write epochs of tables when the plan was compiled:
	// a pooled statement runs again only while they hold.
	epochs []uint64

	// pool is the one-shot plan pool the statement returns to when an
	// execution ends (nil for a Prepare statement); prev/next and
	// older/newer link it there while it is idle (plans.go).
	pool         *planPool
	prev, next   *Stmt
	older, newer *Stmt
}

// Prepare parses and plans a query for repeated execution, untraced.
func (db *DB) Prepare(query string) (*Stmt, error) {
	return db.PrepareTraced(nil, query)
}

// PrepareTraced is Prepare with an explicit per-statement tracer. It
// is how concurrent sessions record independent instruction traces
// against one database: give each session its own tracer and its own
// statements. It compiles under the shared engine latch: planning
// reads the catalog and access-method maps, which DDL mutates
// exclusively.
func (db *DB) PrepareTraced(tr Tracer, query string) (*Stmt, error) {
	if mode, _ := sql.SplitExplain(query); mode != sql.ExplainNone {
		// A prepared EXPLAIN would freeze one compilation's plan text
		// and, for ANALYZE, share instrumented state across executions;
		// run it through Query instead.
		return nil, fmt.Errorf("dsdb: EXPLAIN cannot be prepared; run it with Query")
	}
	return db.compile(tr, query)
}

// compile parses and plans query, recording the epochs of the tables
// it reads under the same latch.
func (db *DB) compile(tr Tracer, query string) (*Stmt, error) {
	release := db.eng.BeginRead()
	defer release()
	c := executor.NewCtx(tr)
	cq, err := sql.CompileQuery(db.eng, c, query)
	if err != nil {
		return nil, err
	}
	sch := cq.Plan.Schema()
	cols := make([]string, sch.Len())
	for i, col := range sch.Columns {
		cols[i] = col.Name
	}
	epochs := make([]uint64, len(cq.Tables))
	for i, t := range cq.Tables {
		epochs[i] = db.eng.TableEpoch(t)
	}
	return &Stmt{db: db, query: query, c: c, plan: cq.Plan, cols: cols,
		cacheKey: cq.Key, tables: cq.Tables, epochs: epochs}, nil
}

// Columns returns the output column names.
func (s *Stmt) Columns() []string { return append([]string(nil), s.cols...) }

// Query executes the prepared plan and returns a streaming Rows. The
// context is honored between tuples and inside pipeline-breaking
// operators (sort loads, hash-join builds): cancellation surfaces as
// the context's error from Rows.Err.
//
// When the DB carries a result cache, Query first consults it under
// the shared engine latch: a valid entry (every referenced table's
// write epoch unchanged) is served as a materialized Rows without
// opening the plan at all — no executor, no buffer pool traffic, no
// instrumentation events. On a miss the execution streams normally
// while a copy of the rows accumulates; a cleanly exhausted result
// set is then published for the next repeat. Partially consumed,
// cancelled or failed executions publish nothing.
func (s *Stmt) Query(ctx context.Context) (*Rows, error) {
	return s.execQuery(ctx, true, s.db.obs.Begin("", s.query))
}

// QueryLabeled is Query with a client-chosen label recorded on the
// execution's observability span (the server uses it so prepared
// statements carry their wire label into SHOW queries and the
// slow-query log).
func (s *Stmt) QueryLabeled(ctx context.Context, label string) (*Rows, error) {
	return s.execQuery(ctx, true, s.db.obs.Begin(label, s.query))
}

// execQuery runs one execution. consultCache selects whether the result
// cache is probed here: prepared statements probe on every execution,
// while the one-shot Query/QueryTraced path already missed in its
// pre-plan lookup and must not probe again — a second Get would
// double-count the miss (skewing the reported hit ratio) for nothing.
// The span (nil when unobserved) is handed to the returned Rows on
// success and ended here on failure.
func (s *Stmt) execQuery(ctx context.Context, consultCache bool, sp *obs.Span) (*Rows, error) {
	if !s.busy.CompareAndSwap(false, true) {
		sp.SetErr(ErrStmtBusy)
		sp.End()
		return nil, ErrStmtBusy
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Hold the engine latch shared for the whole execution: writers
	// (Insert, DDL) wait until this result set closes.
	s.unlatch = s.db.eng.BeginRead()
	var fill *cacheFill
	if c := s.db.cache; c != nil {
		// Epoch reads below run under the just-taken shared latch, so
		// a hit is consistent with the database as of this call, and a
		// fill's snapshot cannot be perturbed mid-execution.
		if consultCache {
			var lookupStart time.Time
			if sp != nil {
				lookupStart = time.Now()
			}
			res, ok := c.Get(s.cacheKey, s.db.eng.TableEpoch)
			if sp != nil {
				sp.Add(obs.StageCache, time.Since(lookupStart))
			}
			if ok {
				s.release()
				sp.SetCacheHit()
				return &Rows{ctx: ctx, cols: res.Columns, cres: res, hit: true, span: sp}, nil
			}
		}
		fp := qcache.Footprint{Tables: s.tables, Epochs: make([]uint64, len(s.tables))}
		for i, t := range s.tables {
			fp.Epochs[i] = s.db.eng.TableEpoch(t)
		}
		// The abandonment threshold uses the same accounting as Put's
		// admission check: budget minus the entry's fixed cost (key,
		// columns, footprint), so a result that can never be admitted
		// is never fully copied either.
		fixed := qcache.EntryBytes(s.cacheKey, fp, &qcache.Result{Columns: s.cols})
		fill = &cacheFill{cache: c, key: s.cacheKey, fp: fp, limit: c.MaxBytes() - fixed}
	}
	s.c.Interrupt = interruptOf(ctx)
	s.c.SetSpan(sp)
	openStart := time.Now()
	if err := s.plan.Open(); err != nil {
		s.plan.Close()
		s.release()
		sp.SetErr(err)
		sp.End()
		return nil, err
	}
	opened := time.Since(openStart)
	if fill != nil {
		fill.cost = opened
	}
	sp.Add(obs.StageExec, opened)
	return &Rows{stmt: s, ctx: ctx, cols: s.cols, fill: fill, span: sp}, nil
}

// interruptOf returns the executor's cancellation poll for ctx (see
// executor.Ctx.Interrupt), or nil when ctx can never be cancelled. The
// dispatcher polls between every two operators, so the poll is a
// non-blocking receive on ctx.Done(), which takes no lock; ctx.Err is
// only asked once the context is done.
func interruptOf(ctx context.Context) func() error {
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() error {
		select {
		case <-done:
			return ctx.Err()
		default:
			return nil
		}
	}
}

// cacheFill accumulates a copy of a streaming execution's rows for
// publication into the result cache when the stream ends cleanly.
type cacheFill struct {
	cache *qcache.Cache
	key   string
	fp    qcache.Footprint
	rows  [][]Value
	slab  executor.Slab // owns the copies in rows
	size  int64
	limit int64 // accumulation stops (and the fill is abandoned) past this
	dead  bool

	// cost accumulates the wall time spent inside the executor — plan
	// Open plus every Next — and nothing else. Consumer think time and
	// network backpressure between pulls stay out, so the admission
	// policy judges what a re-execution would actually cost, not how
	// slowly a client drained the stream.
	cost time.Duration
}

// add copies one produced tuple into the pending entry, abandoning
// the fill once the result outgrows the cache budget (the cache would
// reject it anyway — stop paying for the copy).
func (f *cacheFill) add(tup []Value) {
	if f.dead {
		return
	}
	row := f.slab.Copy(tup)
	f.size += qcache.RowBytes(row)
	if f.size > f.limit {
		f.dead = true
		f.rows, f.slab = nil, executor.Slab{}
		return
	}
	f.rows = append(f.rows, row)
}

// commit publishes the accumulated result. Called with the filling
// execution's engine latch still held, so no writer can have bumped
// an epoch since the snapshot. The accumulated executor time is the
// cost the admission policy judges: a sub-threshold (cheap) first
// execution is not worth caching.
func (f *cacheFill) commit(cols []string) {
	if f.dead {
		return
	}
	f.cache.Put(f.key, f.fp, &qcache.Result{
		Columns: append([]string(nil), cols...),
		Rows:    f.rows,
	}, f.cost)
}

// release detaches the statement from a finished execution and drops
// the engine latch. A one-shot statement then goes back to its pool,
// holding no tracer.
func (s *Stmt) release() {
	s.c.Interrupt = nil
	s.c.SetSpan(nil)
	if s.unlatch != nil {
		s.unlatch()
		s.unlatch = nil
	}
	s.busy.Store(false)
	if s.pool != nil {
		s.c.SetTracer(nil)
		s.pool.put(s)
	}
}

// Close releases the statement. It fails if a Rows is still open.
func (s *Stmt) Close() error {
	if s.busy.Load() {
		return ErrStmtBusy
	}
	return nil
}

// Rows is a streaming result iterator in the database/sql style:
//
//	rows, err := db.Query(ctx, q)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    if err := rows.Scan(&a, &b); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Tuples are pulled from the executor one at a time — nothing is
// materialized beyond what the plan itself buffers. Rows auto-closes
// on exhaustion or error; Close is idempotent and safe to defer.
//
// A Rows served from the result cache (CacheHit reports true) has no
// executor behind it: Next iterates the materialized entry, and close
// tears nothing down.
type Rows struct {
	stmt     *Stmt // nil when served from the result cache
	ctx      context.Context
	cols     []string
	cur      executor.Tuple
	err      error
	closeErr error
	closed   bool

	// cres/cidx iterate a result-cache hit; hit reports the serving
	// mode. fill accumulates a miss for publication; exhausted marks a
	// cleanly drained stream (the only state a fill commits from).
	cres      *qcache.Result
	cidx      int
	hit       bool
	fill      *cacheFill
	exhausted bool

	// span is the query's observability record (nil when unobserved):
	// Next times executor pulls into its exec stage, and close ends it
	// — unless DetachSpan transferred ownership (spanDetached), which
	// is how the server extends a span across the network flush.
	// rowsOut counts produced rows for the span.
	span         *obs.Span
	spanDetached bool
	rowsOut      int64
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// CacheHit reports whether this result set was served from the DB's
// result cache (no executor ran; the rows were materialized by an
// earlier execution of the same canonical query).
func (r *Rows) CacheHit() bool { return r.hit }

// Next advances to the next row, returning false at the end of the
// result set, on error, or when the query's context is cancelled.
// Consult Err after Next returns false.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if err := r.ctx.Err(); err != nil {
		r.err = err
		r.close()
		return false
	}
	if r.cres != nil {
		// Cache hit: iterate the materialized entry. The rows are
		// shared with the cache — Values and Scan copy, never mutate.
		if r.cidx >= len(r.cres.Rows) {
			r.exhausted = true
			r.close()
			return false
		}
		r.cur = r.cres.Rows[r.cidx]
		r.cidx++
		r.rowsOut++
		return true
	}
	var pullStart time.Time
	timed := r.fill != nil || r.span != nil
	if timed {
		pullStart = time.Now()
	}
	tup, ok, err := r.stmt.plan.Next()
	if timed {
		pull := time.Since(pullStart)
		if r.fill != nil {
			r.fill.cost += pull
		}
		r.span.Add(obs.StageExec, pull)
	}
	if err != nil {
		r.err = err
		r.close()
		return false
	}
	if !ok {
		r.exhausted = true
		r.close()
		return false
	}
	r.cur = tup
	r.rowsOut++
	if r.fill != nil {
		r.fill.add(tup)
	}
	return true
}

// Values returns a copy of the current row, the caller's to keep: the
// executor reuses the row itself on the next Next, and its strings view
// buffer-pool pages, so their bytes are copied too (into one allocation
// per row). A row served from the result cache already belongs to the
// cache, which never changes it, so only the row itself is copied.
func (r *Rows) Values() []Value {
	vals := append([]Value(nil), r.cur...)
	if !r.hit {
		value.CloneStrs(vals)
	}
	return vals
}

// BorrowValues returns the current row without copying it: a read-only
// view that is valid only until the next call to Next or Close — the
// executor refills the same row, its strings view buffer-pool pages the
// next pull may release, and on a cache hit it is the cache's own,
// shared with every other reader. For consumers that are done with a
// row before they ask for the next one (the server encodes it onto the
// wire); anyone who keeps a row calls Values.
func (r *Rows) BorrowValues() []Value { return r.cur }

// Scan copies the current row into dest, one pointer per column; the
// copies, string bytes included, stay valid after the next Next.
// Supported destinations: *int64, *int, *float64, *string, *bool,
// *Value and *any.
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("dsdb: Scan called without a successful Next")
	}
	return scanRow(r.cur, r.cols, dest, !r.hit)
}

// ScanRow copies one materialized row into the destinations — the
// conversion kernel behind Rows.Scan and Row.Scan, exported so remote
// result sets (dsdb/client) scan with identical semantics.
func ScanRow(vals []Value, cols []string, dest ...any) error {
	return scanRow(vals, cols, dest, false)
}

// scanRow copies one row into the destinations (shared by Rows.Scan
// and Row.Scan). cloneStrs copies string bytes as well, for a row whose
// strings view memory the next Next may reuse.
func scanRow(vals []Value, cols []string, dest []any, cloneStrs bool) error {
	if len(dest) != len(vals) {
		return fmt.Errorf("dsdb: Scan got %d destinations, row has %d columns", len(dest), len(vals))
	}
	for i, d := range dest {
		v := vals[i]
		if cloneStrs {
			v = value.Clone(v)
		}
		if err := scanValue(v, d); err != nil {
			return fmt.Errorf("dsdb: Scan column %d (%s): %w", i, cols[i], err)
		}
	}
	return nil
}

// scanValue converts one SQL value into a Go destination.
func scanValue(v Value, dest any) error {
	switch d := dest.(type) {
	case *Value:
		*d = v
		return nil
	case *any:
		*d = v
		return nil
	case *int64:
		switch v.T {
		case value.Int, value.Date, value.Bool:
			*d = v.I
			return nil
		case value.Float:
			*d = int64(v.F)
			return nil
		}
	case *int:
		switch v.T {
		case value.Int, value.Date, value.Bool:
			*d = int(v.I)
			return nil
		case value.Float:
			*d = int(v.F)
			return nil
		}
	case *float64:
		switch v.T {
		case value.Float:
			*d = v.F
			return nil
		case value.Int, value.Date:
			*d = float64(v.I)
			return nil
		}
	case *string:
		if v.T != value.Null { // NULL must not stringify silently
			*d = v.String()
			return nil
		}
	case *bool:
		if v.T == value.Bool {
			*d = v.I != 0
			return nil
		}
	default:
		return fmt.Errorf("unsupported destination type %T", dest)
	}
	return fmt.Errorf("cannot scan %s into %T", v.T, dest)
}

// Err returns the error, if any, that ended iteration. Context
// cancellation surfaces here as the context's error.
func (r *Rows) Err() error { return r.err }

// close tears down the execution, keeping the first close error. A
// cleanly exhausted miss publishes its accumulated rows to the result
// cache before the engine latch drops, so the epoch snapshot taken at
// Query time is still current at publication.
func (r *Rows) close() {
	if r.closed {
		return
	}
	r.closed = true
	r.cur = nil // a Scan after close must fail, not read stale data
	if r.stmt == nil {
		r.endSpan() // cache hit: nothing to tear down but the span
		return
	}
	r.closeErr = r.stmt.plan.Close()
	if r.err == nil {
		r.err = r.closeErr
	}
	if r.fill != nil {
		if r.err == nil && r.exhausted {
			r.fill.commit(r.cols)
		}
		r.fill = nil
	}
	// The statement may go back to the plan pool here, so this Rows
	// lets go of it.
	r.stmt.release()
	r.stmt = nil
	// End after release: the record is published with no engine latch
	// held by this close.
	r.endSpan()
}

// endSpan finishes the query's span at stream end — unless the span
// was detached, in which case its owner (the serving connection) ends
// it after the last network flush.
func (r *Rows) endSpan() {
	sp := r.span
	if sp == nil {
		return
	}
	r.span = nil
	if r.spanDetached {
		return
	}
	sp.AddRows(r.rowsOut)
	if r.err != nil {
		sp.SetErr(r.err)
	}
	sp.End()
}

// Span returns the query's observability span (nil when the database
// runs with observability disabled).
func (r *Rows) Span() *obs.Span { return r.span }

// DetachSpan transfers span ownership to the caller: Rows keeps
// timing executor pulls into it, but close no longer ends it — the
// caller must End it once the last cost is accounted. The server uses
// this to extend served spans across the result stream, ending them
// only after the terminal frame is flushed so the network stage is
// complete. Returns nil when unobserved.
func (r *Rows) DetachSpan() *obs.Span {
	if r.span != nil {
		r.spanDetached = true
	}
	return r.span
}

// Close releases the plan's resources. It is idempotent, safe after
// exhaustion, and required after partial consumption.
func (r *Rows) Close() error {
	r.close()
	return r.closeErr
}

// Query compiles and executes a query, returning a streaming Rows. A
// text that ran before runs its idle compiled plan again, unless a
// table it reads was written since (see planPool). With a result cache
// attached, a repeated query short-circuits before planning: parse,
// canonicalize, validate epochs, serve — the hot path repeated DSS
// traffic takes on every hit.
func (db *DB) Query(ctx context.Context, query string) (*Rows, error) {
	return db.QueryObserved(ctx, nil, "", query)
}

// QueryTraced is Query with an explicit per-call tracer (see
// PrepareTraced): the way a concurrent session records its own
// instruction trace. Cache hits take the same pre-plan fast path as
// Query — a hit emits no trace either way.
func (db *DB) QueryTraced(ctx context.Context, tr Tracer, query string) (*Rows, error) {
	return db.QueryObserved(ctx, tr, "", query)
}

// QueryObserved is QueryTraced with a client-supplied label recorded
// on the query's observability span — the entry point the server uses
// so SHOW queries and the slow-query log carry the label the client
// sent over the wire (dsload's "Q9", stcpipe's phase markers).
func (db *DB) QueryObserved(ctx context.Context, tr Tracer, label, query string) (*Rows, error) {
	sp := db.obs.Begin(label, query)
	if mode, rest := sql.SplitExplain(query); mode != sql.ExplainNone {
		return db.explainQuery(ctx, tr, sp, mode, rest)
	}
	if r, ok := db.cachedQuery(ctx, query, sp); ok {
		return r, nil
	}
	var planStart time.Time
	if sp != nil {
		planStart = time.Now()
	}
	stmt, err := db.oneShot(tr, query)
	if sp != nil {
		sp.Add(obs.StagePlan, time.Since(planStart))
	}
	if err != nil {
		sp.SetErr(err)
		sp.End()
		return nil, err
	}
	return stmt.execQuery(ctx, false, sp)
}

// cachedQuery attempts the one-shot result-cache fast path, under the
// shared engine latch: first by the query's raw text (an alias of an
// entry this text hit before — one map lookup, no lexer), and only when
// the text is not known by parse (no planning) and canonical key. Any
// parse failure falls through to the full compile path, which owns
// error reporting. A key can only be cached if the query once
// compiled and ran — and tables are never dropped — so skipping
// plan-time validation on a hit cannot hide a real error.
// Exactly one probe is counted per call: a known raw text is validated
// and counted by GetRaw (a stale entry is the miss, and the compile
// path that follows does not probe again); an unknown one counts
// nothing until Get.
// The span is carried, not ended: a miss continues into the compile
// path with its parse time already attributed.
func (db *DB) cachedQuery(ctx context.Context, query string, sp *obs.Span) (*Rows, bool) {
	if db.cache == nil {
		return nil, false
	}
	if ctx == nil {
		ctx = context.Background()
	}
	release := db.eng.BeginRead()
	res, known := db.cache.GetRaw(query, db.eng.TableEpoch)
	release()
	// Stage boundaries share one clock reading each: Begin's reading
	// starts the first stage, the reading that ends it starts the next
	// — and every boundary is a monotonic-only read (time.Since) off
	// the span's start. The cached-hit path is the latency-sensitive
	// one, and clock reads are its dominant tracing cost.
	var d0 time.Duration
	if sp != nil {
		d0 = time.Since(sp.StartTime())
		sp.Add(obs.StageCache, d0)
	}
	if !known {
		key, _, err := sql.Analyze(query)
		var d1 time.Duration
		if sp != nil {
			d1 = time.Since(sp.StartTime())
			sp.Add(obs.StagePlan, d1-d0) // parsing is plan-stage work
		}
		if err != nil {
			return nil, false
		}
		release := db.eng.BeginRead()
		res, _ = db.cache.Get(key, db.eng.TableEpoch)
		release()
		if res != nil {
			db.cache.AddAlias(key, query)
		}
		if sp != nil {
			sp.Add(obs.StageCache, time.Since(sp.StartTime())-d1)
		}
	}
	if res == nil {
		return nil, false
	}
	sp.SetCacheHit()
	return &Rows{ctx: ctx, cols: res.Columns, cres: res, hit: true, span: sp}, true
}

// Row is the result of QueryRow: a single-row wrapper whose Scan
// reports ErrNoRows when the query matched nothing.
type Row struct {
	vals []Value
	cols []string
	err  error
}

// NewRow wraps one materialized row — used by remote clients
// (dsdb/client) to mirror QueryRow semantics exactly.
func NewRow(vals []Value, cols []string) *Row { return &Row{vals: vals, cols: cols} }

// NewErrRow wraps a deferred query error in a Row (see NewRow).
func NewErrRow(err error) *Row { return &Row{err: err} }

// Scan copies the row into dest (see Rows.Scan).
func (r *Row) Scan(dest ...any) error {
	if r.err != nil {
		return r.err
	}
	return scanRow(r.vals, r.cols, dest, false)
}

// Err returns the deferred query error, if any.
func (r *Row) Err() error { return r.err }

// QueryRow executes a query expected to return at most one row; the
// error (including ErrNoRows) is deferred until Scan.
func (db *DB) QueryRow(ctx context.Context, query string) *Row {
	rows, err := db.Query(ctx, query)
	if err != nil {
		return &Row{err: err}
	}
	defer rows.Close()
	if !rows.Next() {
		if err := rows.Err(); err != nil {
			return &Row{err: err}
		}
		return &Row{err: ErrNoRows}
	}
	r := &Row{vals: rows.Values(), cols: rows.Columns()}
	if rows.fill != nil {
		// Probe one step past the first row: the expected single-row
		// result (the common DSS aggregate shape) is thereby drained
		// to exhaustion, so the result cache can publish it and
		// repeated QueryRow traffic hits like Query/Exec. Only a
		// filling execution benefits — uncached databases and
		// cache-hit serves skip the extra pull.
		rows.Next()
	}
	return r
}

// Result is a fully materialized result set.
type Result struct {
	Columns []string
	Rows    [][]Value
}

// Exec compiles, executes and materializes a query in one call — the
// convenience path for workload drivers that don't need streaming.
func (db *DB) Exec(ctx context.Context, query string) (*Result, error) {
	rows, err := db.Query(ctx, query)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	res := &Result{Columns: rows.Columns()}
	for rows.Next() {
		res.Rows = append(res.Rows, rows.Values())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
