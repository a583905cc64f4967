// Package repro is a from-scratch reproduction of "Optimization of
// Instruction Fetch for Decision Support Workloads" (Ramírez,
// Larriba-Pey, Navarro, Serrano, Valero, Torrellas — ICPP 1999): the
// Software Trace Cache.
//
// The public surface is the dsdb package family:
//
//   - repro/dsdb — a database/sql-style API over the instrumented
//     database kernel: Open with functional options (buffer pool,
//     index kind, TPC-D preload, tracer attachment, result cache),
//     streaming Query with context cancellation, QueryRow/Exec/
//     Prepare, and DDL passthroughs. A DB is safe for concurrent
//     sessions — queries run under a shared engine latch (writes
//     exclusive), and every execution owns its context and runs on
//     one goroutine, as the paper's single-backend instruction
//     stream does.
//     WithResultCache(bytes) answers repeated queries from memory —
//     no executor, no buffer traffic, no instrumentation events —
//     consistently: entries are validated against per-table write
//     epochs, so writes invalidate exactly the results that read
//     them. WithDataDir(dir) makes the database durable: pages live
//     in checkpoint-generation files on disk, every Insert and DDL
//     statement is write-ahead logged before it mutates anything, and
//     reopening the directory recovers to the exact committed prefix
//     — a restarted server warm-starts instead of re-loading TPC-D
//     (Checkpoint collapses the log; Close checkpoints; Abandon
//     simulates a crash).
//   - repro/dsdb/qcache — the result cache itself: canonical-SQL
//     keys, fully materialized row sets, a configurable byte budget
//     under a deterministic accounting model with LRU eviction,
//     epoch-validated consistency, an optional admission threshold
//     (sub-threshold first executions are not cached) and optional
//     wall-clock TTLs with an injectable clock, shared by the local
//     and served query paths.
//   - repro/dsdb/stcpipe — the paper's toolchain as one composable
//     pipeline: Profile (traced workload → weighted CFG), Layout
//     (pluggable algorithms: STC, Pettis & Hansen, Torrellas,
//     original) and Simulate (SEQ.3 fetch unit with i-cache and
//     trace-cache models), plus Report for regenerating every table
//     and figure of the paper from those same three calls. Profile
//     is the one recorder, and what it records is its Source: a
//     Workload is the paper's serial run; Concurrent(w, n) traces n
//     concurrent sessions against one database, interleaving their
//     per-session traces at query boundaries — instruction fetch
//     under multi-session DSS traffic as a first-class scenario;
//     Served(w, n) records the same interleaved profile from real
//     served traffic: an in-process server, n wire clients, one
//     kernel trace per connection; Cached(w, rounds) profiles a
//     repeat-heavy workload against a result-cached database, where
//     every repeat round traces as zero instructions — the
//     instruction-stream collapse of cached DSS serving; and
//     Replayed(records) re-runs a dsdb/wcap capture of real traffic,
//     session by session.
//   - repro/dsdb/wire, repro/dsdb/server, repro/dsdb/client — the
//     serving subsystem: a length-prefixed binary protocol
//     (handshake, prepare, query, streaming row batches, error
//     frames, mid-stream cancellation), a TCP server mapping each
//     connection onto a per-session context over one shared DB
//     (connection limits, per-query deadlines, graceful drain), and
//     a client with the same Query/QueryRow/Exec/Prepare surface as
//     dsdb.DB returning byte-identical results over the network. The
//     server also serves introspection: SHOW virtual tables (stats,
//     conns, tables, pool, cache, wal, queries, slow), a Stats wire
//     frame, an optional slow-query log (WithSlowQueryThreshold), and
//     NewMetricsMux — an HTTP handler exposing Prometheus text
//     metrics (query latency and per-stage histograms included) plus
//     net/http/pprof, mounted by dsdbd -metrics-addr.
//   - repro/dsdb/obs — query observability: every query gets a
//     monotonically-assigned id (carried to clients on the Done
//     frame) and a pooled per-stage span — plan, cache, exec, io,
//     wal, net, measured disjointly so the stages sum to the
//     end-to-end latency — feeding a recent-query ring, log-spaced
//     aggregate histograms, and slow-query classification. Stdlib
//     only, nil-safe throughout; a disabled tracer costs one nil
//     check per query.
//   - repro/dsdb/load — the load generator behind cmd/dsload: N
//     client sessions driving a TPC-D query mix closed-loop or
//     open-loop (fixed-rate Poisson arrivals, queueing delay included
//     in the percentiles), warmup exclusion, latency percentiles,
//     throughput, cache hit-ratio reporting with cached/uncached
//     latency splits, adversarial scenarios (slowreader, zipf,
//     burst), and machine-readable JSON run reports.
//
// Binaries: cmd/dsquery (interactive queries), cmd/dsdbd (the
// serving daemon), cmd/dsload (load generation), cmd/profiler and
// cmd/experiments (the paper's analyses).
//
// Everything under internal/ — the storage manager (in-memory or
// disk-backed under a data directory), write-ahead log, the segment
// log it shares with the workload capture (internal/seglog: one frame,
// one scanner, one torn-tail rule, one appender), buffer manager, B-tree/hash access methods, Volcano executor, SQL front
// end, TPC-D generator, kernel image, and the layout/fetch simulators
// — is implementation detail reached only through the public
// packages. See README.md.
//
// The executor's tuple path is narrow and allocation-free: the planner
// prunes every base scan and index-join inner side to the columns the
// statement references (storage.DecodeTuple steps over the rest), and
// a tuple returned by an operator's Next is a slot — the one output
// row the operator allocated at Open, valid until the operator is
// called again, never written by its consumer (see
// internal/db/executor/node.go). A decoded varchar is a view of the
// pinned page, valid as long as the slot. Operators that keep tuples
// (sort, hash-join build, the result-cache fill) copy them, string
// bytes included, into chunked slabs; passing a row up the plan
// allocates nothing. What dsdb hands out — Rows.Scan, Rows.Values,
// Exec, QueryRow — is always a copy and safe to retain.
package repro
