package server

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/dsdb"
	"repro/dsdb/obs"
	"repro/dsdb/wcap"
	"repro/dsdb/wire"
)

// serverStats is the server-wide counter set. Every field is atomic:
// the hot paths (frame writes, row batches, query completion) touch
// them without any lock, and Stats() snapshots them without stopping
// the world.
type serverStats struct {
	totalConns      atomic.Uint64
	refusedConns    atomic.Uint64
	slowClientKills atomic.Uint64
	idleKills       atomic.Uint64

	queries          atomic.Uint64
	queryErrors      atomic.Uint64
	cancelledQueries atomic.Uint64
	cacheHits        atomic.Uint64
	inFlight         atomic.Int64

	rowsStreamed atomic.Uint64
	bytesWritten atomic.Uint64

	// latency is the end-to-end served-query latency histogram, on the
	// shared log-spaced obs.Buckets grid (100µs … 10s plus an unbounded
	// tail) — the same bounds the per-stage histograms use, so a
	// served-total bucket and an exec-stage bucket line up.
	latency obs.Histogram
}

// observe records one finished query's latency. Error and
// cancellation attribution happens where the failure is classified
// (conn.reportQueryError), not here.
func (st *serverStats) observe(d time.Duration) {
	st.latency.Observe(d)
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	// ActiveConns is the number of currently served sessions;
	// TotalConns counts every admitted connection since New, and
	// RefusedConns every connection turned away (conn limit or
	// draining).
	ActiveConns  int
	TotalConns   uint64
	RefusedConns uint64
	// SlowClientKills counts connections killed because a frame write
	// exceeded the write timeout (a reader that stopped reading);
	// IdleKills counts sessions closed by the idle timeout.
	SlowClientKills uint64
	IdleKills       uint64

	// Queries counts every query accepted for execution (SHOW
	// introspection included); QueryErrors the ones that failed,
	// CancelledQueries the ones that ended cancelled (client Cancel,
	// Quit mid-stream, or server-side deadline), CacheHits the ones
	// answered from the result cache. InFlightQueries is the current
	// number executing.
	Queries          uint64
	QueryErrors      uint64
	CancelledQueries uint64
	CacheHits        uint64
	InFlightQueries  int

	// RowsStreamed and BytesWritten count result rows and frame bytes
	// sent across all connections.
	RowsStreamed uint64
	BytesWritten uint64

	// Capture is the workload capture's counter snapshot (WithCapture),
	// nil when none is attached.
	Capture *wcap.Stats

	// Uptime is how long the server has existed (since New).
	Uptime time.Duration

	// Latency is the end-to-end served-query latency histogram on the
	// obs.Buckets grid (per-bucket counts are non-cumulative; labels
	// come from obs.BucketLabel).
	Latency obs.HistSnapshot

	// Stages are the per-stage duration histograms aggregated across
	// every observed query on the underlying DB (local and served),
	// indexed by obs.Stage. All-zero when observability is disabled.
	Stages [obs.NumStages]obs.HistSnapshot
}

// Stats snapshots the server's counters. Counters are atomics, so the
// snapshot is cheap and safe at any time, including mid-traffic.
func (s *Server) Stats() Stats {
	st := Stats{
		TotalConns:       s.counters.totalConns.Load(),
		RefusedConns:     s.counters.refusedConns.Load(),
		SlowClientKills:  s.counters.slowClientKills.Load(),
		IdleKills:        s.counters.idleKills.Load(),
		Queries:          s.counters.queries.Load(),
		QueryErrors:      s.counters.queryErrors.Load(),
		CancelledQueries: s.counters.cancelledQueries.Load(),
		CacheHits:        s.counters.cacheHits.Load(),
		InFlightQueries:  int(s.counters.inFlight.Load()),
		RowsStreamed:     s.counters.rowsStreamed.Load(),
		BytesWritten:     s.counters.bytesWritten.Load(),
		Uptime:           time.Since(s.started),
		Latency:          s.counters.latency.Snapshot(),
		Capture:          s.captureStats(),
	}
	for i := range st.Stages {
		st.Stages[i] = s.db.Obs().StageSnapshot(obs.Stage(i))
	}
	s.mu.Lock()
	st.ActiveConns = len(s.conns)
	s.mu.Unlock()
	return st
}

// captureStats snapshots the attached workload capture; nil without one.
func (s *Server) captureStats() *wcap.Stats {
	if s.cfg.capture == nil {
		return nil
	}
	st := s.cfg.capture.Stats()
	return &st
}

// Section declares the server's own counters. It is the one section
// with no name: its pairs are the bare entry names, its series
// dsdb_<name> with no _total suffix.
func (st Stats) Section() obs.Section {
	var s obs.Section
	s.Gauge("uptime_seconds", int64(st.Uptime.Seconds()))
	s.Gauge("conns_active", int64(st.ActiveConns))
	s.Counter("conns_total", st.TotalConns)
	s.Counter("conns_refused", st.RefusedConns)
	s.Counter("conns_slow_killed", st.SlowClientKills)
	s.Counter("conns_idle_killed", st.IdleKills)
	s.Counter("queries_total", st.Queries)
	s.Gauge("queries_in_flight", int64(st.InFlightQueries))
	s.Counter("queries_failed", st.QueryErrors)
	s.Counter("queries_cancelled", st.CancelledQueries)
	s.Counter("queries_cache_hits", st.CacheHits)
	s.Counter("rows_streamed", st.RowsStreamed)
	s.Counter("bytes_written", st.BytesWritten)
	return s
}

// Sections snapshots every counter section the server exports, in the
// order each rendering lists them: the server's own counters from st,
// then the buffer pool, the plan pool, the result cache, the WAL and
// st.Capture. The wire Stats frame, SHOW, /metrics and dsdbd's
// shutdown summary are loops over this list.
func (s *Server) Sections(st Stats) []obs.Section {
	return append([]obs.Section{st.Section()}, s.subsystems(st.Capture)...)
}

// subsystems snapshots the sections of the layers the server serves
// from. SHOW <name> picks one of them without a server snapshot.
func (s *Server) subsystems(capture *wcap.Stats) []obs.Section {
	cache, enabled := s.db.ResultCacheStats()
	return []obs.Section{
		s.db.PoolStats().Section(),
		s.db.PlanStats().Section(),
		cache.Section(enabled),
		s.db.WALStats().Section(),
		capture.Section(),
	}
}

// statPairs renders the wire Stats frame and SHOW STATS: the entries of
// every enabled section (a subsystem that is off is absent, not zero,
// so its presence says it is on), then the histograms. Latency buckets
// are one pair each, "lat_" + obs.BucketLabel(i) — the bounds ride in
// the names, so a wire client can rebuild the histogram without
// compiled-in knowledge of the grid — and each per-stage histogram is
// summarized as stage_<name>_count / stage_<name>_total_ns.
func (s *Server) statPairs() []wire.StatPair {
	st := s.Stats()
	var pairs []wire.StatPair
	for _, sec := range s.Sections(st) {
		if sec.Disabled {
			continue
		}
		for _, e := range sec.Entries {
			pairs = append(pairs, wire.StatPair{Name: sec.Key(e), Value: e.Value})
		}
	}
	for i, n := range st.Latency.Counts {
		pairs = append(pairs, wire.StatPair{Name: "lat_" + obs.BucketLabel(i), Value: int64(n)})
	}
	for i, h := range st.Stages {
		name := obs.Stage(i).String()
		pairs = append(pairs,
			wire.StatPair{Name: "stage_" + name + "_count", Value: int64(h.Count)},
			wire.StatPair{Name: "stage_" + name + "_total_ns", Value: int64(h.Sum)},
		)
	}
	return pairs
}

// connStats is one connection's counter set (atomics, same rationale
// as serverStats); surfaced by the SHOW CONNS virtual table.
type connStats struct {
	queries  atomic.Uint64
	rows     atomic.Uint64
	bytesOut atomic.Uint64
	inFlight atomic.Int32
}

// showRows and the builders below implement the SHOW virtual tables:
// introspection queryable over the normal protocol, streamed with the
// same RowHeader/RowBatch/Done frames as any result set.
//
// SHOW STATS   — the wire stat pairs (stat, value)
// SHOW CONNS   — per-connection counters (conn, remote, ...)
// SHOW TABLES  — catalog: name, rows, write epoch, index count
// SHOW QUERIES — recent query spans, newest first (qid, stages, ...)
// SHOW SLOW    — recent slow-query spans, newest first (same shape)
// SHOW POOL, SHOW PLANS, SHOW CACHE, SHOW WAL, SHOW CAPTURE — one
//                subsystem section (stat, value); cache and capture
//                lead with enabled and read all zero when off

// kv builds one (stat, value) row.
func kv(name string, v int64) []dsdb.Value {
	return []dsdb.Value{dsdb.NewStr(name), dsdb.NewInt(v)}
}

// showRows builds the named virtual table. An unknown target returns
// an error that is reported as a query-level failure (the session
// survives, like any bad SQL).
func (s *Server) showRows(target string) (cols []string, rows [][]dsdb.Value, err error) {
	switch target {
	case "stats":
		cols = []string{"stat", "value"}
		for _, p := range s.statPairs() {
			rows = append(rows, kv(p.Name, p.Value))
		}
	case "conns":
		cols = []string{"conn", "remote", "queries", "rows", "bytes", "in_flight"}
		s.mu.Lock()
		conns := make([]*conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		sort.Slice(conns, func(i, j int) bool { return conns[i].id < conns[j].id })
		for _, c := range conns {
			rows = append(rows, []dsdb.Value{
				dsdb.NewInt(int64(c.id)),
				dsdb.NewStr(c.nc.RemoteAddr().String()),
				dsdb.NewInt(int64(c.stats.queries.Load())),
				dsdb.NewInt(int64(c.stats.rows.Load())),
				dsdb.NewInt(int64(c.stats.bytesOut.Load())),
				dsdb.NewInt(int64(c.stats.inFlight.Load())),
			})
		}
	case "tables":
		cols = []string{"table", "rows", "epoch", "indexes"}
		for _, t := range s.db.TableStats() {
			rows = append(rows, []dsdb.Value{
				dsdb.NewStr(t.Name),
				dsdb.NewInt(int64(t.Rows)),
				dsdb.NewInt(int64(t.Epoch)),
				dsdb.NewInt(int64(t.Indexes)),
			})
		}
	case "queries":
		cols, rows = spanRows(s.db.Obs().Recent())
	case "slow":
		cols, rows = spanRows(s.db.Obs().Slow())
	default:
		have := []string{"stats", "conns", "tables", "queries", "slow"}
		for _, sec := range s.subsystems(s.captureStats()) {
			if sec.Name == target {
				return []string{"stat", "value"}, sectionRows(sec), nil
			}
			have = append(have, sec.Name)
		}
		return nil, nil, fmt.Errorf("unknown SHOW target %q (have %s)", target, strings.Join(have, ", "))
	}
	return cols, rows, nil
}

// sectionRows renders SHOW <section>: for an optional section an
// enabled row (1 or 0) first, then every entry, zeros when disabled.
func sectionRows(sec obs.Section) [][]dsdb.Value {
	var rows [][]dsdb.Value
	if sec.Optional {
		enabled := int64(1)
		if sec.Disabled {
			enabled = 0
		}
		rows = append(rows, kv("enabled", enabled))
	}
	for _, e := range sec.Entries {
		rows = append(rows, kv(e.Name, e.Value))
	}
	return rows
}

// spanRows renders completed query spans (SHOW QUERIES / SHOW SLOW)
// as a virtual table, newest first. Durations are microseconds: fine
// enough for cache hits, and integers keep the rows scannable. top_op
// names the dominant operator for queries that ran under EXPLAIN
// ANALYZE instrumentation ("" otherwise).
func spanRows(recs []obs.Record) (cols []string, rows [][]dsdb.Value) {
	cols = []string{
		"qid", "label", "sql", "rows", "hit", "err",
		"total_us", "plan_us", "cache_us", "exec_us", "io_us", "wal_us", "net_us",
		"top_op",
	}
	for _, r := range recs {
		hit := int64(0)
		if r.CacheHit {
			hit = 1
		}
		row := []dsdb.Value{
			dsdb.NewInt(int64(r.ID)),
			dsdb.NewStr(r.Label),
			dsdb.NewStr(r.SQL),
			dsdb.NewInt(r.Rows),
			dsdb.NewInt(hit),
			dsdb.NewStr(r.Err),
			dsdb.NewInt(r.Total.Microseconds()),
		}
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			row = append(row, dsdb.NewInt(r.Stages[st].Microseconds()))
		}
		row = append(row, dsdb.NewStr(r.TopOp))
		rows = append(rows, row)
	}
	return cols, rows
}
