package server

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/dsdb"
	"repro/dsdb/obs"
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

	// CaptureEnabled reports whether a workload capture (WithCapture)
	// is attached; the counters below are zero without one.
	// CaptureRecords counts queries accepted into the capture log,
	// CaptureDropped the ones shed because the capture buffer was full
	// (disk slower than the workload — never silent),
	// CaptureSampledOut the ones skipped by the sampling rate, and
	// CaptureBytes the frame bytes written to capture segments.
	CaptureEnabled    bool
	CaptureRecords    uint64
	CaptureDropped    uint64
	CaptureSampledOut uint64
	CaptureBytes      uint64
	CaptureIOErrors   uint64

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
	}
	for i := range st.Stages {
		st.Stages[i] = s.db.Obs().StageSnapshot(obs.Stage(i))
	}
	if w := s.cfg.capture; w != nil {
		cs := w.Stats()
		st.CaptureEnabled = true
		st.CaptureRecords = cs.Records
		st.CaptureDropped = cs.Dropped
		st.CaptureSampledOut = cs.SampledOut
		st.CaptureBytes = cs.Bytes
		st.CaptureIOErrors = cs.IOErrors
	}
	s.mu.Lock()
	st.ActiveConns = len(s.conns)
	s.mu.Unlock()
	return st
}

// Pairs renders the snapshot as the ordered name/value list carried
// by the wire Stats frame and the SHOW STATS virtual table. Names are
// stable snake_case identifiers. Latency buckets are exported one
// pair each as "lat_" + obs.BucketLabel(i) — the bucket bounds ride
// in the names, so a wire client can reconstruct the histogram
// without compiled-in knowledge of the grid — and each per-stage
// histogram is summarized as stage_<name>_count / stage_<name>_total_ns.
func (st Stats) Pairs() []wire.StatPair {
	pairs := []wire.StatPair{
		{Name: "uptime_seconds", Value: int64(st.Uptime.Seconds())},
		{Name: "conns_active", Value: int64(st.ActiveConns)},
		{Name: "conns_total", Value: int64(st.TotalConns)},
		{Name: "conns_refused", Value: int64(st.RefusedConns)},
		{Name: "conns_slow_killed", Value: int64(st.SlowClientKills)},
		{Name: "conns_idle_killed", Value: int64(st.IdleKills)},
		{Name: "queries_total", Value: int64(st.Queries)},
		{Name: "queries_in_flight", Value: int64(st.InFlightQueries)},
		{Name: "queries_failed", Value: int64(st.QueryErrors)},
		{Name: "queries_cancelled", Value: int64(st.CancelledQueries)},
		{Name: "queries_cache_hits", Value: int64(st.CacheHits)},
		{Name: "rows_streamed", Value: int64(st.RowsStreamed)},
		{Name: "bytes_written", Value: int64(st.BytesWritten)},
	}
	// Capture pairs appear only when a capture is attached — the same
	// discipline as the result-cache metrics: absent, not zero, when
	// the subsystem is off, so dashboards can detect "capturing" by
	// the presence of the series.
	if st.CaptureEnabled {
		pairs = append(pairs,
			wire.StatPair{Name: "capture_records", Value: int64(st.CaptureRecords)},
			wire.StatPair{Name: "capture_dropped", Value: int64(st.CaptureDropped)},
			wire.StatPair{Name: "capture_sampled_out", Value: int64(st.CaptureSampledOut)},
			wire.StatPair{Name: "capture_bytes", Value: int64(st.CaptureBytes)},
			wire.StatPair{Name: "capture_io_errors", Value: int64(st.CaptureIOErrors)},
		)
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

// showColumns and the builders below implement the SHOW virtual
// tables: introspection queryable over the normal protocol, streamed
// with the same RowHeader/RowBatch/Done frames as any result set.
//
// SHOW STATS   — the server counter snapshot (stat, value)
// SHOW CONNS   — per-connection counters (conn, remote, ...)
// SHOW TABLES  — catalog: name, rows, write epoch, index count
// SHOW POOL    — buffer pool: frames, pinned, hits, misses
// SHOW CACHE   — result cache counters (all zero when disabled)
// SHOW WAL     — durability: durable flag, current WAL segment
// SHOW QUERIES — recent query spans, newest first (qid, stages, ...)
// SHOW SLOW    — recent slow-query spans, newest first (same shape)
// SHOW CAPTURE — workload-capture counters (all zero when disabled)

// parseShow recognizes a SHOW statement; ok is false for anything
// else (which then takes the normal query path).
func parseShow(sql string) (target string, ok bool) {
	// Every served query passes through here, and almost none is a SHOW:
	// decide on the first token — "show", any case, then white space —
	// before paying to lower-case and split the whole text.
	head := strings.TrimLeftFunc(sql, unicode.IsSpace)
	if len(head) < 5 || !strings.EqualFold(head[:4], "show") {
		return "", false
	}
	if r, _ := utf8.DecodeRuneInString(head[4:]); !unicode.IsSpace(r) {
		return "", false
	}
	fields := strings.Fields(strings.ToLower(strings.TrimRight(strings.TrimSpace(sql), "; \t\r\n")))
	if len(fields) != 2 || fields[0] != "show" {
		return "", false
	}
	return fields[1], true
}

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
		for _, p := range s.Stats().Pairs() {
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
	case "pool":
		cols = []string{"stat", "value"}
		p := s.db.PoolStats()
		rows = [][]dsdb.Value{
			kv("frames", int64(p.Frames)),
			kv("pinned", int64(p.Pinned)),
			kv("hits", int64(p.Hits)),
			kv("misses", int64(p.Misses)),
		}
	case "cache":
		cols = []string{"stat", "value"}
		st, enabled := s.db.ResultCacheStats()
		e := int64(0)
		if enabled {
			e = 1
		}
		rows = [][]dsdb.Value{
			kv("enabled", e),
			kv("hits", int64(st.Hits)),
			kv("misses", int64(st.Misses)),
			kv("entries", int64(st.Entries)),
			kv("used_bytes", st.UsedBytes),
			kv("max_bytes", st.MaxBytes),
			kv("evictions", int64(st.Evictions)),
			kv("invalidations", int64(st.Invalidations)),
			kv("expirations", int64(st.Expirations)),
			kv("admission_rejects", int64(st.AdmissionRejects)),
		}
	case "capture":
		cols = []string{"stat", "value"}
		st := s.Stats()
		e := int64(0)
		if st.CaptureEnabled {
			e = 1
		}
		rows = [][]dsdb.Value{
			kv("enabled", e),
			kv("records", int64(st.CaptureRecords)),
			kv("dropped", int64(st.CaptureDropped)),
			kv("sampled_out", int64(st.CaptureSampledOut)),
			kv("bytes", int64(st.CaptureBytes)),
			kv("io_errors", int64(st.CaptureIOErrors)),
		}
	case "queries":
		cols, rows = spanRows(s.db.Obs().Recent())
	case "slow":
		cols, rows = spanRows(s.db.Obs().Slow())
	case "wal":
		cols = []string{"stat", "value"}
		w := s.db.WALStats()
		d := int64(0)
		if w.Durable {
			d = 1
		}
		rows = [][]dsdb.Value{
			kv("durable", d),
			kv("seq", int64(w.Seq)),
			kv("appends", int64(w.Appends)),
			kv("fsyncs", int64(w.Fsyncs)),
		}
	default:
		return nil, nil, fmt.Errorf("unknown SHOW target %q (have stats, conns, tables, pool, cache, wal, queries, slow, capture)", target)
	}
	return cols, rows, nil
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
