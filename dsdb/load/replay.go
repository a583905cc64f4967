package load

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/dsdb"
	"repro/dsdb/wcap"
	"repro/internal/db/sql"
)

// ReplayParams configures one replay of a captured workload (a
// dsdb/wcap record list) against a live server or an in-process DB.
type ReplayParams struct {
	// Records is the capture to replay (wcap.Load order; Replay
	// re-sorts by recorded start offset).
	Records []wcap.Record

	// Addr replays against a live dsdb server over the wire. Exactly
	// one of Addr and DB must be set (unless Runner overrides both).
	Addr string
	// DB replays in-process against an open database. SHOW queries in
	// the capture are server introspection and are skipped (counted in
	// Summary.Skipped) in this mode.
	DB *dsdb.DB

	// Clients bounds the replay's concurrency. 0 means one replay
	// worker per distinct recorded session — the recorded concurrency.
	// Each recorded session's queries always replay in recorded order
	// on one worker, whatever the bound.
	Clients int

	// Paced, when true, fires each query at its recorded start offset
	// (scaled by Timescale) instead of closed-loop as fast as possible.
	// Latencies are then measured from the scheduled arrival, queueing
	// delay included, exactly like the open-loop load generator.
	Paced bool
	// Timescale divides the recorded offsets in paced mode: 1 (the
	// default) replays at recorded speed, 2 twice as fast, 0.5 at half
	// speed. Ignored when Paced is false.
	Timescale float64

	// WaitReady, when positive, retries the first connection for up to
	// this long (live mode only).
	WaitReady time.Duration

	// Runner, when non-nil, replaces the query transport entirely:
	// every replayed query calls it instead of a wire client or the
	// in-process DB. Tests use it to collect result rows for
	// byte-comparison. Must be safe for concurrent use when the replay
	// runs more than one worker.
	Runner func(ctx context.Context, label, sql string) (rows int64, cacheHit bool, err error)
}

// ReplayStat is the per-label slice of a ReplaySummary, carrying both
// sides of the comparison: the latencies this replay measured and the
// latencies the capture recorded for the same queries.
type ReplayStat struct {
	Label       string
	Count       int
	Rows        int64
	Lat         Latency
	RecordedLat Latency
}

// ReplaySummary is the result of one replay run.
type ReplaySummary struct {
	Queries   int   // queries replayed to completion
	Rows      int64 // rows streamed by replayed queries
	Skipped   int   // records not replayed (recorded errors; SHOW in-process)
	Sessions  int   // distinct recorded sessions among replayed records
	Clients   int   // replay workers used
	Paced     bool
	Timescale float64
	Elapsed   time.Duration

	// Lat is the replayed latency distribution; RecordedLat is the
	// recorded distribution of the same records — the capture-time
	// baseline every replay is compared against.
	Lat         Latency
	RecordedLat Latency
	CacheHits   int

	// PerQuery aggregates by recorded label, ascending.
	PerQuery []ReplayStat
}

// Throughput returns replayed queries per second.
func (s *ReplaySummary) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Queries) / s.Elapsed.Seconds()
}

// Replay re-runs a captured workload. Records replay grouped by their
// recorded session — one worker per session (or fewer, with sessions
// folded together in recorded-offset order) — either closed-loop or
// paced at the recorded arrival offsets. Records whose recorded
// outcome was an error are skipped: the capture says they never
// produced a result stream, so there is nothing to reproduce.
func Replay(ctx context.Context, p ReplayParams) (*ReplaySummary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.Timescale <= 0 {
		p.Timescale = 1
	}
	if p.Runner == nil && (p.Addr == "") == (p.DB == nil) {
		return nil, fmt.Errorf("load: replay needs exactly one of Addr and DB")
	}
	inProcess := p.Runner != nil || p.DB != nil

	// Partition the capture: replayable records, grouped per recorded
	// session.
	bySession := make(map[uint32][]wcap.Record)
	var skipped int
	for _, r := range p.Records {
		if _, show := sql.SplitShow(r.SQL); r.Err != wcap.OK || (inProcess && show) {
			skipped++
			continue
		}
		bySession[r.Session] = append(bySession[r.Session], r)
	}
	if len(bySession) == 0 {
		return nil, fmt.Errorf("load: no replayable records in capture (%d records, %d skipped)", len(p.Records), skipped)
	}
	sessions := slices.Sorted(maps.Keys(bySession))

	clients := p.Clients
	if clients <= 0 || clients > len(sessions) {
		clients = len(sessions)
	}
	// Sessions fold onto workers round-robin by rank, and each worker's
	// lane runs in recorded offset order — each session's own order
	// whatever the folding.
	recs := make([][]wcap.Record, clients)
	for rank, id := range sessions {
		recs[rank%clients] = append(recs[rank%clients], bySession[id]...)
	}
	jobs := make([][]job, clients)
	for i, lane := range recs {
		slices.SortStableFunc(lane, func(a, b wcap.Record) int { return cmp.Compare(a.Offset, b.Offset) })
		for _, r := range lane {
			jobs[i] = append(jobs[i], job{label: r.Label, sql: r.SQL,
				due: time.Duration(float64(r.Offset) / p.Timescale), recorded: r.Latency})
		}
	}

	// One runner per worker: a dedicated wire connection in live mode,
	// the shared DB (safe: one DB, N sessions) or the caller's Runner
	// otherwise.
	var run []runner
	switch {
	case p.Runner != nil:
		run = slices.Repeat([]runner{p.Runner}, clients)
	case p.DB != nil:
		run = slices.Repeat([]runner{dbRunner(p.DB)}, clients)
	default:
		var closeAll func()
		var err error
		if run, closeAll, err = dialRunners(ctx, p.Addr, p.WaitReady, clients); err != nil {
			return nil, err
		}
		defer closeAll()
	}

	all, elapsed, err := drive(ctx, "replay worker", run, p.Paced, lanes(jobs))
	if err != nil {
		return nil, err
	}
	tot, per := aggregate(all, strings.Compare)
	s := &ReplaySummary{
		Queries:     tot.count,
		Rows:        tot.rows,
		Skipped:     skipped,
		Sessions:    len(sessions),
		Clients:     clients,
		Paced:       p.Paced,
		Timescale:   p.Timescale,
		Elapsed:     elapsed,
		Lat:         tot.lat,
		RecordedLat: tot.recorded,
		CacheHits:   tot.hits,
	}
	for _, q := range per {
		s.PerQuery = append(s.PerQuery, ReplayStat{Label: q.label, Count: q.count, Rows: q.rows, Lat: q.lat, RecordedLat: q.recorded})
	}
	return s, nil
}

// Report renders the replay summary with the recorded-vs-replayed
// latency comparison — the human-readable counterpart of the JSON
// report.
func (s *ReplaySummary) Report() string {
	var b strings.Builder
	mode := "closed-loop"
	if s.Paced {
		mode = fmt.Sprintf("paced ×%g", s.Timescale)
	}
	fmt.Fprintf(&b, "replayed %d queries (%d skipped) from %d sessions on %d workers, %s: %.1f q/s over %s\n",
		s.Queries, s.Skipped, s.Sessions, s.Clients, mode, s.Throughput(), s.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "rows %d, cache hits %d\n", s.Rows, s.CacheHits)
	cmp := func(name string, rec, rep Latency) {
		fmt.Fprintf(&b, "%-10s recorded p50=%s p90=%s p99=%s max=%s\n", name,
			rec.P50.Round(time.Microsecond), rec.P90.Round(time.Microsecond),
			rec.P99.Round(time.Microsecond), rec.Max.Round(time.Microsecond))
		fmt.Fprintf(&b, "%-10s replayed p50=%s p90=%s p99=%s max=%s\n", "",
			rep.P50.Round(time.Microsecond), rep.P90.Round(time.Microsecond),
			rep.P99.Round(time.Microsecond), rep.Max.Round(time.Microsecond))
	}
	cmp("overall", s.RecordedLat, s.Lat)
	for _, q := range s.PerQuery {
		fmt.Fprintf(&b, "  %-12s n=%-4d rows=%-8d recorded_p50=%-10s replayed_p50=%s\n",
			q.Label, q.Count, q.Rows,
			q.RecordedLat.P50.Round(time.Microsecond), q.Lat.P50.Round(time.Microsecond))
	}
	return b.String()
}
