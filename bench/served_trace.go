package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/dsdb"
	"repro/dsdb/client"
	"repro/dsdb/obs"
)

// The traced run of the two served workloads: an untraced phase (the
// base of the overhead ratio), the same clients with benchmark spans
// on, a single-session phase joined to the server's obs records by
// query id, and the workload's own layer measurements.

func (e *servedEnv) trace(r *run) error {
	var err error
	if e.ref, err = reference(r.cfg); err != nil {
		return err
	}
	r.checkReferenceGolden(e.ref)
	r.spans = newSpanLog(spanCap)

	// Untraced phase: the base of the overhead ratio and the source of
	// the workload-level numbers.
	c0 := e.snapshot()
	lrU, psU, err := e.measuredLoop(r, nil, 0.25)
	if err != nil {
		return err
	}
	c1 := e.snapshot()
	r.ops, r.phase = lrU.ops, psU
	r.queryMetrics(lrU.ops, rate(len(lrU.ops), psU.wall))
	e.separation(r, c0, c1, lrU)

	// Traced phase, same clients, benchmark spans on.
	lrT, psT, err := e.measuredLoop(r, r.spans, 0.25)
	if err != nil {
		return err
	}
	e.join(r, lrT.traces, false)
	r.set("bench.trace_overhead_ratio", rate(len(lrT.ops), psT.wall)/rate(len(lrU.ops), psU.wall))

	// Single-session traced rounds: with one session a stage's time is
	// its own, not its share of a contended core.
	rounds := 3
	if e.cached {
		rounds = 300
	}
	if r.cfg.quick {
		rounds = 1
	}
	s0 := time.Now()
	lrS, err := e.loop(r.spans, &pacer{fixed: rounds, start: s0}, 1)
	if err != nil {
		return err
	}
	r.set("server.clients2_speedup", rate(len(lrU.ops), psU.wall)/rate(len(lrS.ops), time.Since(s0)))
	r.attempted += lrS.attempts
	r.failed += lrS.failed
	e.join(r, lrS.traces, true)
	c2 := e.snapshot()

	// Counter-sourced metrics over all three phases.
	queries := float64(c2.srv.Queries - c0.srv.Queries)
	executed := queries - float64(c2.srv.CacheHits-c0.srv.CacheHits)
	hits, misses := float64(c2.pool.Hits-c0.pool.Hits), float64(c2.pool.Misses-c0.pool.Misses)
	if hits+misses > 0 {
		r.set("buffer.hit_ratio", hits/(hits+misses))
	}
	if executed > 0 {
		r.set("buffer.misses_per_query", misses/executed)
		r.set("buffer.io_ms_per_query", ms(c2.stage[obs.StageIO]-c0.stage[obs.StageIO])/executed)
	}
	r.set("wire.bytes_per_row", float64(c2.srv.BytesWritten-c0.srv.BytesWritten)/float64(c2.srv.RowsStreamed-c0.srv.RowsStreamed))
	r.set("server.bytes_per_query", float64(c2.srv.BytesWritten-c0.srv.BytesWritten)/queries)
	if st, ok := e.db.ResultCacheStats(); ok {
		r.set("qcache.hit_ratio", float64(c2.qc.hits-c0.qc.hits)/float64(c2.qc.hits-c0.qc.hits+c2.qc.misses-c0.qc.misses))
		r.set("qcache.bytes_per_entry", float64(st.UsedBytes)/float64(st.Entries))
	}

	if e.cached {
		return e.traceCached(r)
	}
	return e.traceExecutor(r)
}

// queryMetrics reports the query-level numbers of the served
// workloads from one phase's samples.
func (r *run) queryMetrics(ops []sample, qps float64) {
	m := endToEndFrom(ops, phaseStats{wall: time.Second})
	r.set("queries_per_s", qps)
	r.set("query_p50_ms", m["op_p50_ms"])
	r.set("query_p95_ms", m["op_p95_ms"])
	r.set("query_geomean_ms", m["op_geomean_ms"])
}

// join attaches the server-side obs records of a traced phase to the
// client-side spans by query id and, for the single-session phase,
// reports the stage medians. Per query, client latency = client
// overhead + sum of stages + unattributed, by construction of the
// spans: client.query's self time is the overhead, server.query's the
// unattributed remainder.
func (e *servedEnv) join(r *run, traces []qtrace, report bool) {
	// The server ends a query's span just after the client has read
	// its Done frame, so the last records of a phase may still be in
	// flight: wait for them.
	recs := map[uint64]obs.Record{}
	for try := 0; try < 100; try++ {
		for _, rec := range e.db.Obs().Recent() {
			recs[rec.ID] = rec
		}
		missing := 0
		for _, qt := range traces {
			if _, ok := recs[qt.id]; !ok {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stageNames := [obs.NumStages]string{"sql.plan", "qcache.lookup", "executor.exec", "buffer.io", "wal.append", "server.net"}
	var overheads, firsts, totals, plans, caches, nets []float64
	var unattr, srvSum time.Duration
	execByQ := map[int][]float64{}
	// budget accumulates, per query type, the terms of
	// client latency = client overhead + stages + unattributed.
	type terms struct {
		n                       int
		lat, overhead, unattrib time.Duration
		stage                   [obs.NumStages]time.Duration
	}
	budget := map[int]*terms{}
	missing, clamped := 0, 0
	for _, qt := range traces {
		rec, ok := recs[qt.id]
		if !ok {
			missing++
			continue
		}
		var stages time.Duration
		for _, d := range rec.Stages {
			stages += d
		}
		// The server's clock runs on after the client has read the Done
		// frame (its write call returns, its span ends), so on a query of
		// a few microseconds the server span, and even its net stage, can
		// outlast the client's. That tail is not on the client's path:
		// the server span is cut to the client's latency and the stages
		// scaled to fit.
		srvTotal, scale := rec.Total, 1.0
		if srvTotal > qt.lat {
			srvTotal = qt.lat
			clamped++
			if stages > srvTotal {
				scale = float64(srvTotal) / float64(stages)
				stages = srvTotal
			}
		}
		sp := r.spans.add("server.query", qt.id, qt.root, time.Time{}, srvTotal)
		for s, d := range rec.Stages {
			rec.Stages[s] = time.Duration(float64(d) * scale)
			if d > 0 {
				r.spans.add(stageNames[s], qt.id, sp, time.Time{}, rec.Stages[s])
			}
		}
		overheads = append(overheads, us(qt.lat-srvTotal))
		firsts = append(firsts, us(qt.firstRow))
		totals = append(totals, us(rec.Total))
		plans = append(plans, us(rec.Stages[obs.StagePlan]))
		caches = append(caches, us(rec.Stages[obs.StageCache]))
		nets = append(nets, us(rec.Stages[obs.StageNet]))
		execByQ[qt.qn] = append(execByQ[qt.qn], ms(rec.Stages[obs.StageExec]))
		unattr += srvTotal - stages
		srvSum += srvTotal
		b := budget[qt.qn]
		if b == nil {
			b = &terms{}
			budget[qt.qn] = b
		}
		b.n++
		b.lat += qt.lat
		b.overhead += qt.lat - srvTotal
		b.unattrib += srvTotal - stages
		for s, d := range rec.Stages {
			b.stage[s] += d
		}
	}
	if !report {
		r.check("trace join (2 clients)", missing == 0, "%d of %d traced queries without a server record", missing, len(traces))
		return
	}
	r.check("trace join (1 session)", missing == 0, "%d of %d traced queries without a server record, %d server spans clamped to the client's", missing, len(traces), clamped)
	r.set("client.overhead_us_p50", median(overheads))
	r.set("client.first_row_us_p50", median(firsts))
	r.set("server.total_us_p50", median(totals))
	r.set("server.net_us_p50", median(nets))
	r.set("server.unattributed_share", float64(unattr)/float64(srvSum))
	r.set("sql.plan_us_p50", median(plans))
	if e.cached {
		r.set("qcache.stage_us_p50", median(caches))
	} else {
		for qn, xs := range execByQ {
			r.set(fmt.Sprintf("executor.exec_ms_q%d", qn), median(xs))
		}
	}
	negative := r.spans.negativeSelfTimes()
	r.check("self times", negative == 0, "%d spans with negative self time among %d", negative, len(r.spans.spans))

	// The layer sum against the measured total, one row per query type
	// (means in microseconds, single session): the columns after
	// "client" add up to it.
	var b strings.Builder
	fmt.Fprintf(&b, "   latency budget (us, mean per query, 1 session)\n   %-5s %10s = %9s", "query", "client", "overhead")
	for _, n := range stageNames {
		fmt.Fprintf(&b, " %13s", n)
	}
	fmt.Fprintf(&b, " %12s", "unattributed")
	for _, qn := range dsdb.TPCDQueryNumbers() {
		t := budget[qn]
		if t == nil {
			continue
		}
		mean := func(d time.Duration) float64 { return us(d) / float64(t.n) }
		fmt.Fprintf(&b, "\n   Q%-4d %10.1f = %9.1f", qn, mean(t.lat), mean(t.overhead))
		for _, d := range t.stage {
			fmt.Fprintf(&b, " %13.1f", mean(d))
		}
		fmt.Fprintf(&b, " %12.1f", mean(t.unattrib))
	}
	r.tables = append(r.tables, b.String())
}

// traceExecutor fills the executor-level metrics of tpcd_served from
// local calls on the served database: EXPLAIN ANALYZE operator shares
// and the Q6 scan numbers.
func (e *servedEnv) traceExecutor(r *run) error {
	ctx := context.Background()
	shares := map[string]float64{}
	var all float64
	for _, n := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(n)
		res, err := e.db.Exec(ctx, "explain analyze "+q)
		if err != nil {
			return fmt.Errorf("explain analyze Q%d: %w", n, err)
		}
		for _, row := range res.Rows {
			kind, self, ok := parsePlanLine(row[0].S)
			if ok {
				shares[kind] += self
				all += self
			}
		}
	}
	for _, k := range []string{"scan", "join", "agg", "sort"} {
		r.set("executor."+k+"_share", shares[k]/all)
	}

	q6, _ := dsdb.TPCDQuery(6)
	rows := float64(e.db.NumRows("lineitem"))
	timeQ6 := func(par int) (float64, float64, error) {
		e.db.SetParallelism(par)
		defer e.db.SetParallelism(1)
		var lats []float64
		var mallocs uint64
		reps := 7
		if r.cfg.quick {
			reps = 2
		}
		for i := 0; i < reps; i++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			if _, err := e.db.Exec(ctx, q6); err != nil {
				return 0, 0, err
			}
			lats = append(lats, time.Since(t0).Seconds())
			runtime.ReadMemStats(&m1)
			mallocs = m1.Mallocs - m0.Mallocs
		}
		return median(lats), float64(mallocs), nil
	}
	serial, mallocs, err := timeQ6(1)
	if err != nil {
		return err
	}
	par2, _, err := timeQ6(2)
	if err != nil {
		return err
	}
	r.set("executor.scan_rows_per_s", rows/serial)
	r.set("executor.allocs_per_row", mallocs/rows)
	r.set("executor.parallel2_speedup", serial/par2)
	return nil
}

// parsePlanLine extracts the operator class and self time (ms) from
// one EXPLAIN ANALYZE line; detail lines carry no counters.
func parsePlanLine(line string) (kind string, selfMS float64, ok bool) {
	i := strings.Index(line, " self=")
	if i < 0 {
		return "", 0, false
	}
	if _, err := fmt.Sscanf(line[i:], " self=%fms", &selfMS); err != nil {
		return "", 0, false
	}
	label := strings.TrimPrefix(strings.TrimSpace(line[:strings.Index(line, " (actual")]), "-> ")
	switch {
	case strings.Contains(label, "Join") || strings.HasPrefix(label, "Nested Loop"):
		kind = "join"
	case strings.Contains(label, "Scan"):
		kind = "scan"
	case strings.Contains(label, "Aggregate"):
		kind = "agg"
	case strings.HasPrefix(label, "Sort"):
		kind = "sort"
	default:
		kind = "other"
	}
	return kind, selfMS, true
}

// traceCached fills the metrics that exist on cached_served only: the
// served-vs-local hit gap, the obs and capture taxes, and the replay
// of the captured log.
func (e *servedEnv) traceCached(r *run) error {
	ctx := context.Background()
	reps := 600
	if r.cfg.quick {
		reps = 20
	}
	// hitRound times one round of the 12 queries, all expected to hit,
	// through query (a local or a wire call that drains the rows).
	hitRound := func(query func(q string) error, lats *[]float64) error {
		for _, n := range dsdb.TPCDQueryNumbers() {
			q, _ := dsdb.TPCDQuery(n)
			t0 := time.Now()
			if err := query(q); err != nil {
				return fmt.Errorf("Q%d: %w", n, err)
			}
			*lats = append(*lats, us(time.Since(t0)))
		}
		return nil
	}
	local := func(db *dsdb.DB) func(string) error {
		return func(q string) error {
			rows, err := db.Query(ctx, q)
			if err != nil {
				return err
			}
			defer rows.Close()
			for rows.Next() {
			}
			if !rows.CacheHit() {
				return errors.New("expected a cache hit")
			}
			return rows.Err()
		}
	}
	wire := func(cl *client.DB) func(string) error {
		return func(q string) error {
			rows, err := cl.Query(ctx, q)
			if err != nil {
				return err
			}
			defer rows.Close()
			for rows.Next() {
			}
			return rows.Err()
		}
	}

	// A second server over the same database without the capture, and a
	// second database without the observability tracer: the four paths
	// are timed a round at a time in turn, so drift hits all alike.
	plain := &servedEnv{db: e.db}
	if err := plain.listen(); err != nil {
		return err
	}
	defer plain.stopServing()
	clOff, err := client.Dial(plain.srv.Addr().String())
	if err != nil {
		return err
	}
	plain.clients = []*client.DB{clOff}
	bare, err := dsdb.Open(dsdb.WithTPCD(r.cfg.sf()), dsdb.WithSeed(dataSeed), dsdb.WithBufferFrames(poolFrames),
		dsdb.WithResultCache(cacheBytes), dsdb.WithObservability(obs.Config{Disabled: true}))
	if err != nil {
		return err
	}
	defer bare.Close()
	for _, n := range dsdb.TPCDQueryNumbers() { // fill bare's cache
		q, _ := dsdb.TPCDQuery(n)
		if _, err := bare.Exec(ctx, q); err != nil {
			return err
		}
	}
	paths := []func(string) error{local(e.db), local(bare), wire(e.clients[0]), wire(clOff)}
	lats := make([][]float64, len(paths))
	for rep := 0; rep < reps; rep++ {
		for i, p := range paths {
			if err := hitRound(p, &lats[i]); err != nil {
				return err
			}
		}
	}
	localHit, bareHit, servedOn, servedOff := median(lats[0]), median(lats[1]), median(lats[2]), median(lats[3])
	r.set("server.hit_overhead_us", servedOn-localHit)
	r.set("wcap.tax_us", servedOn-servedOff)
	r.set("obs.tax_ratio", localHit/bareHit)

	if err := e.replayCheck(r, 20000, true); err != nil {
		return err
	}
	r.set("wcap.dropped", float64(e.capStats.Dropped))
	r.set("wcap.bytes_per_record", float64(e.capStats.Bytes)/float64(e.capStats.Records))
	return nil
}
