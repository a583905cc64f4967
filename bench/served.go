package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/dsdb"
	"repro/dsdb/client"
	"repro/dsdb/load"
	"repro/dsdb/obs"
	"repro/dsdb/server"
	"repro/dsdb/wcap"
)

// The two served workloads share one environment: a dsdb.DB behind a
// dsdb/server on loopback and 2 closed-loop dsdb/client sessions, each
// running rounds of all 12 TPC-D queries in its own seed-shuffled
// order. cached_served adds the result cache and the workload capture
// (the dsdbd -result-cache-bytes -capture-dir production shape), so
// after the fill round every query is a hit.

const (
	servedClients = 2
	poolFrames    = 2048     // the ~2,000 data pages at SF 0.01 fit
	cacheBytes    = 64 << 20 // holds all 12 results many times over
	// obsRing must hold every query of a traced phase: server-side
	// records are joined to client-side spans by query id after the
	// phase, from the tracer's recent-query ring.
	obsRing = 1 << 16
	// captureBuffer is the capture channel's capacity. The default
	// (1024) sheds about 4% of the records at this workload's ~30k
	// queries/s on 2 cores (README, known anomalies); a workload that
	// replays its own capture needs all of them.
	captureBuffer = 1 << 15
	// maxTracedQueries ends a traced phase early (cached_served reaches
	// it in under a second): it keeps the phase inside the obs ring and
	// the span log, at up to 8 spans a query, inside spanCap.
	maxTracedQueries = 20_000
	spanCap          = 8*maxTracedQueries + 4096
)

type servedEnv struct {
	cached  bool
	db      *dsdb.DB
	srv     *server.Server
	served  chan error
	capture *wcap.Writer
	capDir  string
	clients []*client.DB
	orders  [][]int // per client: TPC-D query numbers in that client's order
	ref     map[int]digest
	// capStats is the capture's final counters, kept when replayCheck
	// closes it.
	capStats wcap.Stats
}

func setupTPCDServed(r *run) (env, error)   { return setupServed(r, false) }
func setupCachedServed(r *run) (env, error) { return setupServed(r, true) }

func setupServed(r *run, cached bool) (env, error) {
	e := &servedEnv{cached: cached}
	opts := []dsdb.Option{
		dsdb.WithTPCD(r.cfg.sf()), dsdb.WithSeed(dataSeed), dsdb.WithBufferFrames(poolFrames),
		dsdb.WithObservability(obs.Config{RingSize: obsRing}),
	}
	if cached {
		opts = append(opts, dsdb.WithResultCache(cacheBytes))
	}
	var err error
	if e.db, err = dsdb.Open(opts...); err != nil {
		return nil, err
	}
	var sopts []server.Option
	if cached {
		if e.capDir, err = r.tmpDir("capture"); err != nil {
			return e, err
		}
		if e.capture, err = wcap.Open(e.capDir, wcap.Options{Buffer: captureBuffer}); err != nil {
			return e, err
		}
		sopts = append(sopts, server.WithCapture(e.capture))
	}
	if err := e.listen(sopts...); err != nil {
		return e, err
	}
	for i := 0; i < servedClients; i++ {
		cl, err := client.Dial(e.srv.Addr().String())
		if err != nil {
			return e, err
		}
		e.clients = append(e.clients, cl)
		order := append([]int(nil), dsdb.TPCDQueryNumbers()...)
		rand.New(rand.NewSource(r.cfg.seed+int64(i))).Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		e.orders = append(e.orders, order)
	}
	// Warm-up: one round per client. It loads the buffer pool and, on
	// cached_served, is the fill round.
	_, err = e.loop(nil, &pacer{fixed: 1, start: time.Now()}, servedClients)
	return e, err
}

func (e *servedEnv) listen(opts ...server.Option) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = server.New(e.db, opts...)
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	for !e.srv.Ready() {
		runtime.Gosched()
	}
	return nil
}

// stopServing drains the server and flushes the capture; the DB stays
// open.
func (e *servedEnv) stopServing() error {
	var first error
	for _, cl := range e.clients {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.clients = nil
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := e.srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
		if err := <-e.served; !errors.Is(err, server.ErrServerClosed) && first == nil {
			first = err
		}
		e.srv = nil
	}
	if e.capture != nil {
		if err := e.capture.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (e *servedEnv) close() error {
	err := e.stopServing()
	if e.db != nil {
		if cerr := e.db.Close(); err == nil {
			err = cerr
		}
		e.db = nil
	}
	return err
}

// reference computes the local-serial results every served result is
// compared with, on a plain database of its own (no cache, no
// server), outside any timed region.
func reference(cfg *config) (map[int]digest, error) {
	db, err := dsdb.Open(dsdb.WithTPCD(cfg.sf()), dsdb.WithSeed(dataSeed), dsdb.WithBufferFrames(poolFrames))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	ref := map[int]digest{}
	for _, n := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(n)
		res, err := db.Exec(context.Background(), q)
		if err != nil {
			return nil, fmt.Errorf("reference Q%d: %w", n, err)
		}
		ref[n] = digestResult(res)
	}
	return ref, nil
}

func (r *run) checkReferenceGolden(ref map[int]digest) {
	var lines []string
	for _, n := range dsdb.TPCDQueryNumbers() {
		lines = append(lines, fmt.Sprintf("Q%d %s", n, ref[n]))
	}
	// the data does not depend on -seed, so neither do the results
	r.checkGolden("results.golden", !r.cfg.quick, lines)
}

// queryNumber maps TPC-D query text back to its number.
var queryNumber = func() map[string]int {
	m := map[string]int{}
	for _, n := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(n)
		m[q] = n
	}
	return m
}()

// qtrace is what a traced client keeps per query so server-side
// records can be joined to it after the phase.
type qtrace struct {
	id       uint64
	qn       int
	root     int // span index of client.query
	lat      time.Duration
	firstRow time.Duration
}

type loopResult struct {
	ops      []sample
	traces   []qtrace
	hits     int
	attempts int
	failed   int
}

// loop runs the closed loop on n clients until the pacer (consulted
// by client 0 between rounds; the others follow its round count) says
// stop. With a span log it also records client-side spans.
func (e *servedEnv) loop(spans *spanLog, p *pacer, n int) (loopResult, error) {
	// target is the round count every client stops at: known from the
	// start for fixed work, set by client 0 when its pacer stops.
	var target atomic.Int64
	target.Store(math.MaxInt64)
	if p.fixed > 0 {
		target.Store(int64(p.fixed))
	}
	results := make([]loopResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for ci := 0; ci < n; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			res := &results[ci]
			dg := newDigester()
			var buf [][]dsdb.Value
			for round := int64(0); ; round++ {
				if ci == 0 {
					if !p.next() || (spans != nil && n*res.attempts >= maxTracedQueries) {
						target.Store(round)
						return
					}
				} else if round >= target.Load() {
					return
				}
				for _, qn := range e.orders[ci] {
					sql, _ := dsdb.TPCDQuery(qn)
					label := fmt.Sprintf("Q%d", qn)
					var tFirst time.Time
					t0 := time.Now()
					rows, err := e.clients[ci].QueryLabeled(context.Background(), label, sql)
					if err != nil {
						errs[ci] = fmt.Errorf("%s: %w", label, err)
						target.Store(0)
						return
					}
					buf = buf[:0]
					for rows.Next() {
						if spans != nil && len(buf) == 0 {
							tFirst = time.Now()
						}
						buf = append(buf, rows.Values())
					}
					lat := time.Since(t0)
					err = rows.Err()
					hit, id := rows.CacheHit(), rows.QueryID()
					rows.Close()
					res.attempts++
					dg.reset()
					for _, row := range buf {
						dg.row(row)
					}
					if err != nil || (e.ref != nil && dg.sum() != e.ref[qn]) {
						res.failed++
					}
					if hit {
						res.hits++
					}
					res.ops = append(res.ops, sample{label, ms(lat)})
					if spans != nil {
						qt := qtrace{id: id, qn: qn, lat: lat, firstRow: tFirst.Sub(t0)}
						qt.root = spans.add("client.query", id, -1, t0, lat)
						res.traces = append(res.traces, qt)
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	var out loopResult
	for i := range results {
		if errs[i] != nil {
			return out, errs[i]
		}
		out.ops = append(out.ops, results[i].ops...)
		out.traces = append(out.traces, results[i].traces...)
		out.hits += results[i].hits
		out.attempts += results[i].attempts
		out.failed += results[i].failed
	}
	return out, nil
}

// counters is the snapshot of everything the program exports that the
// separation checks and the C metrics read before and after a phase.
type counters struct {
	pool  dsdb.PoolStats
	wal   dsdb.WALStats
	qc    struct{ hits, misses, inval uint64 }
	srv   server.Stats
	stage [obs.NumStages]time.Duration
}

func (e *servedEnv) snapshot() counters {
	var c counters
	c.pool = e.db.PoolStats()
	c.wal = e.db.WALStats()
	if st, ok := e.db.ResultCacheStats(); ok {
		c.qc.hits, c.qc.misses, c.qc.inval = st.Hits, st.Misses, st.Invalidations
	}
	if e.srv != nil {
		c.srv = e.srv.Stats()
	}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		c.stage[s] = e.db.Obs().StageSnapshot(s).Sum
	}
	return c
}

// measuredLoop runs one measured 2-client phase and fills the run's
// operation samples and counts.
func (e *servedEnv) measuredLoop(r *run, spans *spanLog, share float64) (loopResult, phaseStats, error) {
	var lr loopResult
	ps, err := measurePhase(func() error {
		var err error
		lr, err = e.loop(spans, newPacer(r.cfg, share), servedClients)
		return err
	})
	r.attempted += lr.attempts
	r.failed += lr.failed
	return lr, ps, err
}

func (e *servedEnv) measure(r *run) error {
	var err error
	if e.ref, err = reference(r.cfg); err != nil {
		return err
	}
	r.checkReferenceGolden(e.ref)
	before := e.snapshot()
	lr, ps, err := e.measuredLoop(r, nil, 1)
	if err != nil {
		return err
	}
	r.ops, r.phase = lr.ops, ps
	e.separation(r, before, e.snapshot(), lr)
	if e.cached {
		return e.replayCheck(r, 4*servedClients*len(e.orders[0]), false)
	}
	return nil
}

// separation asserts from counters that the workload measured what it
// says it measures.
func (e *servedEnv) separation(r *run, a, b counters, lr loopResult) {
	total := float64(b.srv.Latency.Sum - a.srv.Latency.Sum)
	exec := float64(b.stage[obs.StageExec] - a.stage[obs.StageExec])
	io := float64(b.stage[obs.StageIO] - a.stage[obs.StageIO])
	r.check("wal idle", b.wal.Appends == a.wal.Appends, "wal appends %d -> %d", a.wal.Appends, b.wal.Appends)
	if e.cached {
		r.check("all hits", lr.hits == lr.attempts && b.qc.misses == a.qc.misses,
			"%d/%d client-observed hits, cache misses %d -> %d", lr.hits, lr.attempts, a.qc.misses, b.qc.misses)
		r.check("executor bypassed", exec < 0.01*total, "exec stage %.4f of server total", exec/total)
		st := e.capture.Stats()
		r.check("capture complete", st.Dropped == 0 && st.IOErrors == 0, "%d records, %d dropped, %d io errors", st.Records, st.Dropped, st.IOErrors)
	} else {
		r.check("no cache", lr.hits == 0 && b.qc.hits == 0, "%d client-observed hits", lr.hits)
		// (at smoke scale the queries are too short for the share to hold)
		r.check("executor bound", exec+io >= 0.95*total || r.cfg.quick, "exec+io stage %.4f of server total", (exec+io)/total)
	}
}

// replayCheck stops serving, reads the first n records of the capture
// back and replays them with load.Replay against a fresh server on the
// same database, comparing every replayed result with the local
// reference: the captured mix is the measured mix and served ==
// local-serial == replayed. With timed set it also reports the replay
// rate.
func (e *servedEnv) replayCheck(r *run, n int, timed bool) error {
	if err := e.stopServing(); err != nil {
		return err
	}
	var recs []wcap.Record
	errEnough := errors.New("enough")
	err := wcap.Replay(e.capDir, func(rec wcap.Record) error {
		if len(recs) == n {
			return errEnough
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil && !errors.Is(err, errEnough) {
		return err
	}
	e.capStats, e.capture = e.capture.Stats(), nil
	if err := e.listen(); err != nil {
		return err
	}
	cl, err := client.Dial(e.srv.Addr().String())
	if err != nil {
		return err
	}
	e.clients = []*client.DB{cl}
	var mismatch atomic.Int64
	sum, err := load.Replay(context.Background(), load.ReplayParams{
		Records: recs,
		Runner: func(ctx context.Context, label, sql string) (int64, bool, error) {
			rows, err := cl.QueryLabeled(ctx, label, sql)
			if err != nil {
				return 0, false, err
			}
			defer rows.Close()
			dg := newDigester()
			for rows.Next() {
				dg.row(rows.Values())
			}
			if dg.sum() != e.ref[queryNumber[sql]] {
				mismatch.Add(1)
			}
			return int64(dg.rows), rows.CacheHit(), rows.Err()
		},
	})
	if err != nil {
		return err
	}
	r.check("replayed == local-serial", mismatch.Load() == 0 && sum.Queries == len(recs) && sum.Skipped == 0,
		"%d of %d captured queries replayed on %d sessions, %d row mismatches", sum.Queries, len(recs), sum.Sessions, mismatch.Load())
	if timed {
		r.set("load.replay_qps", sum.Throughput())
		r.set("load.replay_row_mismatch", float64(mismatch.Load()))
	}
	return nil
}
