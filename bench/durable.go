package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/dsdb"
	"repro/dsdb/client"
	"repro/dsdb/obs"
	"repro/internal/db/probe"
)

// durable_readwrite: one session, no timers, so its counts repeat
// exactly. Each cycle inserts a batch (local db.Insert, as a loader
// would), re-executes five queries over the wire (the inserts bumped
// the table epochs, so all five are invalidated, run through a pool an
// eighth of the data, and are Put back), reads the same five again
// (all hits), and every 4th cycle checkpoints. The WAL policy is the
// engine's only one: append without fsync, fsync at checkpoint and
// rotation.

const (
	durableFrames     = 256
	ordersPerBatch    = 16
	linesPerOrder     = 4 // 64 lineitem rows per batch
	checkpointEvery   = 4
	durableKeyBase    = int64(1) << 40 // above every generated orderkey
	opInsertBatch     = "insert_batch"
	opHitPass         = "hit_pass"
	opCheckpoint      = "checkpoint"
	requeryTypePrefix = "requery_"
)

var durableQueries = []int{3, 4, 6, 12, 14}

type durableEnv struct {
	servedEnv // db, server, one client
	dir       string
	frames    int
	rng       *rand.Rand
	nextOrder int64
	inserted  struct{ lineitem, orders int }
	cycles    int
}

func durableOptions(r *run, dir string, frames int) []dsdb.Option {
	return []dsdb.Option{
		dsdb.WithTPCD(r.cfg.sf()), dsdb.WithSeed(dataSeed), dsdb.WithDataDir(dir),
		dsdb.WithBufferFrames(frames), dsdb.WithResultCache(cacheBytes),
		dsdb.WithObservability(obs.Config{RingSize: obsRing}),
	}
}

func setupDurable(r *run) (env, error) {
	e := &durableEnv{frames: durableFrames, rng: rand.New(rand.NewSource(r.cfg.seed)), nextOrder: durableKeyBase}
	if r.cfg.quick {
		e.frames = 32 // keep the pool an eighth of the (smaller) data
	}
	var err error
	if e.dir, err = r.tmpDir("data"); err != nil {
		return nil, err
	}
	if e.db, err = dsdb.Open(durableOptions(r, e.dir, e.frames)...); err != nil {
		return nil, err
	}
	if err := e.listen(); err != nil {
		return e, err
	}
	cl, err := client.Dial(e.srv.Addr().String())
	if err != nil {
		return e, err
	}
	e.clients = []*client.DB{cl}
	// Warm-up: one pass fills the result cache.
	for _, qn := range durableQueries {
		if _, _, err := e.query(qn); err != nil {
			return e, err
		}
	}
	return e, nil
}

func (e *durableEnv) query(qn int) (digest, bool, error) {
	sql, _ := dsdb.TPCDQuery(qn)
	rows, err := e.clients[0].QueryLabeled(context.Background(), fmt.Sprintf("Q%d", qn), sql)
	if err != nil {
		return digest{}, false, err
	}
	defer rows.Close()
	dg := newDigester()
	for rows.Next() {
		dg.row(rows.Values())
	}
	return dg.sum(), rows.CacheHit(), rows.Err()
}

// insertBatch synthesises and inserts one batch: 16 orders of 4
// lineitems each, shaped like the generator's rows, with fresh order
// keys and seed-drawn customers, parts, dates and prices.
func (e *durableEnv) insertBatch(timeInserts *time.Duration) error {
	nCust, nPart, nSupp := e.db.NumRows("customer"), e.db.NumRows("part"), e.db.NumRows("supplier")
	rng := e.rng
	pick := func(xs ...string) dsdb.Value { return dsdb.NewStr(xs[rng.Intn(len(xs))]) }
	insert := func(table string, row ...dsdb.Value) error {
		t0 := time.Now()
		err := e.db.Insert(table, row...)
		if timeInserts != nil {
			*timeInserts += time.Since(t0)
		}
		return err
	}
	for o := 0; o < ordersPerBatch; o++ {
		e.nextOrder++
		key := e.nextOrder
		od := dsdb.MakeDate(1992+rng.Intn(7), 1+rng.Intn(12), 1+rng.Intn(28))
		var total float64
		for ln := 1; ln <= linesPerOrder; ln++ {
			qty := float64(1 + rng.Intn(50))
			price := qty * (900 + float64(rng.Intn(10000))/10)
			disc := float64(rng.Intn(11)) / 100
			tax := float64(rng.Intn(9)) / 100
			ship := od + int64(1+rng.Intn(121))
			if err := insert("lineitem",
				dsdb.NewInt(key), dsdb.NewInt(int64(1+rng.Intn(nPart))), dsdb.NewInt(int64(1+rng.Intn(nSupp))),
				dsdb.NewInt(int64(ln)), dsdb.NewFloat(qty), dsdb.NewFloat(price), dsdb.NewFloat(disc), dsdb.NewFloat(tax),
				pick("R", "A", "N"), pick("O", "F"),
				dsdb.NewDate(ship), dsdb.NewDate(ship+int64(rng.Intn(30))), dsdb.NewDate(ship+int64(1+rng.Intn(30))),
				pick("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"),
				pick("DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"),
			); err != nil {
				return err
			}
			e.inserted.lineitem++
			total += price * (1 - disc) * (1 + tax)
		}
		if err := insert("orders",
			dsdb.NewInt(key), dsdb.NewInt(int64(1+rng.Intn(nCust))), pick("O", "F", "P"), dsdb.NewFloat(total),
			dsdb.NewDate(od), pick("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"), dsdb.NewInt(0),
		); err != nil {
			return err
		}
		e.inserted.orders++
	}
	return nil
}

// cycleStats is what one cycle adds beyond its operation samples.
type cycleStats struct {
	cycleMS    []float64
	insertTime time.Duration
	aHits      int
	bHits      int
	mismatch   int
}

// cycle runs one insert -> re-execute -> hit (-> checkpoint) cycle.
func (e *durableEnv) cycle(r *run, cs *cycleStats) error {
	e.cycles++
	c0 := time.Now()
	t0 := c0
	if err := e.insertBatch(&cs.insertTime); err != nil {
		return err
	}
	r.ops = append(r.ops, sample{opInsertBatch, ms(time.Since(t0))})
	r.spans.add("engine.insert_batch", uint64(e.cycles), -1, t0, time.Since(t0))
	r.attempted++

	passA := make([]digest, len(durableQueries))
	for i, qn := range durableQueries {
		t0 = time.Now()
		d, hit, err := e.query(qn)
		if err != nil {
			return err
		}
		lat := time.Since(t0)
		r.ops = append(r.ops, sample{fmt.Sprintf("%sq%d", requeryTypePrefix, qn), ms(lat)})
		r.spans.add("client.requery", uint64(e.cycles), -1, t0, lat)
		r.attempted++
		passA[i] = d
		if hit {
			cs.aHits++
		}
	}
	t0 = time.Now()
	for i, qn := range durableQueries {
		d, hit, err := e.query(qn)
		if err != nil {
			return err
		}
		if hit {
			cs.bHits++
		}
		// What the cache serves must be what was just executed.
		if d != passA[i] {
			cs.mismatch++
			r.failed++
		}
	}
	r.ops = append(r.ops, sample{opHitPass, ms(time.Since(t0))})
	r.spans.add("client.hit_pass", uint64(e.cycles), -1, t0, time.Since(t0))
	r.attempted++

	if e.cycles%checkpointEvery == 0 {
		t0 = time.Now()
		if err := e.db.Checkpoint(); err != nil {
			return err
		}
		r.ops = append(r.ops, sample{opCheckpoint, ms(time.Since(t0))})
		r.spans.add("engine.checkpoint", uint64(e.cycles), -1, t0, time.Since(t0))
		r.attempted++
	}
	cs.cycleMS = append(cs.cycleMS, ms(time.Since(c0)))
	return nil
}

// runCycles runs cycles in groups of checkpointEvery (so every run
// holds the same share of checkpoints) until the pacer stops it.
func (e *durableEnv) runCycles(r *run, share float64) (cycleStats, phaseStats, error) {
	var cs cycleStats
	p := newPacer(r.cfg, share)
	ps, err := measurePhase(func() error {
		for p.next() {
			for i := 0; i < checkpointEvery; i++ {
				if err := e.cycle(r, &cs); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return cs, ps, err
}

func (e *durableEnv) measure(r *run) error {
	before := e.snapshot()
	cs, ps, err := e.runCycles(r, 1)
	if err != nil {
		return err
	}
	r.phase = ps
	e.separation(r, before, e.snapshot(), cs)
	_, err = e.crashCheck(r)
	return err
}

func (e *durableEnv) separation(r *run, a, b counters, cs cycleStats) {
	n := len(cs.cycleMS)
	r.check("pass A re-executes", cs.aHits == 0, "%d hits in %d pass-A queries", cs.aHits, n*len(durableQueries))
	r.check("pass B hits", cs.bHits == n*len(durableQueries) && cs.mismatch == 0,
		"%d hits in %d pass-B queries, %d differ from pass A", cs.bHits, n*len(durableQueries), cs.mismatch)
	inval := b.qc.inval - a.qc.inval
	r.check("invalidations", inval == uint64(n*len(durableQueries)), "%d invalidations over %d cycles", inval, n)
	hits, misses := float64(b.pool.Hits-a.pool.Hits), float64(b.pool.Misses-a.pool.Misses)
	perQuery := misses / float64(n*len(durableQueries))
	r.check("pool too small", perQuery >= 10, "%.1f buffer misses per re-executed query, hit ratio %.4f (tpcd_served: ~0 misses, ratio ~1)", perQuery, hits/(hits+misses))
	inserts := uint64(n * ordersPerBatch * (linesPerOrder + 1))
	r.check("wal written", b.wal.Appends-a.wal.Appends >= inserts, "%d wal appends for %d inserts", b.wal.Appends-a.wal.Appends, inserts)
}

// crashCheck is the durability assertion: abandon the database as a
// crash would leave it (no flush, no checkpoint), reopen, and require
// every acknowledged insert: row counts and checksum queries must
// equal their pre-crash values. It returns the recovery time. The
// process survives, so the page cache does too: this covers a process
// crash, not power loss (the engine fsyncs at checkpoints only).
func (e *durableEnv) crashCheck(r *run) (time.Duration, error) {
	ctx := context.Background()
	checksum := func(db *dsdb.DB) ([]digest, error) {
		var out []digest
		for _, q := range []string{
			"select count(*) from lineitem", "select count(*) from orders",
			"select sum(l_extendedprice) from lineitem", "select sum(o_totalprice) from orders",
		} {
			res, err := db.Exec(ctx, q)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q, err)
			}
			out = append(out, digestResult(res))
		}
		return out, nil
	}
	// A final unlogged-by-checkpoint batch, so recovery always has a
	// log to replay.
	if err := e.insertBatch(nil); err != nil {
		return 0, err
	}
	wantLines, wantOrders := e.db.NumRows("lineitem"), e.db.NumRows("orders")
	want, err := checksum(e.db)
	if err != nil {
		return 0, err
	}
	if err := e.stopServing(); err != nil {
		return 0, err
	}
	e.db.Abandon()
	t0 := time.Now()
	db, err := dsdb.Open(durableOptions(r, e.dir, e.frames)...)
	recovery := time.Since(t0)
	if err != nil {
		e.db = nil
		return 0, fmt.Errorf("reopen after crash: %w", err)
	}
	e.db = db
	got, err := checksum(db)
	if err != nil {
		return 0, err
	}
	same := db.WarmStarted() && db.NumRows("lineitem") == wantLines && db.NumRows("orders") == wantOrders
	for i := range want {
		same = same && got[i] == want[i]
	}
	r.attempted++
	if !same {
		r.failed++
	}
	r.check("every acknowledged insert survives a crash", same,
		"after Abandon+reopen: lineitem %d (want %d), orders %d (want %d), %d inserted rows, checksums %v vs %v",
		db.NumRows("lineitem"), wantLines, db.NumRows("orders"), wantOrders, e.inserted.lineitem+e.inserted.orders, got, want)
	return recovery, nil
}

func (e *durableEnv) trace(r *run) error {
	// Untraced phase.
	c0 := e.snapshot()
	csU, psU, err := e.runCycles(r, 0.25)
	if err != nil {
		return err
	}
	c1 := e.snapshot()
	opsU := append([]sample(nil), r.ops...)
	r.phase = psU
	e.separation(r, c0, c1, csU)

	med := typeMedians(opsU)
	var requery []sample
	for _, s := range opsU {
		if strings.HasPrefix(s.typ, requeryTypePrefix) {
			requery = append(requery, s)
		}
	}
	r.queryMetrics(requery, rate(2*len(durableQueries)*len(csU.cycleMS), psU.wall))
	r.set("cycle_p50_ms", median(csU.cycleMS))
	r.set("insert_batch_p50_ms", med[opInsertBatch])
	r.set("checkpoint_p50_ms", med[opCheckpoint])

	// Counter-sourced metrics of the untraced phase.
	cycles := float64(len(csU.cycleMS))
	inserts := cycles * ordersPerBatch * (linesPerOrder + 1)
	executed := cycles * float64(len(durableQueries))
	hits, misses := float64(c1.pool.Hits-c0.pool.Hits), float64(c1.pool.Misses-c0.pool.Misses)
	r.set("buffer.hit_ratio", hits/(hits+misses))
	r.set("buffer.misses_per_query", misses/executed)
	r.set("buffer.io_ms_per_query", ms(c1.stage[obs.StageIO]-c0.stage[obs.StageIO])/executed)
	r.set("qcache.hit_ratio", float64(c1.qc.hits-c0.qc.hits)/float64(c1.qc.hits-c0.qc.hits+c1.qc.misses-c0.qc.misses))
	if st, ok := e.db.ResultCacheStats(); ok && st.Entries > 0 {
		r.set("qcache.bytes_per_entry", float64(st.UsedBytes)/float64(st.Entries))
	}
	r.set("wal.appends_per_insert", float64(c1.wal.Appends-c0.wal.Appends)/inserts)
	r.set("wal.fsyncs", float64(c1.wal.Fsyncs-c0.wal.Fsyncs)/(cycles/checkpointEvery))
	r.set("wal.stage_us_per_insert", us(c1.stage[obs.StageWAL]-c0.stage[obs.StageWAL])/inserts)
	r.set("engine.insert_us", us(csU.insertTime-(c1.stage[obs.StageWAL]-c0.stage[obs.StageWAL]))/inserts)
	r.set("wire.bytes_per_row", float64(c1.srv.BytesWritten-c0.srv.BytesWritten)/float64(c1.srv.RowsStreamed-c0.srv.RowsStreamed))
	r.set("server.bytes_per_query", float64(c1.srv.BytesWritten-c0.srv.BytesWritten)/float64(c1.srv.Queries-c0.srv.Queries))

	// Traced phase: the same cycles with benchmark spans on.
	r.spans = newSpanLog(1024)
	nU := len(r.ops)
	_, psT, err := e.runCycles(r, 0.25)
	if err != nil {
		return err
	}
	r.set("bench.trace_overhead_ratio", rate(len(r.ops)-nU, psT.wall)/rate(nU, psU.wall))
	r.ops = opsU

	// One more batch and checkpoint, measured in bytes on disk: what
	// the inserts add to the WAL and the checkpoint to the page files.
	walDir := filepath.Join(e.dir, "wal")
	w0 := dirBytes(walDir)
	if err := e.insertBatch(nil); err != nil {
		return err
	}
	r.set("wal.bytes_per_insert", float64(dirBytes(walDir)-w0)/float64(ordersPerBatch*(linesPerOrder+1)))
	d0 := dirBytes(e.dir) - dirBytes(walDir)
	if err := e.db.Checkpoint(); err != nil {
		return err
	}
	d1 := dirBytes(e.dir) - dirBytes(walDir)
	r.set("storage.checkpoint_bytes", float64(d1-d0))

	recovery, err := e.crashCheck(r)
	if err != nil {
		return err
	}
	r.set("wal.recover_ms", ms(recovery))

	// Open times: a cleanly closed directory, then a fresh one.
	user, err := e.tupleBytes()
	if err != nil {
		return err
	}
	if err := e.db.Close(); err != nil {
		return err
	}
	e.db = nil
	r.set("storage.bytes_per_user_byte", float64(dirBytes(e.dir))/float64(user))
	t0 := time.Now()
	db, err := dsdb.Open(durableOptions(r, e.dir, e.frames)...)
	if err != nil {
		return err
	}
	r.set("engine.open_warm_ms", ms(time.Since(t0)))
	e.db = db
	cold, err := r.tmpDir("cold")
	if err != nil {
		return err
	}
	t0 = time.Now()
	fresh, err := dsdb.Open(durableOptions(r, cold, e.frames)...)
	if err != nil {
		return err
	}
	r.set("engine.open_cold_ms", ms(time.Since(t0)))
	if err := fresh.Close(); err != nil {
		return err
	}
	return os.RemoveAll(cold)
}

// tupleBytes sizes the user data in the database: every row of every
// table at 9 bytes per datum (type tag + 8-byte payload) plus string
// payloads.
func (e *durableEnv) tupleBytes() (int64, error) {
	eng := e.db.Engine()
	var n int64
	var dst []dsdb.Value
	for _, t := range eng.Cat.Tables() {
		sc := eng.Heap(t.Name).BeginScan()
		for {
			vals, _, ok, err := sc.Next(probe.NopTracer{}, dst)
			if err != nil {
				sc.Close()
				return 0, err
			}
			if !ok {
				break
			}
			for _, v := range vals {
				n += 9 + int64(len(v.S))
			}
			dst = vals
		}
		sc.Close()
	}
	return n, nil
}
