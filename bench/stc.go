package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/dsdb"
	"repro/dsdb/load"
	"repro/dsdb/stcpipe"
)

// stc_pipeline: the paper flow on dsdb/stcpipe, nothing served. One
// pass profiles the training set on the B-tree database and the test
// set on both databases (one trace, as the paper records it), derives
// the weighted CFG, builds the five layouts and, for each, simulates
// the test trace through three fetch units and measures sequentiality.
// Every call is one typed operation.

var fetchConfigs = []struct {
	name string
	fc   stcpipe.FetchConfig
}{
	{"ideal", stcpipe.FetchConfig{}},
	{"2k", stcpipe.FetchConfig{CacheBytes: 2048}},
	{"2k_tc", stcpipe.FetchConfig{CacheBytes: 2048, TraceCacheEntries: 64}},
}

type stcEnv struct {
	bt, hs *dsdb.DB
	pipe   *stcpipe.Pipeline
	// train and test are the paper's query sets in this seed's order.
	train, test stcpipe.Workload
}

// shuffled returns a paper query set in a seed-drawn order. The
// queries, and so the work of a pass, are the same for every seed.
func shuffled(name string, nums []int, rng *rand.Rand) (stcpipe.Workload, error) {
	nums = append([]int(nil), nums...)
	rng.Shuffle(len(nums), func(a, b int) { nums[a], nums[b] = nums[b], nums[a] })
	return stcpipe.TPCD(name, nums...)
}

func setupSTC(r *run) (env, error) {
	e := &stcEnv{}
	var err error
	if e.bt, err = dsdb.Open(dsdb.WithTPCD(r.cfg.stcSF()), dsdb.WithSeed(dataSeed)); err != nil {
		return nil, err
	}
	if e.hs, err = dsdb.Open(dsdb.WithTPCD(r.cfg.stcSF()), dsdb.WithSeed(dataSeed), dsdb.WithIndexKind(dsdb.Hash)); err != nil {
		return e, err
	}
	e.pipe = stcpipe.New()
	rng := rand.New(rand.NewSource(r.cfg.seed))
	if e.train, err = shuffled("train", load.TrainMix().Numbers, rng); err != nil {
		return e, err
	}
	if e.test, err = shuffled("test", load.TestMix().Numbers, rng); err != nil {
		return e, err
	}
	// Warm-up: every query of a pass once, untraced, so no pass pays
	// the cold buffer pools.
	if _, err := runUntraced(e.bt, e.train); err != nil {
		return e, err
	}
	if _, err := runUntraced(e.bt, e.test); err != nil {
		return e, err
	}
	_, err = runUntraced(e.hs, e.test)
	return e, err
}

func (e *stcEnv) close() error {
	var err error
	for _, db := range []*dsdb.DB{e.bt, e.hs} {
		if db != nil {
			if cerr := db.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// runUntraced drains a workload's queries without a tracer and
// returns the wall time: the base traced time is compared with.
func runUntraced(db *dsdb.DB, w stcpipe.Workload) (time.Duration, error) {
	t0 := time.Now()
	for i, q := range w.Queries {
		rows, err := db.Query(context.Background(), q)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", w.Labels[i], err)
		}
		for rows.Next() {
		}
		err = rows.Err()
		rows.Close()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", w.Labels[i], err)
		}
	}
	return time.Since(t0), nil
}

// passStats is everything one pass computes that must be identical in
// every pass of a run and, at seed 42, equal to the golden file: a
// change meant to speed the pipeline up must leave all of it alone.
type passStats struct {
	lines []string
	// host-time work units, for the per-instruction rates
	events      int // basic-block events recorded by the three profile runs
	queries     int // traced queries
	profileTime time.Duration
	simInstrs   uint64
	simTime     time.Duration
	byOp        map[string]time.Duration
	testEvents  int
	testInstrs  uint64
	sim         map[string]stcpipe.Result // "<layout>/<fetch config>"
	seq         map[string]float64
}

func (e *stcEnv) pass(r *run, pass int) (*passStats, error) {
	ps := &passStats{byOp: map[string]time.Duration{}, sim: map[string]stcpipe.Result{}, seq: map[string]float64{}}
	t0 := time.Now()
	op := func(name string) {
		d := time.Since(t0)
		r.ops = append(r.ops, sample{name, ms(d)})
		r.spans.add("stc."+name, uint64(pass), -1, t0, d)
		ps.byOp[name] = d
		r.attempted++
		t0 = time.Now()
	}
	train, err := e.pipe.Profile(e.bt, e.train)
	if err != nil {
		return nil, err
	}
	op("profile_train_btree")
	test, err := e.pipe.Profile(e.bt, e.test)
	if err != nil {
		return nil, err
	}
	op("profile_test_btree")
	if err := test.Run(e.hs, e.test); err != nil {
		return nil, err
	}
	op("profile_test_hash")
	ps.profileTime = ps.byOp["profile_train_btree"] + ps.byOp["profile_test_btree"] + ps.byOp["profile_test_hash"]
	ps.events = train.Events() + test.Events()
	ps.queries = len(e.train.Queries) + 2*len(e.test.Queries)
	ps.testEvents, ps.testInstrs = test.Events(), test.Instrs()
	ps.lines = append(ps.lines,
		fmt.Sprintf("train events=%d instrs=%d", train.Events(), train.Instrs()),
		fmt.Sprintf("test events=%d instrs=%d", test.Events(), test.Instrs()))

	// The first profile-derived call builds the weighted CFG from the
	// trace; Footprint is the cheapest one, so its time is the build's.
	fp := train.Footprint()
	op("profile_build")
	ps.lines = append(ps.lines, fmt.Sprintf("train footprint procs=%.4f blocks=%.4f instrs=%.4f", fp.PctProcs(), fp.PctBlocks(), fp.PctInstrs()))

	// The five layout builds are one operation: each takes well under a
	// millisecond, too little to time as a type of its own (their
	// separate times are per-layer metrics).
	var names []string
	var layouts []*stcpipe.Layout
	lt0 := time.Now()
	for _, alg := range stcpipe.Algorithms(stcpipe.Params{}) {
		name := strings.ToLower(strings.ReplaceAll(alg.Name(), "&", ""))
		b0 := time.Now()
		lay, err := train.Layout(alg)
		if err != nil {
			return nil, err
		}
		ps.byOp["layout_"+name] = time.Since(b0)
		names, layouts = append(names, name), append(layouts, lay)
	}
	t0 = lt0
	op("layouts")
	delete(ps.byOp, "layouts")
	for i, lay := range layouts {
		name := names[i]
		for _, fc := range fetchConfigs {
			res, err := test.Simulate(lay, fc.fc)
			if err != nil {
				return nil, err
			}
			op("sim_" + name + "_" + fc.name)
			ps.simInstrs += res.Instrs
			ps.simTime += ps.byOp["sim_"+name+"_"+fc.name]
			ps.sim[name+"/"+fc.name] = res
			ps.lines = append(ps.lines, fmt.Sprintf("%s %s ipc=%.6f miss_per_100=%.6f cycles=%d tc_hits=%d", name, fc.name, res.IPC(), res.MissesPer100Instr(), res.Cycles, res.TCHits))
		}
		ps.seq[name] = test.Sequentiality(lay)
		op("seq_" + name)
		ps.lines = append(ps.lines, fmt.Sprintf("%s instr_per_taken=%.6f", name, ps.seq[name]))
	}
	return ps, nil
}

// runPasses runs whole passes until the pacer stops it and checks
// that the simulated statistics are the same in each.
func (e *stcEnv) runPasses(r *run, share float64) ([]*passStats, phaseStats, error) {
	var passes []*passStats
	p := newPacer(r.cfg, share)
	phase, err := measurePhase(func() error {
		for p.next() {
			ps, err := e.pass(r, len(passes)+1)
			if err != nil {
				return err
			}
			passes = append(passes, ps)
		}
		return nil
	})
	if err != nil {
		return nil, phase, err
	}
	same := true
	for _, ps := range passes[1:] {
		if strings.Join(ps.lines, "\n") != strings.Join(passes[0].lines, "\n") {
			same = false
			r.failed++
		}
	}
	r.check("simulated statistics equal across passes", same, "%d passes, %d statistics each", len(passes), len(passes[0].lines))
	return passes, phase, nil
}

// noteOrder records this seed's query order in the report.
func (e *stcEnv) noteOrder(r *run) {
	r.check("query order", true, "%s | %s", strings.Join(e.train.Labels, " "), strings.Join(e.test.Labels, " "))
}

func (e *stcEnv) measure(r *run) error {
	e.noteOrder(r)
	passes, phase, err := e.runPasses(r, 1)
	if err != nil {
		return err
	}
	r.phase = phase
	r.checkGolden("stc_seed42.golden", r.cfg.seed == 42 && !r.cfg.quick, passes[0].lines)
	return nil
}

func (e *stcEnv) trace(r *run) error {
	e.noteOrder(r)
	passesU, phaseU, err := e.runPasses(r, 0.3)
	if err != nil {
		return err
	}
	r.phase = phaseU
	r.checkGolden("stc_seed42.golden", r.cfg.seed == 42 && !r.cfg.quick, passesU[0].lines)
	opsU := r.ops

	r.spans, r.ops = newSpanLog(1024), nil
	_, phaseT, err := e.runPasses(r, 0.3)
	if err != nil {
		return err
	}
	r.set("bench.trace_overhead_ratio", rate(len(r.ops), phaseT.wall)/rate(len(opsU), phaseU.wall))
	r.ops = opsU

	// Host-time rates from the untraced passes (medians over passes).
	var passS, evRate, simRate []float64
	per := map[string][]float64{}
	for _, ps := range passesU {
		var total time.Duration
		for name, d := range ps.byOp {
			total += d
			per[name] = append(per[name], ms(d))
		}
		passS = append(passS, total.Seconds())
		evRate = append(evRate, float64(ps.events)/ps.profileTime.Seconds()/1e6)
		simRate = append(simRate, float64(ps.simInstrs)/ps.simTime.Seconds()/1e6)
	}
	p0 := passesU[0]
	r.set("pipeline_p50_s", median(passS))
	r.set("trace_mevents_per_s", median(evRate))
	r.set("sim_minstr_per_s", median(simRate))
	r.set("profile.build_ms", median(per["profile_build"]))
	r.set("layout.pettishansen_ms", median(per["layout_ph"]))
	r.set("layout.torrellas_ms", median(per["layout_torr"]))
	r.set("core.stc_auto_ms", median(per["layout_auto"]))
	r.set("core.stc_ops_ms", median(per["layout_ops"]))
	nsPerInstr := func(cfg string) float64 {
		var xs []float64
		for _, l := range []string{"orig", "ph", "torr", "auto", "ops"} {
			for _, ms := range per["sim_"+l+"_"+cfg] {
				xs = append(xs, ms*1e6/float64(p0.testInstrs))
			}
		}
		return median(xs)
	}
	r.set("fetch.simulate_ns_per_instr", nsPerInstr("ideal"))
	r.set("cache.dm_ns_per_instr", nsPerInstr("2k"))
	r.set("cache.tracecache_ns_per_instr", nsPerInstr("2k_tc"))
	var seqNS []float64
	for _, l := range []string{"orig", "ph", "torr", "auto", "ops"} {
		for _, ms := range per["seq_"+l] {
			seqNS = append(seqNS, ms*1e6/float64(p0.testEvents))
		}
	}
	r.set("fetch.sequentiality_ns_per_event", median(seqNS))

	// Simulated statistics: exact for a seed.
	r.set("stc_ops_instr_per_taken", p0.seq["ops"])
	r.set("stc_ops_ipc_2k", p0.sim["ops/2k"].IPC())
	r.set("orig_ipc_2k", p0.sim["orig/2k"].IPC())
	r.set("fetch.ipc_ideal_ops", p0.sim["ops/ideal"].IPC())
	for _, l := range []string{"orig", "ph", "torr", "auto", "ops"} {
		r.set("cache.miss_per_100_2k_"+l, p0.sim[l+"/2k"].MissesPer100Instr())
	}

	// The tracing tax: the training set traced (from the passes) against
	// the same queries untraced on the same warm database.
	var untraced, traced []float64
	for i := 0; i < 3; i++ {
		d, err := runUntraced(e.bt, e.train)
		if err != nil {
			return err
		}
		untraced = append(untraced, d.Seconds())
	}
	for _, ps := range passesU {
		traced = append(traced, ps.byOp["profile_train_btree"].Seconds())
	}
	trainEvents := 0
	fmt.Sscanf(p0.lines[0], "train events=%d", &trainEvents)
	r.set("executor.traced_slowdown", median(traced)/median(untraced))
	r.set("kernel.emit_ns_per_event", (median(traced)-median(untraced))*1e9/float64(trainEvents))
	r.set("kernel.events_per_query", float64(p0.events)/float64(p0.queries))
	hits, misses := e.bt.PoolStats().Hits, e.bt.PoolStats().Misses
	r.set("buffer.hit_ratio", float64(hits)/float64(hits+misses))
	return nil
}
