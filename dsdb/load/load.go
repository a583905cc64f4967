// Package load drives query traffic and summarizes its latency and
// throughput: Run is the load generator behind cmd/dsload (N client
// sessions driving a TPC-D mix at a dsdb server), Replay the replayer
// behind cmd/dsreplay (a captured workload, over the wire or
// in-process). Both run on one driver: N workers, each with its own
// connection, take their queries from
//
//   - lanes, worker i running its own list in order: a client's passes
//     over the mix (dsload's closed loop, the default), or the recorded
//     sessions Replay folded onto that worker; or
//   - one shared queue, an arrival schedule whose next query goes to
//     whichever worker is free: dsload's open loop (Params.ArrivalRate
//     > 0; Poisson arrivals, or ScenarioBurst's bursts).
//
// A closed run times each query from when it starts, so a worker's next
// query waits for its last. A paced run (the open loop, and
// ReplayParams.Paced) holds each query until it is due and times it
// from then, so time spent queueing for a free connection is included
// in the reported percentiles. Warmup rounds are one unmeasured run of
// the same workers before the measured one, and the first failure
// cancels the run.
//
// When the server carries a result cache, each sample also records
// whether it was served from cache, and the summary reports the hit
// ratio alongside separate cached/uncached latency percentiles. The
// Summary's Report rendering is pinned by golden-file tests, so
// downstream tooling can parse it.
package load

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/dsdb"
	"repro/dsdb/client"
	"repro/dsdb/wire"
	"repro/internal/tpcd"
)

// Mix is a named TPC-D query mix.
type Mix struct {
	Name    string
	Numbers []int
}

// TrainMix is the paper's training set (tpcd.TrainingQueries).
func TrainMix() Mix { return Mix{Name: "train", Numbers: slices.Clone(tpcd.TrainingQueries)} }

// TestMix is the paper's test set (tpcd.TestQueries).
func TestMix() Mix { return Mix{Name: "test", Numbers: slices.Clone(tpcd.TestQueries)} }

// AllMix is every implemented TPC-D query.
func AllMix() Mix { return Mix{Name: "all", Numbers: dsdb.TPCDQueryNumbers()} }

// ParseMix resolves a -mix flag value: "train", "test", "all", or a
// comma-separated list of TPC-D query numbers ("3,4,6").
func ParseMix(s string) (Mix, error) {
	switch s {
	case "train":
		return TrainMix(), nil
	case "test":
		return TestMix(), nil
	case "all":
		return AllMix(), nil
	}
	var m Mix
	m.Name = s
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return Mix{}, fmt.Errorf("load: bad mix %q (want train, test, all, or query numbers like 3,4,6)", s)
		}
		if _, ok := dsdb.TPCDQuery(n); !ok {
			return Mix{}, fmt.Errorf("load: no TPC-D query %d (have %v)", n, dsdb.TPCDQueryNumbers())
		}
		m.Numbers = append(m.Numbers, n)
	}
	if len(m.Numbers) == 0 {
		return Mix{}, fmt.Errorf("load: empty mix %q", s)
	}
	return m, nil
}

// Params configures one load run.
type Params struct {
	// Addr is the dsdb server address.
	Addr string
	// Clients is the number of concurrent closed-loop sessions
	// (default 1).
	Clients int
	// Rounds is how many times each client runs the whole mix,
	// measured (default 1).
	Rounds int
	// Warmup is how many unmeasured rounds each client runs first.
	Warmup int
	// Mix is the query mix (default TrainMix).
	Mix Mix
	// Seed shuffles each client's query order deterministically
	// (client i uses Seed+i); 0 keeps the mix order for every client.
	Seed int64
	// WaitReady, when positive, retries the first connection for up to
	// this long — so a load run can start before its server finishes
	// loading TPC-D.
	WaitReady time.Duration
	// ArrivalRate, when positive, switches the measured phase to an
	// open loop: queries arrive at this aggregate rate (queries per
	// second) on a Poisson schedule, dispatched over the Clients
	// connections, and each latency is measured from the query's
	// scheduled arrival — queueing delay included. Warmup rounds still
	// run closed-loop. 0 keeps the classic closed loop.
	ArrivalRate float64

	// Scenario selects an adversarial traffic mode ("" keeps the plain
	// mix): ScenarioSlowReader, ScenarioZipf, or ScenarioBurst — see
	// scenario.go for what each stresses.
	Scenario string
	// SlowClients is how many stalled connections ScenarioSlowReader
	// adds (default 2); SlowKillWait bounds how long the run waits, at
	// the end, for the server to disconnect them (default 15s — cover
	// the server's write timeout).
	SlowClients  int
	SlowKillWait time.Duration
	// ZipfS is ScenarioZipf's exponent (> 1, default 1.5; larger =
	// more skew toward the first query of the mix).
	ZipfS float64
	// BurstFactor and BurstPeriod shape ScenarioBurst: BurstFactor×
	// the arrival rate for 1/BurstFactor of each period (defaults 8
	// and 1s).
	BurstFactor float64
	BurstPeriod time.Duration
}

// Latency summarizes a latency distribution.
type Latency struct {
	P50, P90, P99, Max time.Duration
}

// QueryStat is the per-query slice of a Summary.
type QueryStat struct {
	Label string // "Q3"
	Count int
	Rows  int64
	Lat   Latency
}

// Summary is the result of one load run.
type Summary struct {
	Mix      string
	Clients  int
	Rounds   int
	Warmup   int
	Queries  int   // measured queries completed
	Rows     int64 // rows streamed by measured queries
	Elapsed  time.Duration
	Lat      Latency
	PerQuery []QueryStat // ascending by query number

	// ArrivalRate echoes Params.ArrivalRate: > 0 means the measured
	// phase ran open-loop and Lat includes queueing delay.
	ArrivalRate float64
	// CacheHits counts measured queries the server answered from its
	// result cache; LatHit/LatMiss split the latency distribution by
	// that attribution (meaningful when CacheHits > 0).
	CacheHits int
	LatHit    Latency
	LatMiss   Latency

	// Scenario echoes Params.Scenario. For ScenarioSlowReader,
	// SlowClients is how many stalled connections ran and SlowKilled
	// how many the server disconnected within the kill wait — the
	// end-to-end proof of the write timeout.
	Scenario    string
	SlowClients int
	SlowKilled  int
}

// HitRatio returns the fraction of measured queries served from the
// server's result cache.
func (s *Summary) HitRatio() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Queries)
}

// Throughput returns measured queries per second.
func (s *Summary) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Queries) / s.Elapsed.Seconds()
}

// Run executes the load: dial Clients sessions, run Warmup+Rounds
// loops over the mix on each — closed-loop, or open-loop when
// ArrivalRate is set — and aggregate the measured samples. The
// context cancels the whole run.
func Run(ctx context.Context, p Params) (*Summary, error) {
	if p.Clients <= 0 {
		p.Clients = 1
	}
	if p.Rounds <= 0 {
		p.Rounds = 1
	}
	if len(p.Mix.Numbers) == 0 {
		p.Mix = TrainMix()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validateScenario(&p); err != nil {
		return nil, err
	}
	run, closeAll, err := dialRunners(ctx, p.Addr, p.WaitReady, p.Clients)
	if err != nil {
		return nil, err
	}
	defer closeAll()

	// Slow readers stall alongside the whole measured run: their open
	// streams hold the engine's shared read latch until the server's
	// write timeout kills them, which is exactly the contention the
	// scenario wants the normal mix to feel.
	var slows []*slowReader
	if p.Scenario == ScenarioSlowReader {
		if slows, err = startSlowReaders(p); err != nil {
			return nil, err
		}
	}

	s, err := runMix(ctx, p, run)
	if err != nil {
		for _, sr := range slows {
			sr.nc.Close()
		}
		return nil, err
	}
	s.Scenario = p.Scenario
	if p.Scenario == ScenarioSlowReader {
		harvestSlowReaders(s, slows, p.SlowKillWait)
	}
	return s, nil
}

// runMix runs the warmup rounds, unmeasured, then the measured phase:
// closed-loop, each client's own lane of the mix; open-loop, one
// shared arrival schedule.
func runMix(ctx context.Context, p Params, run []runner) (*Summary, error) {
	open := p.ArrivalRate > 0
	warm := make([][]job, p.Clients)
	closed := make([][]job, p.Clients)
	for i := range run {
		order := clientOrder(p.Mix.Numbers, p.Seed, i)
		for range p.Warmup {
			warm[i] = queryJobs(warm[i], order)
		}
		// The measured sequence is Rounds passes over the order — or,
		// under ScenarioZipf, the same number of skewed draws.
		switch {
		case open: // the shared arrival schedule replaces the lanes
		case p.Scenario == ScenarioZipf:
			closed[i] = queryJobs(nil, zipfSeq(p.Mix.Numbers, p.Seed, i, p.Rounds*len(p.Mix.Numbers), p.ZipfS))
		default:
			for range p.Rounds {
				closed[i] = queryJobs(closed[i], order)
			}
		}
	}
	if _, _, err := drive(ctx, "warmup client", run, false, lanes(warm)); err != nil {
		return nil, err
	}
	next := lanes(closed)
	if open {
		next = queue(arrivals(p))
	}
	all, elapsed, err := drive(ctx, "client", run, open, next)
	if err != nil {
		return nil, err
	}
	tot, per := aggregate(all, byQueryNumber)
	s := &Summary{
		Mix:         p.Mix.Name,
		Clients:     p.Clients,
		Rounds:      p.Rounds,
		Warmup:      p.Warmup,
		Queries:     tot.count,
		Rows:        tot.rows,
		Elapsed:     elapsed,
		Lat:         tot.lat,
		ArrivalRate: p.ArrivalRate,
		CacheHits:   tot.hits,
		LatHit:      tot.hit,
		LatMiss:     tot.miss,
	}
	for _, q := range per {
		s.PerQuery = append(s.PerQuery, QueryStat{Label: q.label, Count: q.count, Rows: q.rows, Lat: q.lat})
	}
	return s, nil
}

// queryJobs appends one job per TPC-D query number, labelled "Q<n>".
func queryJobs(js []job, nums []int) []job {
	for _, n := range nums {
		q, _ := dsdb.TPCDQuery(n)
		js = append(js, job{label: fmt.Sprintf("Q%d", n), sql: q})
	}
	return js
}

// arrivals is the open loop's schedule: Clients×Rounds×mix queries (the
// same count a closed-loop run measures), exponential inter-arrival
// gaps at the aggregate rate, query numbers cycling through the mix
// (or drawn Zipfian under ScenarioZipf). Seeded deterministically so
// two runs against the same server issue the identical schedule.
func arrivals(p Params) []job {
	total := p.Clients * p.Rounds * len(p.Mix.Numbers)
	nums := make([]int, total)
	for k := range nums {
		nums[k] = p.Mix.Numbers[k%len(p.Mix.Numbers)]
	}
	if p.Scenario == ScenarioZipf {
		nums = zipfSeq(p.Mix.Numbers, p.Seed, 0, total, p.ZipfS)
	}
	// ScenarioBurst compresses the schedule: arrivals are generated at
	// BurstFactor× the rate and then mapped so each on-window of
	// BurstPeriod/BurstFactor is followed by silence for the rest of
	// the period — the average rate is still ArrivalRate, but it lands
	// in bursts. The mapping is monotonic, so arrivals stay ordered.
	rate := p.ArrivalRate
	remap := func(t time.Duration) time.Duration { return t }
	if p.Scenario == ScenarioBurst {
		rate *= p.BurstFactor
		onDur := time.Duration(float64(p.BurstPeriod) / p.BurstFactor)
		remap = func(t time.Duration) time.Duration {
			return (t/onDur)*p.BurstPeriod + t%onDur
		}
	}
	rng := rand.New(rand.NewSource(p.Seed + 9973))
	js := queryJobs(nil, nums)
	var off time.Duration
	for k := range js {
		js[k].due = remap(off)
		off += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	}
	return js
}

// dialReady dials, retrying transport-level failures (connection
// refused while the server is still loading TPC-D) until the
// deadline. A definitive refusal — the server answered with an error
// frame, e.g. conn_limit or a protocol-version mismatch — surfaces
// immediately; more retries cannot fix it.
func dialReady(ctx context.Context, addr string, wait time.Duration) (*client.DB, error) {
	db, err := client.Dial(addr)
	if err == nil || wait <= 0 {
		return db, err
	}
	deadline := time.Now().Add(wait)
	for {
		var ef wire.ErrorFrame
		if errors.As(err, &ef) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
		if db, err = client.Dial(addr); err == nil {
			return db, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server not ready after %v: %w", wait, err)
		}
	}
}

// clientOrder returns client i's query order: the mix, shuffled by
// Seed+i when a seed is set (deterministic per client, different
// across clients — served traffic, not lockstep).
func clientOrder(nums []int, seed int64, i int) []int {
	order := append([]int(nil), nums...)
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	}
	return order
}

// percentiles computes the summary points over a sample set. The
// P-th percentile is the smallest sample ≥ P% of the distribution
// (nearest-rank), so it is always an observed latency.
func percentiles(lats []time.Duration) Latency {
	if len(lats) == 0 {
		return Latency{}
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	rank := func(p float64) time.Duration {
		i := int(math.Ceil(float64(len(lats))*p)) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	return Latency{
		P50: rank(0.50),
		P90: rank(0.90),
		P99: rank(0.99),
		Max: lats[len(lats)-1],
	}
}
