// Command dsload fires TPC-D load at a dsdbd server: N client
// sessions driving a query mix (train/test/all or an explicit list),
// closed-loop by default or open-loop at a fixed Poisson arrival rate
// with -arrival-rate, with warmup rounds excluded from measurement,
// then prints the latency/throughput summary whose format is pinned
// by the dsdb/load golden tests. Against a server running with a
// result cache, the summary additionally reports the cache hit ratio
// and separate cached/uncached latency percentiles.
//
// Usage:
//
//	dsload -addr 127.0.0.1:5454 -clients 8 -rounds 5 -warmup 1 -mix test
//	dsload -addr 127.0.0.1:5454 -clients 2 -rounds 1 -mix 3,4,6
//	dsload -addr 127.0.0.1:5454 -clients 4 -arrival-rate 200 -mix train
//	dsload -addr 127.0.0.1:5454 -scenario slowreader -slow-clients 2  # liveness probe
//	dsload -addr 127.0.0.1:5454 -scenario zipf -zipf-s 2 -server-stats
//	dsload -addr 127.0.0.1:5454 -arrival-rate 200 -scenario burst -burst-factor 8
//	dsload -addr 127.0.0.1:5454 -mix test -explain-worst  # ANALYZE the slowest query
//
// The -scenario flag layers adversarial traffic over the mix:
// slowreader adds stalled connections and reports how many the
// server's write timeout killed, zipf draws the mix Zipfian with the
// first query as the hot key, and burst compresses the open-loop
// schedule into periodic bursts at the same average rate.
// -server-stats fetches the server's counter snapshot (a wire Stats
// frame) after the run. -report-json writes the machine-readable run
// summary (throughput, latency percentiles, hit ratio, per-query
// stats, and — when the server is reachable for a stats snapshot —
// its counters and per-stage means) to the given path.
// -explain-worst re-runs the query with the worst max latency of the
// measured phase under EXPLAIN ANALYZE and prints the annotated plan,
// so a slow run ends with the operator-level evidence in hand.
// Against a server recording its workload (dsdbd -capture-dir),
// -capture-out writes the server's capture counters as JSON after the
// run — CI asserts dropped == 0 there to prove the run was captured
// in full before replaying it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/dsdb"
	"repro/dsdb/client"
	"repro/dsdb/load"
	"repro/dsdb/wire"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:5454", "dsdbd server address")
	clients := flag.Int("clients", 4, "concurrent closed-loop client sessions")
	rounds := flag.Int("rounds", 3, "measured rounds of the mix per client")
	warmup := flag.Int("warmup", 1, "unmeasured warmup rounds per client")
	mixFlag := flag.String("mix", "train", "query mix: train, test, all, or numbers like 3,4,6")
	seed := flag.Int64("seed", 0, "per-client query-order shuffle seed (0 = mix order)")
	wait := flag.Duration("wait-ready", 15*time.Second, "how long to retry the first connection while the server loads")
	timeout := flag.Duration("timeout", 0, "overall run deadline (0 = none)")
	arrivalRate := flag.Float64("arrival-rate", 0, "open-loop aggregate Poisson arrival rate in queries/s (0 = closed loop)")
	scenario := flag.String("scenario", "", "adversarial scenario: slowreader, zipf, or burst (empty = plain mix)")
	slowClients := flag.Int("slow-clients", 0, "slowreader: stalled connections to add (0 = default 2)")
	slowKillWait := flag.Duration("slow-kill-wait", 0, "slowreader: how long to wait for the server to kill stalled readers (0 = default 15s)")
	zipfS := flag.Float64("zipf-s", 0, "zipf: skew exponent > 1 (0 = default 1.5)")
	burstFactor := flag.Float64("burst-factor", 0, "burst: rate multiplier during bursts (0 = default 8)")
	burstPeriod := flag.Duration("burst-period", 0, "burst: burst cycle period (0 = default 1s)")
	serverStats := flag.Bool("server-stats", false, "after the run, fetch and print the server's counter snapshot")
	reportJSON := flag.String("report-json", "", "write the machine-readable run summary (JSON) to this path")
	captureOut := flag.String("capture-out", "", "write the server's workload-capture counters (JSON) to this path; fails if the server runs without -capture-dir")
	explainWorst := flag.Bool("explain-worst", false, "after the run, EXPLAIN ANALYZE the query with the worst max latency and print the plan")
	flag.Parse()

	mix, err := load.ParseMix(*mixFlag)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	fmt.Fprintf(os.Stderr, "dsload: %d clients × %d+%d rounds of mix %s against %s\n",
		*clients, *warmup, *rounds, mix.Name, *addr)
	sum, err := load.Run(ctx, load.Params{
		Addr:         *addr,
		Clients:      *clients,
		Rounds:       *rounds,
		Warmup:       *warmup,
		Mix:          mix,
		Seed:         *seed,
		WaitReady:    *wait,
		ArrivalRate:  *arrivalRate,
		Scenario:     *scenario,
		SlowClients:  *slowClients,
		SlowKillWait: *slowKillWait,
		ZipfS:        *zipfS,
		BurstFactor:  *burstFactor,
		BurstPeriod:  *burstPeriod,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(sum.Report())
	// One stats snapshot serves both consumers: the human -server-stats
	// dump and the JSON report's server sections.
	var st *wire.Stats
	if *serverStats || *reportJSON != "" || *captureOut != "" {
		db, err := client.Dial(*addr)
		if err != nil {
			log.Fatalf("dsload: server stats: %v", err)
		}
		snap, err := db.ServerStats()
		db.Close()
		if err != nil {
			log.Fatalf("dsload: server stats: %v", err)
		}
		st = &snap
	}
	if *serverStats {
		fmt.Println("server stats:")
		for _, p := range st.Pairs {
			fmt.Printf("  %s=%d\n", p.Name, p.Value)
		}
	}
	if *reportJSON != "" {
		blob, err := json.MarshalIndent(load.BuildJSONReport(sum, st), "", "  ")
		if err != nil {
			log.Fatalf("dsload: -report-json: %v", err)
		}
		if err := os.WriteFile(*reportJSON, append(blob, '\n'), 0o644); err != nil {
			log.Fatalf("dsload: -report-json: %v", err)
		}
		fmt.Fprintf(os.Stderr, "dsload: wrote JSON report to %s\n", *reportJSON)
	}
	if *captureOut != "" {
		cap := load.Section(st, "capture")
		if cap == nil {
			log.Fatalf("dsload: -capture-out: server at %s runs without workload capture (start dsdbd with -capture-dir)", *addr)
		}
		blob, err := json.MarshalIndent(cap, "", "  ")
		if err != nil {
			log.Fatalf("dsload: -capture-out: %v", err)
		}
		if err := os.WriteFile(*captureOut, append(blob, '\n'), 0o644); err != nil {
			log.Fatalf("dsload: -capture-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "dsload: wrote server capture counters to %s\n", *captureOut)
	}
	if *explainWorst {
		if err := explainWorstQuery(ctx, *addr, sum); err != nil {
			log.Fatalf("dsload: -explain-worst: %v", err)
		}
	}
}

// explainWorstQuery picks the query with the largest observed max
// latency from the run summary, re-runs it on a fresh connection under
// EXPLAIN ANALYZE, and prints the annotated plan. One extra execution
// after the measured phase — the analyzed run is not representative of
// the worst sample (caches are warm by now), but the plan shape and
// the per-operator cost split are.
func explainWorstQuery(ctx context.Context, addr string, sum *load.Summary) error {
	var worst *load.QueryStat
	for i := range sum.PerQuery {
		q := &sum.PerQuery[i]
		if q.Count == 0 {
			continue
		}
		if worst == nil || q.Lat.Max > worst.Lat.Max {
			worst = q
		}
	}
	if worst == nil {
		return fmt.Errorf("no measured queries in the run")
	}
	qn, err := strconv.Atoi(strings.TrimPrefix(worst.Label, "Q"))
	if err != nil {
		return fmt.Errorf("unrecognized query label %q", worst.Label)
	}
	text, ok := dsdb.TPCDQuery(qn)
	if !ok {
		return fmt.Errorf("no TPC-D query %d", qn)
	}
	db, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer db.Close()
	rows, err := db.QueryLabeled(ctx, worst.Label+"-explain", "explain analyze "+text)
	if err != nil {
		return err
	}
	defer rows.Close()
	fmt.Printf("worst query %s (max %s over %d runs), EXPLAIN ANALYZE:\n",
		worst.Label, worst.Lat.Max.Round(time.Microsecond), worst.Count)
	for rows.Next() {
		vals := rows.Values()
		if len(vals) > 0 {
			fmt.Println(vals[0].String())
		}
	}
	return rows.Err()
}
