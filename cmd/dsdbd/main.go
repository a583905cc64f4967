// Command dsdbd is the dsdb daemon: it loads a TPC-D database and
// serves it over the wire protocol (dsdb/wire) until SIGINT/SIGTERM,
// at which point it drains connections at query boundaries and exits.
//
// Usage:
//
//	dsdbd -addr 127.0.0.1:5454 -sf 0.002
//	dsdbd -addr :5454 -hash -max-conns 128 -query-timeout 30s
//	dsdbd -addr :5454 -write-timeout 5s -idle-timeout 10m  # hostile-client bounds
//	dsdbd -addr :5454 -result-cache-bytes 67108864   # 64MB result cache
//	dsdbd -addr :5454 -data-dir /var/lib/dsdb        # durable; restarts warm-start
//
// The write timeout (default 30s) is the slow-client liveness bound:
// a client that stops reading its result stream is disconnected when
// a frame write exceeds it, cancelling the query so stalled readers
// cannot wedge writers. On shutdown the daemon logs its counters, one
// key=value line per section (server, buffer pool, result cache, WAL,
// capture), keyed like the wire stat pairs a live server answers with
// ("show stats", or dsload -server-stats).
//
// Observability: every query gets a per-stage span (plan, cache,
// exec, io, wal, net). -slow-query-log logs queries over the given
// threshold to stderr with their stage breakdown, and "show queries"
// / "show slow" expose the recent/slow rings over the wire.
// -metrics-addr serves /metrics (Prometheus text format: counters,
// the log-spaced latency histogram, per-stage histograms) and
// /debug/pprof on a second listener:
//
//	dsdbd -addr :5454 -metrics-addr 127.0.0.1:9090 -slow-query-log 100ms
//
// With -capture-dir every served query is recorded to an append-only
// workload-capture log (dsdb/wcap): SQL, session, outcome, latency
// and per-stage breakdown, written off the hot path so capture never
// slows a query. -capture-sample keeps only a deterministic fraction
// of queries for high-QPS servers. A capture replays anywhere with
// cmd/dsreplay, and "show capture" exposes the live counters —
// dropped must stay 0 for the capture to be complete:
//
//	dsdbd -addr :5454 -capture-dir /var/lib/dsdb-capture
//	dsdbd -addr :5454 -capture-dir cap -capture-sample 0.01
//
// With -data-dir the database is durable: the first start builds the
// TPC-D dataset, checkpoints it into the directory and write-ahead
// logs every mutation after that; any later start (including after a
// SIGKILL) recovers from the directory and skips the TPC-D load
// entirely. A graceful shutdown drains connections at query boundaries
// and checkpoints before exiting, so the next start replays nothing.
//
// Pair it with cmd/dsload for closed-loop load, or dial it from any
// program via dsdb/client.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/dsdb"
	"repro/dsdb/server"
	"repro/dsdb/wcap"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:5454", "listen address")
	sf := flag.Float64("sf", 0.002, "TPC-D scale factor")
	seed := flag.Int64("seed", 42, "generator seed")
	hash := flag.Bool("hash", false, "use the hash-indexed database instead of Btree")
	frames := flag.Int("frames", 2048, "buffer pool frames")
	maxConns := flag.Int("max-conns", 64, "connection limit")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query deadline (0 = none)")
	writeTimeout := flag.Duration("write-timeout", server.DefaultWriteTimeout, "per-frame-write deadline; a client that stops reading past it is disconnected (0 = unbounded, liveness-unsafe)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close sessions idle between queries for this long (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget before force-closing")
	cacheBytes := flag.Int64("result-cache-bytes", 0, "query result cache budget in bytes (0 = disabled)")
	cacheTTL := flag.Duration("result-cache-ttl", 0, "result cache entry TTL (0 = no expiry)")
	cacheMinCost := flag.Duration("result-cache-min-cost", 0, "result cache admission threshold: skip caching queries whose first run was faster (0 = admit all)")
	dataDir := flag.String("data-dir", "", "durable data directory (empty = in-memory; existing dirs warm-start, skipping the TPC-D load)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address (empty = disabled)")
	slowQuery := flag.Duration("slow-query-log", 0, "log queries slower than this to stderr with their per-stage breakdown (0 = disabled)")
	captureDir := flag.String("capture-dir", "", "record every served query to a workload-capture log in this directory (empty = disabled; replay with dsreplay)")
	captureSample := flag.Float64("capture-sample", 0, "capture only this fraction of queries, deterministically (0 or 1 = all; needs -capture-dir)")
	flag.Parse()

	if (*cacheTTL > 0 || *cacheMinCost > 0) && *cacheBytes <= 0 {
		log.Fatal("dsdbd: -result-cache-ttl/-result-cache-min-cost need -result-cache-bytes > 0")
	}
	if *captureSample != 0 && *captureDir == "" {
		log.Fatal("dsdbd: -capture-sample needs -capture-dir")
	}

	kind := dsdb.BTree
	if *hash {
		kind = dsdb.Hash
	}
	fmt.Fprintf(os.Stderr, "dsdbd: loading TPC-D (SF=%g, %s indices, seed %d)...\n", *sf, kind, *seed)
	opts := []dsdb.Option{dsdb.WithTPCD(*sf), dsdb.WithIndexKind(kind),
		dsdb.WithSeed(*seed), dsdb.WithBufferFrames(*frames)}
	if *cacheBytes > 0 {
		opts = append(opts, dsdb.WithResultCache(*cacheBytes),
			dsdb.WithResultCacheTTL(*cacheTTL),
			dsdb.WithResultCacheAdmission(*cacheMinCost))
	}
	if *dataDir != "" {
		opts = append(opts, dsdb.WithDataDir(*dataDir))
	}
	db, err := dsdb.Open(opts...)
	if err != nil {
		log.Fatal(err)
	}
	if db.WarmStarted() {
		fmt.Fprintf(os.Stderr, "dsdbd: warm start from %s (recovered; TPC-D load skipped)\n", *dataDir)
	} else if *dataDir != "" {
		fmt.Fprintf(os.Stderr, "dsdbd: built durable database in %s\n", *dataDir)
	}

	srvOpts := []server.Option{
		server.WithMaxConns(*maxConns),
		server.WithQueryTimeout(*queryTimeout),
		server.WithWriteTimeout(*writeTimeout),
		server.WithIdleTimeout(*idleTimeout),
		server.WithSlowQueryThreshold(*slowQuery),
	}
	var capture *wcap.Writer
	if *captureDir != "" {
		capture, err = wcap.Open(*captureDir, wcap.Options{Sample: *captureSample})
		if err != nil {
			log.Fatalf("dsdbd: -capture-dir: %v", err)
		}
		srvOpts = append(srvOpts, server.WithCapture(capture))
		fmt.Fprintf(os.Stderr, "dsdbd: capturing served queries to %s\n", *captureDir)
	}
	srv := server.New(db, srvOpts...)
	if *slowQuery > 0 {
		db.Obs().SetSlowLogger(log.New(os.Stderr, "dsdbd: slow query: ", 0))
	}
	if *metricsAddr != "" {
		go func() {
			log.Fatalf("dsdbd: metrics listener: %v", http.ListenAndServe(*metricsAddr, server.NewMetricsMux(srv)))
		}()
		fmt.Fprintf(os.Stderr, "dsdbd: metrics and pprof on http://%s\n", *metricsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	fmt.Fprintf(os.Stderr, "dsdbd: serving on %s (max %d conns)\n", *addr, *maxConns)

	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "dsdbd: %v, draining...\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("dsdbd: forced shutdown: %v", err)
		}
		// Capture closes after the drain: every query that completed is
		// in the log, and the summary below says whether it is complete
		// (capture_dropped=0) before anyone replays it.
		if capture != nil {
			if err := capture.Close(); err != nil {
				log.Printf("dsdbd: capture close: %v", err)
			}
		}
		// The shutdown summary: one key=value line per enabled section,
		// keyed like the wire stat pairs.
		for _, sec := range srv.Sections(srv.Stats()) {
			if !sec.Disabled {
				fmt.Fprintln(os.Stderr, "dsdbd:", sec)
			}
		}
		// Checkpoint-on-drain: collapse the log into page files so the
		// next start recovers instantly (Close checkpoints durable DBs).
		if err := db.Close(); err != nil {
			log.Fatalf("dsdbd: closing database: %v", err)
		}
		if db.Durable() {
			fmt.Fprintln(os.Stderr, "dsdbd: checkpointed data directory")
		}
		fmt.Fprintln(os.Stderr, "dsdbd: clean shutdown")
	case err := <-errc:
		log.Fatalf("dsdbd: %v", err)
	}
}
