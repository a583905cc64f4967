// Command dsquery builds a TPC-D database and runs a query against it,
// streaming the result rows — a minimal interactive front end for the
// database kernel, built entirely on the public dsdb API.
//
// Usage: dsquery -sf 0.002 -q 6             (TPC-D query by number)
//
//	dsquery -sql "select count(*) from lineitem where l_quantity < 10"
//	dsquery -q 6 -result-cache-bytes 4194304 -repeat 3   # repeat 2+ hit the cache
//	dsquery -q 6 -data-dir /tmp/dsdb   # first run builds the dir, later runs warm-start
//	dsquery -q 3 -explain              # print the plan without executing
//	dsquery -q 3 -analyze              # execute under per-operator instrumentation
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/dsdb"
)

func main() {
	log.SetFlags(0)
	sf := flag.Float64("sf", 0.002, "TPC-D scale factor")
	qn := flag.Int("q", 0, "TPC-D query number (2,3,4,5,6,9,11,12,13,14,15,17)")
	text := flag.String("sql", "", "ad-hoc SQL text (overrides -q)")
	hash := flag.Bool("hash", false, "use the hash-indexed database instead of Btree")
	seed := flag.Int64("seed", 42, "generator seed")
	cacheBytes := flag.Int64("result-cache-bytes", 0, "query result cache budget in bytes (0 = disabled)")
	repeat := flag.Int("repeat", 1, "run the query this many times (rows printed once; repeats show cache hits)")
	dataDir := flag.String("data-dir", "", "durable data directory: first run builds and checkpoints it, later runs warm-start without reloading TPC-D")
	explain := flag.Bool("explain", false, "print the query plan instead of executing (EXPLAIN)")
	analyze := flag.Bool("analyze", false, "execute under per-operator instrumentation and print the annotated plan (EXPLAIN ANALYZE)")
	flag.Parse()

	query := *text
	if query == "" {
		q, ok := dsdb.TPCDQuery(*qn)
		if !ok {
			log.Fatalf("no TPC-D query %d; use -q or -sql", *qn)
		}
		query = q
	}
	switch {
	case *analyze:
		query = "explain analyze " + query
	case *explain:
		query = "explain " + query
	}
	kind := dsdb.BTree
	if *hash {
		kind = dsdb.Hash
	}
	fmt.Fprintf(os.Stderr, "loading TPC-D (SF=%g, %s indices)...\n", *sf, kind)
	opts := []dsdb.Option{dsdb.WithTPCD(*sf), dsdb.WithIndexKind(kind),
		dsdb.WithSeed(*seed)}
	if *cacheBytes > 0 {
		opts = append(opts, dsdb.WithResultCache(*cacheBytes))
	}
	if *dataDir != "" {
		opts = append(opts, dsdb.WithDataDir(*dataDir))
	}
	db, err := dsdb.Open(opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if db.WarmStarted() {
		fmt.Fprintf(os.Stderr, "warm start from %s (TPC-D load skipped)\n", *dataDir)
	}
	if *repeat < 1 {
		*repeat = 1
	}
	for run := 1; run <= *repeat; run++ {
		// Time the query and the drain only — printing happens after
		// the clock stops, so run 1 (which prints the rows) and the
		// cache-hit repeats compare like for like.
		t0 := time.Now()
		rows, err := db.Query(context.Background(), query)
		if err != nil {
			log.Fatal(err)
		}
		var printed [][]dsdb.Value
		n := 0
		for rows.Next() {
			if run == 1 {
				printed = append(printed, rows.Values())
			}
			n++
		}
		if err := rows.Err(); err != nil {
			rows.Close()
			log.Fatal(err)
		}
		hit := rows.CacheHit()
		rows.Close()
		elapsed := time.Since(t0)
		if run == 1 {
			for _, c := range rows.Columns() {
				fmt.Printf("%-18s", c)
			}
			fmt.Println()
			for _, row := range printed {
				for _, v := range row {
					fmt.Printf("%-18s", v.String())
				}
				fmt.Println()
			}
		}
		suffix := ""
		if hit {
			suffix = ", cache hit"
		}
		fmt.Fprintf(os.Stderr, "(run %d: %d rows in %s%s)\n", run, n, elapsed.Round(time.Microsecond), suffix)
	}
	if st, ok := db.ResultCacheStats(); ok {
		fmt.Fprintf(os.Stderr, "(result cache: %s)\n", st.Section(true))
	}
}
