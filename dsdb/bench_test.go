package dsdb_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/dsdb"
	"repro/dsdb/obs"
)

// benchQuery is an aggregation over an unindexed lineitem predicate,
// so it plans a sequential scan with per-tuple qualifier and
// arithmetic work.
const benchQuery = `select sum(l_extendedprice * l_discount), count(*)
	from lineitem where l_quantity < 24 and l_discount > 0.02`

// benchOpen loads one shared database across all benchmarks (loading
// dominates otherwise).
var benchDB = sync.OnceValues(func() (*dsdb.DB, error) {
	return dsdb.Open(dsdb.WithTPCD(0.01))
})

func benchOpen(b *testing.B) *dsdb.DB {
	b.Helper()
	db, err := benchDB()
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkQuerySerial runs the scan-heavy query end to end (compile,
// execute, materialize). Compare with benchstat:
//
//	go test ./dsdb -bench 'BenchmarkQuery' -count 10 | benchstat -
func BenchmarkQuerySerial(b *testing.B) {
	db := benchOpen(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(context.Background(), benchQuery)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("got %d rows", len(res.Rows))
		}
	}
}

// BenchmarkTPCDQuery runs each of the twelve TPC-D queries on its own,
// single session, with allocations reported — the per-query picture
// behind TestQueryAllocBudget and bench/'s tpcd_served workload:
//
//	go test ./dsdb -run '^$' -bench 'BenchmarkTPCDQuery' -benchtime 5x
func BenchmarkTPCDQuery(b *testing.B) {
	db := benchOpen(b)
	for _, qn := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(qn)
		b.Run(fmt.Sprintf("Q%d", qn), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryAnalyze executes the same query under EXPLAIN ANALYZE.
// The delta against BenchmarkQuerySerial is the per-operator
// instrumentation cost — paid only when analyzing, since the ordinary
// path plans no Instrumented wrappers and keeps its tracer chain
// unchanged (see executor.SetAnalyze).
func BenchmarkQueryAnalyze(b *testing.B) {
	db := benchOpen(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.Query(context.Background(), "explain analyze "+benchQuery)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
		rows.Close()
		if n < 2 {
			b.Fatalf("plan has %d lines", n)
		}
	}
}

// benchCachedDB is the result-cached twin of benchDB (its own
// database: caching changes execution, so the uncached benchmarks
// must not share it).
var benchCachedDB = sync.OnceValues(func() (*dsdb.DB, error) {
	return dsdb.Open(dsdb.WithTPCD(0.01), dsdb.WithResultCache(64<<20))
})

// BenchmarkQueryCached runs the same scan-heavy query with the result
// cache enabled: after the first fill, every iteration is a cache hit
// — the repeated-DSS-query serving path. Compare against
// BenchmarkQuerySerial for the hit-vs-execute gap.
func BenchmarkQueryCached(b *testing.B) {
	db, err := benchCachedDB()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(context.Background(), benchQuery); err != nil {
		b.Fatal(err) // fill pass: iterations below measure hits
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(context.Background(), benchQuery)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("got %d rows", len(res.Rows))
		}
	}
	b.StopTimer()
	if st, ok := db.ResultCacheStats(); !ok || st.Hits == 0 {
		b.Fatalf("benchmark never hit the cache: %+v", st)
	}
}

// benchCachedNoObsDB is BenchmarkQueryCached's tracing-disabled twin:
// identical configuration except the observability tracer is off, so
// the pair bounds the per-query tracing overhead on the cheapest path
// (a cache hit, where span bookkeeping is the largest relative cost).
var benchCachedNoObsDB = sync.OnceValues(func() (*dsdb.DB, error) {
	return dsdb.Open(dsdb.WithTPCD(0.01), dsdb.WithResultCache(64<<20),
		dsdb.WithObservability(obs.Config{Disabled: true}))
})

// BenchmarkQueryCachedNoObs is the no-tracing baseline for
// BenchmarkQueryCached; the delta between the two is the span cost on
// a cached hit (budget: within 10%).
func BenchmarkQueryCachedNoObs(b *testing.B) {
	db, err := benchCachedNoObsDB()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(context.Background(), benchQuery); err != nil {
		b.Fatal(err) // fill pass: iterations below measure hits
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(context.Background(), benchQuery)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("got %d rows", len(res.Rows))
		}
	}
	b.StopTimer()
	if st, ok := db.ResultCacheStats(); !ok || st.Hits == 0 {
		b.Fatalf("benchmark never hit the cache: %+v", st)
	}
}

// BenchmarkConcurrentSessions measures whole-DB throughput with one
// session per CPU issuing the mixed TPC-D workload (b.RunParallel
// reports ns per completed query).
func BenchmarkConcurrentSessions(b *testing.B) {
	db := benchOpen(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			n := concurrencyQueries[i%len(concurrencyQueries)]
			i++
			q, _ := dsdb.TPCDQuery(n)
			if _, err := db.Exec(context.Background(), q); err != nil {
				b.Error(fmt.Errorf("Q%d: %w", n, err))
				return
			}
		}
	})
}
