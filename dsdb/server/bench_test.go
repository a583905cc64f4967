package server_test

import (
	"context"
	"net"
	"testing"

	"repro/dsdb"
	"repro/dsdb/client"
	"repro/dsdb/server"
	"repro/dsdb/wcap"
)

// benchServer is testServer for benchmarks: a served TPC-D database
// and one dialed client, everything torn down with the benchmark.
func benchServer(b *testing.B, dbOpts []dsdb.Option, opts ...server.Option) *client.DB {
	b.Helper()
	db, err := dsdb.Open(append([]dsdb.Option{dsdb.WithTPCD(0.0005), dsdb.WithSeed(42)}, dbOpts...)...)
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	srv := server.New(db, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	b.Cleanup(func() { srv.Close() })
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// smallQuery is the served/captured pair's one-row query.
const smallQuery = "select count(*) from region"

func benchmarkServedQuery(b *testing.B, c *client.DB, q string) {
	b.Helper()
	// Warm the pools so the measured loop is steady-state.
	for i := 0; i < 3; i++ {
		rows, err := c.Query(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := c.Query(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryServed is the baseline: one client, one small query,
// no capture.
func BenchmarkQueryServed(b *testing.B) {
	benchmarkServedQuery(b, benchServer(b, nil), smallQuery)
}

// BenchmarkQueryServedHit is one result-cache hit over the wire: TPC-D
// Q3's ten rows, served from the cache on every iteration (the warm-up
// fills the entry and leaves the text's plan in the pool). Its twin is
// BenchmarkQueryCached in package dsdb, the same hit without the
// network; the gap between the two is what serving a hit costs.
func BenchmarkQueryServedHit(b *testing.B) {
	q, _ := dsdb.TPCDQuery(3)
	c := benchServer(b, []dsdb.Option{dsdb.WithResultCache(64 << 20)})
	b.ReportAllocs()
	benchmarkServedQuery(b, c, q)
}

// BenchmarkQueryCaptured is the same served query with workload
// capture on. The pair pins the capture hot-path cost: one nil check,
// one record build, one non-blocking channel send per query —
// everything else happens on the writer's own goroutine. Compare
// ns/op against BenchmarkQueryServed; the gap is the capture tax.
func BenchmarkQueryCaptured(b *testing.B) {
	w, err := wcap.Open(b.TempDir(), wcap.Options{Buffer: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	c := benchServer(b, nil, server.WithCapture(w))
	benchmarkServedQuery(b, c, smallQuery)
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatalf("closing capture: %v", err)
	}
	st := w.Stats()
	b.ReportMetric(float64(st.Dropped), "dropped")
	if st.Dropped > 0 {
		b.Logf("capture dropped %d of %d records (buffer too small for this rate)", st.Dropped, st.Records)
	}
}
