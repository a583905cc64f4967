package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dsdb"
	"repro/dsdb/client"
	"repro/dsdb/obs"
	"repro/dsdb/server"
)

// fakeClock is a settable clock for deterministic span totals.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// syncBuffer is a goroutine-safe log sink (the slow logger fires on
// connection handler goroutines while the test reads it).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// fetchShow runs one SHOW query over the wire and renders the result
// as the tab-separated table the goldens pin.
func fetchShow(t *testing.T, addr, target string) string {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Query(context.Background(), "show "+target)
	if err != nil {
		t.Fatalf("show %s: %v", target, err)
	}
	var b strings.Builder
	b.WriteString(strings.Join(rows.Columns(), "\t") + "\n")
	for rows.Next() {
		vals := rows.Values()
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = v.String()
		}
		b.WriteString(strings.Join(parts, "\t") + "\n")
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("show %s stream: %v", target, err)
	}
	return b.String()
}

func checkGolden(t *testing.T, got, goldenFile string) {
	t.Helper()
	path := filepath.Join("testdata", goldenFile)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if got != string(want) {
		t.Errorf("output does not match %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestShowQueriesAndSlowGolden pins the SHOW QUERIES / SHOW SLOW
// virtual tables' shape with spans recorded under a fake clock, so
// every duration column is deterministic. The spans are injected
// through the same tracer API the query path uses (Begin/Add/End with
// the exec clamp), not by poking rings directly.
func TestShowQueriesAndSlowGolden(t *testing.T) {
	db, _, addr := testServer(t)
	tr := db.Obs()
	clk := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	tr.SetNow(clk.Now)
	tr.SetSlowThreshold(30 * time.Millisecond)

	sp := tr.Begin("Q1", "select a from t")
	clk.Advance(10 * time.Millisecond)
	sp.Add(obs.StagePlan, time.Millisecond)
	sp.Add(obs.StageExec, 7*time.Millisecond)
	sp.Add(obs.StageNet, 2*time.Millisecond)
	sp.AddRows(3)
	sp.End()

	sp = tr.Begin("Q1", "select a from t")
	clk.Advance(300 * time.Microsecond)
	sp.Add(obs.StageCache, 200*time.Microsecond)
	sp.SetCacheHit()
	sp.AddRows(3)
	sp.End()

	// The slow one: over the 30ms threshold, with IO/WAL time that the
	// exec clamp must subtract (40ms raw exec − 5ms io − 1ms wal).
	sp = tr.Begin("", "select broken")
	clk.Advance(50 * time.Millisecond)
	sp.Add(obs.StagePlan, 2*time.Millisecond)
	sp.Add(obs.StageExec, 40*time.Millisecond)
	sp.Add(obs.StageIO, 5*time.Millisecond)
	sp.Add(obs.StageWAL, time.Millisecond)
	sp.SetTopOp("Seq Scan on t")
	sp.SetErr(errors.New("boom"))
	sp.End()

	checkGolden(t, fetchShow(t, addr, "queries"), "show_queries.golden")
	checkGolden(t, fetchShow(t, addr, "slow"), "show_slow.golden")
}

// TestSlowQueryE2E serves a real TPC-D query with a threshold every
// query beats, and checks the full slow path: the slow ring holds the
// record with nonzero exec-stage time, the structured log line went
// out, and the query id the client got in its Done frame is the id in
// the ring. Run under -race this also exercises logger/ring
// concurrency against the serving goroutines.
func TestSlowQueryE2E(t *testing.T) {
	db, _, addr := testServer(t, server.WithSlowQueryThreshold(time.Nanosecond))
	var buf syncBuffer
	db.Obs().SetSlowLogger(log.New(&buf, "", 0))

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q, _ := dsdb.TPCDQuery(3)
	rows, err := c.QueryLabeled(context.Background(), "slowtest", q)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	qid := rows.QueryID()
	if qid == 0 {
		t.Fatal("Done frame carried query id 0; want the server-assigned id")
	}

	// The span ends (and the record lands) just after the Done frame
	// the client already saw, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var rec *obs.Record
		for _, r := range db.Obs().Slow() {
			if r.ID == qid {
				rec = &r
				break
			}
		}
		if rec != nil {
			if rec.Label != "slowtest" {
				t.Fatalf("slow record label = %q, want slowtest", rec.Label)
			}
			if rec.Stages[obs.StageExec] <= 0 {
				t.Fatalf("slow record exec stage = %v, want > 0 (stages %v)", rec.Stages[obs.StageExec], rec.Stages)
			}
			if rec.Total <= 0 {
				t.Fatalf("slow record total = %v, want > 0", rec.Total)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query %d never appeared in the slow ring; slow=%v", qid, db.Obs().Slow())
		}
		time.Sleep(time.Millisecond)
	}
	// The log line is written after the record is in the ring: same
	// deadline.
	for {
		logged := buf.String()
		if strings.Contains(logged, fmt.Sprintf("qid=%d", qid)) && strings.Contains(logged, `label="slowtest"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow log missing the query's line:\n%s", logged)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStageSumCoversTotal pins the tentpole's accounting criterion:
// for a served TPC-D query, the per-stage durations must sum to at
// least 90%% of the span's end-to-end total — the stages are a
// decomposition of the latency, not loosely-related samples. Best of
// a few runs guards against scheduler-noise flakes.
func TestStageSumCoversTotal(t *testing.T) {
	db, _, addr := testServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q, _ := dsdb.TPCDQuery(3)

	best := 0.0
	for attempt := 0; attempt < 3 && best < 0.9; attempt++ {
		rows, err := c.QueryLabeled(context.Background(), "covertest", q)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		qid := rows.QueryID()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			found := false
			for _, r := range db.Obs().Recent() {
				if r.ID != qid {
					continue
				}
				found = true
				var sum time.Duration
				for _, d := range r.Stages {
					sum += d
				}
				if ratio := float64(sum) / float64(r.Total); ratio > best {
					best = ratio
					t.Logf("attempt %d: stages sum %v of total %v (%.1f%%)", attempt, sum, r.Total, 100*ratio)
				}
			}
			if found {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	if best < 0.9 {
		t.Fatalf("stage durations cover only %.1f%% of the served total; want >= 90%%", 100*best)
	}
}

// awaitServed blocks until the server has closed the accounting
// window of n queries. A client sees its Done frame before the serving
// goroutine ends the detached span (stage histograms), drops the
// in-flight gauge and records the latency, in that order — so a test
// that reads server-side counters right after draining its rows has to
// wait for the last of them.
func awaitServed(t *testing.T, srv *server.Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Latency.Count < n {
		if time.Now().After(deadline) {
			t.Fatalf("server recorded %d of %d queries", srv.Stats().Latency.Count, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMetricsEndpoint scrapes NewMetricsMux's /metrics on a bare and
// a full server (data dir, result cache, capture) and asserts the
// Prometheus text format: counter/gauge types for the scalar series,
// real cumulative histograms for latency and stages, one series per
// name (no # TYPE twice, no X beside an X_total), optional subsystems
// present exactly when they are on, and a mounted pprof index.
func TestMetricsEndpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		full bool
	}{{"bare", false}, {"full", true}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := countersServer(t, tc.full)
			c, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Exec(context.Background(), "select count(*) from region"); err != nil {
				t.Fatal(err)
			}
			c.Close()
			awaitServed(t, srv, 1)

			resp, text := scrapeMetrics(t, srv)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/metrics status %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
				t.Fatalf("/metrics content type %q", ct)
			}
			for _, want := range []string{
				"# TYPE dsdb_queries_total counter",
				"# TYPE dsdb_conns_active gauge",
				"# TYPE dsdb_queries_in_flight gauge",
				"# TYPE dsdb_uptime_seconds gauge",
				"# TYPE dsdb_rows_streamed counter",
				"# TYPE dsdb_buffer_pool_hits_total counter",
				"# TYPE dsdb_buffer_pool_misses_total counter",
				"# TYPE dsdb_wal_appends_total counter",
				"# TYPE dsdb_wal_fsyncs_total counter",
				"# TYPE dsdb_query_latency_seconds histogram",
				"# TYPE dsdb_query_stage_seconds histogram",
				"# TYPE dsdb_go_goroutines gauge",
				"# TYPE dsdb_go_heap_alloc_bytes gauge",
				"# TYPE dsdb_go_gc_pause_seconds_total counter",
				`dsdb_query_latency_seconds_bucket{le="+Inf"} `,
				`dsdb_query_stage_seconds_bucket{stage="exec",le="+Inf"} `,
				"dsdb_query_latency_seconds_count 1",
				"dsdb_query_stage_seconds_sum{stage=\"exec\"} ",
			} {
				if !strings.Contains(text, want) {
					t.Errorf("/metrics is missing %q", want)
				}
			}
			if m := regexp.MustCompile(`(?m)^dsdb_queries_total (\d+)$`).FindStringSubmatch(text); m == nil || m[1] == "0" {
				t.Errorf("dsdb_queries_total missing or zero:\n%s", text)
			}
			// One series per name: a counter rendered twice, once plain
			// and once with the _total suffix, is two series for one count.
			types := map[string]bool{}
			for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(text, -1) {
				if types[m[1]] {
					t.Errorf("/metrics declares %s twice", m[1])
				}
				types[m[1]] = true
			}
			for name := range types {
				if types[name+"_total"] {
					t.Errorf("/metrics exports both %s and %s_total", name, name)
				}
			}
			// The flat wire-frame pairs must NOT leak: histograms replace them.
			if strings.Contains(text, "dsdb_lat_") || strings.Contains(text, "dsdb_stage_") {
				t.Errorf("/metrics leaks flat lat_/stage_ pairs:\n%s", text)
			}
			// The result cache and the capture are exported exactly when
			// they are on: absent, not misleading zeros, on the bare server.
			for _, prefix := range []string{"dsdb_result_cache_", "dsdb_capture_"} {
				if got := strings.Contains(text, prefix); got != tc.full {
					t.Errorf("/metrics has %s* series: %v, want %v:\n%s", prefix, got, tc.full, text)
				}
			}
			if tc.full {
				for _, name := range []string{"records", "dropped", "sampled_out", "bytes", "io_errors"} {
					if !types["dsdb_capture_"+name+"_total"] {
						t.Errorf("/metrics is missing dsdb_capture_%s_total", name)
					}
				}
			}

			ts := httptest.NewServer(server.NewMetricsMux(srv))
			defer ts.Close()
			resp, err = http.Get(ts.URL + "/debug/pprof/")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/debug/pprof/ status %d", resp.StatusCode)
			}
		})
	}
}

// TestHealthAndReadyEndpoints covers the orchestration probes on the
// metrics mux: /healthz answers ok whenever the process responds at
// all, /readyz answers 200 only while the server is accepting and not
// draining — before Serve it must refuse with 503 so a load balancer
// never routes to a listener that is not up yet.
func TestHealthAndReadyEndpoints(t *testing.T) {
	get := func(ts *httptest.Server, path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	_, srv, _ := testServer(t)
	ts := httptest.NewServer(server.NewMetricsMux(srv))
	defer ts.Close()
	if code, body := get(ts, "/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := get(ts, "/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Fatalf("/readyz = %d %q, want 200 ready", code, body)
	}

	// A server that was never started: healthy (the process is up) but
	// not ready (no listener to route to).
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005), dsdb.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	idle := httptest.NewServer(server.NewMetricsMux(server.New(db)))
	defer idle.Close()
	if code, _ := get(idle, "/healthz"); code != http.StatusOK {
		t.Fatalf("idle /healthz = %d, want 200", code)
	}
	if code, _ := get(idle, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("idle /readyz = %d, want 503", code)
	}
}

// TestStatsUptimeAndStagePairs covers the satellite fix: the stats
// snapshot reports uptime and in-flight queries, and the wire pairs
// carry the histogram bucket labels (bounds ride in the names) and
// the per-stage aggregates.
func TestStatsUptimeAndStagePairs(t *testing.T) {
	_, srv, addr := testServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Query(context.Background(), "select count(*) from region")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	awaitServed(t, srv, 1)

	st := srv.Stats()
	if st.Uptime <= 0 {
		t.Fatalf("uptime = %v, want > 0", st.Uptime)
	}
	if st.InFlightQueries != 0 {
		t.Fatalf("in-flight = %d after completion, want 0", st.InFlightQueries)
	}
	if st.Latency.Count == 0 {
		t.Fatal("latency histogram recorded nothing")
	}
	wireStats, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wireStats.Get("uptime_seconds"); !ok {
		t.Error("stats pairs missing uptime_seconds")
	}
	if _, ok := wireStats.Get("queries_in_flight"); !ok {
		t.Error("stats pairs missing queries_in_flight")
	}
	// One pair per latency bucket, named for its bound.
	for i := 0; i < obs.NumBuckets; i++ {
		if _, ok := wireStats.Get("lat_" + obs.BucketLabel(i)); !ok {
			t.Errorf("stats pairs missing lat_%s", obs.BucketLabel(i))
		}
	}
	count, ok := wireStats.Get("stage_exec_count")
	if !ok || count == 0 {
		t.Errorf("stage_exec_count = %d, %v; want nonzero", count, ok)
	}
	if total, ok := wireStats.Get("stage_exec_total_ns"); !ok || total <= 0 {
		t.Errorf("stage_exec_total_ns = %d, %v; want positive", total, ok)
	}
}
