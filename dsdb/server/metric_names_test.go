package server_test

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/dsdb"
	"repro/dsdb/client"
	"repro/dsdb/load"
	"repro/dsdb/server"
	"repro/dsdb/wcap"
)

// countersServer serves a TPC-D database for the counter-rendering
// tests. The bare server is in memory with nothing optional attached;
// the full one has a data directory (so the WAL counts), a result cache
// and a workload capture, so every optional section is present.
func countersServer(t *testing.T, full bool) (*server.Server, string) {
	t.Helper()
	opts := []dsdb.Option{dsdb.WithTPCD(0.0005), dsdb.WithSeed(42)}
	var srvOpts []server.Option
	if full {
		opts = append(opts, dsdb.WithDataDir(t.TempDir()), dsdb.WithResultCache(1<<20))
		w, err := wcap.Open(t.TempDir(), wcap.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		srvOpts = append(srvOpts, server.WithCapture(w))
	}
	db, err := dsdb.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := server.New(db, srvOpts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// scrapeMetrics returns one /metrics page of srv.
func scrapeMetrics(t *testing.T, srv *server.Server) (*http.Response, string) {
	t.Helper()
	ts := httptest.NewServer(server.NewMetricsMux(srv))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestMetricNamesGolden pins the name of everything the server's
// counters render as, never a value: for a bare and a full server, the
// wire stat pairs, the stat column of each SHOW stat target, the
// /metrics # TYPE lines (name and kind) and the keys of the dsload JSON
// report's server_stats and capture objects (sorted: JSON objects are
// unordered). A renamed, dropped or retyped series shows up as a
// changed line in testdata/metric_names.golden; -update rewrites it.
func TestMetricNamesGolden(t *testing.T) {
	var b strings.Builder
	for _, kind := range []string{"bare", "full"} {
		srv, addr := countersServer(t, kind == "full")
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Exec(context.Background(), "select count(*) from region"); err != nil {
			t.Fatal(err)
		}
		st, err := c.ServerStats()
		if err != nil {
			t.Fatal(err)
		}

		b.WriteString("== " + kind + ": wire pairs\n")
		for _, p := range st.Pairs {
			b.WriteString(p.Name + "\n")
		}
		for _, target := range []string{"stats", "pool", "plans", "cache", "wal", "capture"} {
			b.WriteString("== " + kind + ": show " + target + "\n")
			res, err := c.Exec(context.Background(), "show "+target)
			if err != nil {
				t.Fatalf("show %s: %v", target, err)
			}
			if len(res.Columns) != 2 || res.Columns[0] != "stat" {
				t.Fatalf("show %s columns = %v, want stat, value", target, res.Columns)
			}
			for _, row := range res.Rows {
				b.WriteString(row[0].S + "\n")
			}
		}

		b.WriteString("== " + kind + ": /metrics\n")
		_, text := scrapeMetrics(t, srv)
		for _, line := range strings.Split(text, "\n") {
			if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
				b.WriteString(name + "\n")
			}
		}

		blob, err := json.Marshal(load.BuildJSONReport(&load.Summary{Mix: "names"}, &st))
		if err != nil {
			t.Fatal(err)
		}
		var report map[string]json.RawMessage
		if err := json.Unmarshal(blob, &report); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"server_stats", "capture"} {
			b.WriteString("== " + kind + ": json " + key + "\n")
			var obj map[string]json.RawMessage
			if raw, ok := report[key]; ok {
				if err := json.Unmarshal(raw, &obj); err != nil {
					t.Fatal(err)
				}
			}
			keys := make([]string, 0, len(obj))
			for k := range obj {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				b.WriteString(k + "\n")
			}
		}
	}

	path := filepath.Join("testdata", "metric_names.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkGolden(t, b.String(), "metric_names.golden")
}
