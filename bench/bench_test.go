package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The self-tests run every workload at smoke scale (-quick -rounds 1)
// so tier-1 stays fast; numbers at that scale mean nothing, names,
// units, counts and checks do.

type smokeKey struct {
	wl    string
	trace bool
	seed  int64
}

var (
	smokeMu    sync.Mutex
	smokeCache = map[smokeKey]record{}
)

// smoke runs one workload at smoke scale, once per (workload, trace,
// seed): the tests share the runs.
func smoke(t *testing.T, wl string, trace bool, seed int64) record {
	t.Helper()
	smokeMu.Lock()
	defer smokeMu.Unlock()
	key := smokeKey{wl, trace, seed}
	if rec, ok := smokeCache[key]; ok {
		return rec
	}
	rec := smokeRun(t, wl, trace, seed)
	smokeCache[key] = rec
	return rec
}

func smokeRun(t *testing.T, wl string, trace bool, seed int64) record {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{seed: seed, rounds: 1, quick: true, trace: trace, root: root}
	for _, w := range workloads {
		if w.Name != wl {
			continue
		}
		r, err := runWorkload(cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		rec := r.record()
		for _, c := range rec.Checks {
			if !c.OK {
				t.Errorf("%s trace=%v: check %q failed: %s", wl, trace, c.Name, c.Detail)
			}
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, trace, rec.Correct, rec.Attempted, rec.Failed)
		}
		return rec
	}
	t.Fatalf("no workload %q", wl)
	return record{}
}

func TestManifestMatchesTable(t *testing.T) {
	if err := validateTable(); err != nil {
		t.Fatal(err)
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from the metric table: run `go run ./bench -manifest`")
	}
	var m manifest
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatal(err)
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
}

// TestEveryMetricEmitted: every metric BENCHMARK.json declares is
// emitted exactly once per workload with its declared unit, and
// nothing undeclared appears (record panics on that); untraced runs
// carry the end-to-end set, traced runs the per-layer set; every
// end-to-end value is positive, and every per-layer metric is measured
// (non-zero) on at least one workload.
func TestEveryMetricEmitted(t *testing.T) {
	home := map[string]bool{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec := smoke(t, w.Name, trace, 42)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rec.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.Name, trace, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, m.Name, v.Unit, m.Unit)
				case v.Value != v.Value:
					t.Errorf("%s: %s is NaN", w.Name, m.Name)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must be positive", w.Name, m.Name, v.Value)
				}
				if trace && v.Value != 0 {
					home[m.Name] = true
				}
			}
			// the contract's last line: exactly these four keys
			line, _ := json.Marshal(rec.result)
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("result line has keys %v", keys)
			}
		}
	}
	// These are 0 when all is well.
	zeroOK := map[string]bool{"wcap.dropped": true, "load.replay_row_mismatch": true, "obs.span_allocs": true, "qcache.get_hit_allocs": true}
	for _, m := range perLayer {
		if !home[m.Name] && !zeroOK[m.Name] {
			t.Errorf("per-layer metric %s is 0 on every workload: nothing measures it", m.Name)
		}
	}
}

// TestDeterminism: the single-threaded workloads do fixed work under
// -rounds, so two same-seed runs agree exactly on every count and
// every simulated statistic, and another seed changes the inputs.
func TestDeterminism(t *testing.T) {
	exact := map[string][]string{
		"durable_readwrite": {"wal.appends_per_insert", "wal.bytes_per_insert", "wal.fsyncs", "buffer.misses_per_query", "buffer.hit_ratio",
			"qcache.hit_ratio", "qcache.bytes_per_entry", "storage.checkpoint_bytes", "storage.bytes_per_user_byte", "wire.bytes_per_row", "server.bytes_per_query"},
		"stc_pipeline": {"stc_ops_instr_per_taken", "stc_ops_ipc_2k", "orig_ipc_2k", "fetch.ipc_ideal_ops", "kernel.events_per_query",
			"cache.miss_per_100_2k_orig", "cache.miss_per_100_2k_ph", "cache.miss_per_100_2k_torr", "cache.miss_per_100_2k_auto", "cache.miss_per_100_2k_ops"},
	}
	details := func(rec record) string {
		var d []string
		for _, c := range rec.Checks {
			d = append(d, c.Detail)
		}
		return strings.Join(d, "\n")
	}
	for wl, names := range exact {
		a := smoke(t, wl, true, 42)
		b := smokeRun(t, wl, true, 42)
		for _, n := range names {
			if a.Metrics[n].Value != b.Metrics[n].Value {
				t.Errorf("%s: %s = %v then %v at the same seed", wl, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
		// The check details carry the counts (hits, invalidations, wal
		// appends, row counts, checksums, query order).
		if details(a) != details(b) {
			t.Errorf("%s: counts differ between same-seed runs:\n%s\n--\n%s", wl, details(a), details(b))
		}
		if details(smoke(t, wl, false, 42)) == details(smoke(t, wl, false, 7)) {
			t.Errorf("%s: seed 7 gives the same inputs as seed 42: the seed does not reach the workload", wl)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, qps []float64) string {
		path := filepath.Join(dir, name)
		for _, v := range qps {
			rec := record{Workload: "tpcd_served", result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"ops_per_s": {v, "1/s"}, "op_p50_ms": {1000 / v, "ms"},
			}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent := write("parent", []float64{100, 101, 99, 100, 100.5, 99.5, 100, 100, 101, 99})
	for _, tc := range []struct {
		name    string
		qps     []float64
		code    int
		verdict string
	}{
		{"same", []float64{100, 100, 101, 99, 100, 100, 99.5, 100.5, 100, 100}, 0, "same"},
		{"better", []float64{120, 121, 119, 120, 120, 120, 121, 119, 120, 120}, 0, "better"},
		{"worse", []float64{60, 61, 59, 60, 60, 60, 61, 59, 60, 60}, 1, "WORSE"},
		{"noisy", []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}, 0, "unresolved"},
	} {
		var out bytes.Buffer
		code := runCompare(parent, write(tc.name, tc.qps), &out, &out)
		if code != tc.code || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s", tc.name, code, tc.code, tc.verdict, out.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
