package load

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/dsdb/wire"
)

func TestBuildJSONReport(t *testing.T) {
	sum := &Summary{
		Mix:       "test",
		Clients:   2,
		Rounds:    3,
		Warmup:    1,
		Queries:   12,
		Rows:      340,
		Elapsed:   2 * time.Second,
		Lat:       Latency{P50: time.Millisecond, P90: 2 * time.Millisecond, P99: 5 * time.Millisecond, Max: 9 * time.Millisecond},
		CacheHits: 6,
		LatHit:    Latency{P50: 100 * time.Microsecond},
		LatMiss:   Latency{P50: 3 * time.Millisecond},
		PerQuery: []QueryStat{
			{Label: "Q3", Count: 6, Rows: 170, Lat: Latency{P50: time.Millisecond}},
		},
	}
	st := &wire.Stats{Pairs: []wire.StatPair{
		{Name: "queries_total", Value: 12},
		{Name: "stage_exec_count", Value: 6},
		{Name: "stage_exec_total_ns", Value: 6_000_000},
	}}

	r := BuildJSONReport(sum, st)
	if r.Throughput != 6 {
		t.Fatalf("throughput = %v, want 6", r.Throughput)
	}
	if r.HitRatio != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", r.HitRatio)
	}
	if r.LatHit == nil || r.LatHit.P50Ns != 100_000 {
		t.Fatalf("latency_hit = %+v, want p50 100000ns", r.LatHit)
	}
	if r.LatMiss == nil || r.LatMiss.P50Ns != 3_000_000 {
		t.Fatalf("latency_miss = %+v, want p50 3000000ns", r.LatMiss)
	}
	if r.ServerStats["queries_total"] != 12 {
		t.Fatalf("server_stats queries_total = %d", r.ServerStats["queries_total"])
	}
	var exec *StageMean
	for i := range r.ServerStages {
		if r.ServerStages[i].Stage == "exec" {
			exec = &r.ServerStages[i]
		}
	}
	if exec == nil || exec.MeanNs != 1_000_000 {
		t.Fatalf("exec stage mean = %+v, want mean 1000000ns", exec)
	}

	// The report must round-trip as JSON with its stable keys.
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"mix", "throughput_qps", "latency", "per_query", "server_stats", "server_stages", "hit_ratio"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("report JSON is missing key %q (have %v)", key, decoded)
		}
	}
}

// TestCaptureSection: the capture block of a report, and what dsload
// -capture-out writes, is the capture section picked out of the stats
// pairs by its prefix — absent when the server runs without capture.
func TestCaptureSection(t *testing.T) {
	if got := Section(nil, "capture"); got != nil {
		t.Fatalf("nil stats: got %+v", got)
	}
	// No capture_* pairs (server without -capture-dir): no block.
	st := &wire.Stats{Pairs: []wire.StatPair{{Name: "queries_total", Value: 9}}}
	if got := Section(st, "capture"); got != nil {
		t.Fatalf("capture-less stats: got %+v", got)
	}
	st.Pairs = append(st.Pairs,
		wire.StatPair{Name: "capture_records", Value: 42},
		wire.StatPair{Name: "capture_dropped", Value: 1},
		wire.StatPair{Name: "capture_sampled_out", Value: 5},
		wire.StatPair{Name: "capture_bytes", Value: 4096},
		wire.StatPair{Name: "capture_io_errors", Value: 0},
	)
	got := Section(st, "capture")
	want := map[string]int64{"records": 42, "dropped": 1, "sampled_out": 5, "bytes": 4096, "io_errors": 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("capture section = %v, want %v", got, want)
	}
	if all := Section(st, ""); len(all) != len(st.Pairs) || all["queries_total"] != 9 {
		t.Fatalf("section \"\" = %v, want every pair", all)
	}
	// And it rides the full report under the "capture" key.
	r := BuildJSONReport(&Summary{Mix: "train", Queries: 1, Elapsed: time.Second}, st)
	if r.Capture["records"] != 42 {
		t.Fatalf("report capture block = %+v", r.Capture)
	}
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["capture"]; !ok {
		t.Fatalf("report JSON is missing the capture block: %v", decoded)
	}
}

func TestBuildJSONReportWithoutServerStats(t *testing.T) {
	r := BuildJSONReport(&Summary{Mix: "train", Queries: 1, Elapsed: time.Second}, nil)
	if r.ServerStats != nil || r.ServerStages != nil {
		t.Fatalf("nil stats must leave server sections empty: %+v", r)
	}
	if r.LatHit != nil || r.LatMiss != nil {
		t.Fatalf("no cache hits must omit the split latencies: %+v", r)
	}
}
