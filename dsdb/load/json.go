package load

import (
	"strings"

	"repro/dsdb/obs"
	"repro/dsdb/wire"
)

// JSONLatency is a Latency in integer nanoseconds, the form a
// machine-readable report wants (no duration-string parsing).
type JSONLatency struct {
	P50Ns int64 `json:"p50_ns"`
	P90Ns int64 `json:"p90_ns"`
	P99Ns int64 `json:"p99_ns"`
	MaxNs int64 `json:"max_ns"`
}

func jsonLat(l Latency) JSONLatency {
	return JSONLatency{
		P50Ns: l.P50.Nanoseconds(),
		P90Ns: l.P90.Nanoseconds(),
		P99Ns: l.P99.Nanoseconds(),
		MaxNs: l.Max.Nanoseconds(),
	}
}

// JSONQueryStat is one query's slice of a JSONReport.
type JSONQueryStat struct {
	Label   string      `json:"label"`
	Count   int         `json:"count"`
	Rows    int64       `json:"rows"`
	Latency JSONLatency `json:"latency"`
}

// StageMean summarizes one execution stage across every query the
// server observed: how many spans recorded time in the stage, the
// total, and the mean per recording.
type StageMean struct {
	Stage   string `json:"stage"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	MeanNs  int64  `json:"mean_ns"`
}

// JSONReport is the machine-readable run summary written by dsload
// -report-json: the Summary's numbers with stable snake_case keys,
// plus — when the server's stats snapshot is available — the raw
// counter pairs and the per-stage means derived from the snapshot's
// stage_<name>_count / stage_<name>_total_ns pairs.
type JSONReport struct {
	Mix        string  `json:"mix"`
	Clients    int     `json:"clients"`
	Rounds     int     `json:"rounds"`
	Warmup     int     `json:"warmup"`
	Queries    int     `json:"queries"`
	Rows       int64   `json:"rows"`
	ElapsedNs  int64   `json:"elapsed_ns"`
	Throughput float64 `json:"throughput_qps"`

	Latency   JSONLatency  `json:"latency"`
	CacheHits int          `json:"cache_hits"`
	HitRatio  float64      `json:"hit_ratio"`
	LatHit    *JSONLatency `json:"latency_hit,omitempty"`
	LatMiss   *JSONLatency `json:"latency_miss,omitempty"`

	ArrivalRate float64 `json:"arrival_rate_qps,omitempty"`
	Scenario    string  `json:"scenario,omitempty"`

	PerQuery []JSONQueryStat `json:"per_query"`

	ServerStats  map[string]int64 `json:"server_stats,omitempty"`
	ServerStages []StageMean      `json:"server_stages,omitempty"`
	// Capture is the server's capture section (Section(st, "capture")),
	// present only when it runs a workload capture.
	Capture map[string]int64 `json:"capture,omitempty"`
}

// Section picks one named section (obs.Section) out of a server stats
// snapshot: its name_key pairs, keyed by key — Section(st, "capture")
// is {"records": …, "dropped": …, …}; name "" picks every pair. Nil
// when st is nil or has no such pair: a subsystem that is off sends
// none.
func Section(st *wire.Stats, name string) map[string]int64 {
	if st == nil {
		return nil
	}
	prefix := ""
	if name != "" {
		prefix = name + "_"
	}
	var sec map[string]int64
	for _, p := range st.Pairs {
		if key, ok := strings.CutPrefix(p.Name, prefix); ok {
			if sec == nil {
				sec = make(map[string]int64)
			}
			sec[key] = p.Value
		}
	}
	return sec
}

// JSONReplayQueryStat is one label's slice of a JSONReplayReport:
// the replayed numbers next to the capture-time recording.
type JSONReplayQueryStat struct {
	Label       string      `json:"label"`
	Count       int         `json:"count"`
	Rows        int64       `json:"rows"`
	Latency     JSONLatency `json:"latency"`
	RecordedLat JSONLatency `json:"recorded_latency"`
}

// JSONReplayReport is the machine-readable replay summary written by
// dsreplay -report-json: the same core shape as dsload's JSONReport
// (queries/rows/elapsed/throughput/latency/server stats) plus the
// recorded-vs-replayed latency comparison that makes a replay a
// regression check.
type JSONReplayReport struct {
	Queries    int     `json:"queries"`
	Skipped    int     `json:"skipped"`
	Sessions   int     `json:"sessions"`
	Clients    int     `json:"clients"`
	Paced      bool    `json:"paced"`
	Timescale  float64 `json:"timescale,omitempty"`
	Rows       int64   `json:"rows"`
	ElapsedNs  int64   `json:"elapsed_ns"`
	Throughput float64 `json:"throughput_qps"`

	Latency         JSONLatency `json:"latency"`
	RecordedLatency JSONLatency `json:"recorded_latency"`
	CacheHits       int         `json:"cache_hits"`

	PerQuery []JSONReplayQueryStat `json:"per_query"`

	ServerStats  map[string]int64 `json:"server_stats,omitempty"`
	ServerStages []StageMean      `json:"server_stages,omitempty"`
	// Capture is the server's capture section (Section(st, "capture")),
	// present only when it runs a workload capture.
	Capture map[string]int64 `json:"capture,omitempty"`
}

// BuildReplayJSONReport renders a ReplaySummary (and, optionally, the
// target server's stats snapshot) as the report dsreplay -report-json
// writes.
func BuildReplayJSONReport(s *ReplaySummary, st *wire.Stats) JSONReplayReport {
	r := JSONReplayReport{
		Queries:         s.Queries,
		Skipped:         s.Skipped,
		Sessions:        s.Sessions,
		Clients:         s.Clients,
		Paced:           s.Paced,
		Timescale:       s.Timescale,
		Rows:            s.Rows,
		ElapsedNs:       s.Elapsed.Nanoseconds(),
		Throughput:      s.Throughput(),
		Latency:         jsonLat(s.Lat),
		RecordedLatency: jsonLat(s.RecordedLat),
		CacheHits:       s.CacheHits,
		PerQuery:        make([]JSONReplayQueryStat, 0, len(s.PerQuery)),
	}
	for _, q := range s.PerQuery {
		r.PerQuery = append(r.PerQuery, JSONReplayQueryStat{
			Label:       q.Label,
			Count:       q.Count,
			Rows:        q.Rows,
			Latency:     jsonLat(q.Lat),
			RecordedLat: jsonLat(q.RecordedLat),
		})
	}
	if st != nil {
		r.ServerStats, r.ServerStages, r.Capture = serverSections(st)
	}
	return r
}

// serverSections picks a report's server sections out of a wire stats
// snapshot: every pair, the per-stage means of the stage_<name>_count /
// stage_<name>_total_ns pairs, and the capture section. Shared by both
// report builders.
func serverSections(st *wire.Stats) (all map[string]int64, stages []StageMean, capture map[string]int64) {
	stage := Section(st, "stage")
	for i := obs.Stage(0); i < obs.NumStages; i++ {
		name := i.String()
		sm := StageMean{Stage: name, Count: stage[name+"_count"], TotalNs: stage[name+"_total_ns"]}
		if sm.Count > 0 {
			sm.MeanNs = sm.TotalNs / sm.Count
		}
		stages = append(stages, sm)
	}
	return Section(st, ""), stages, Section(st, "capture")
}

// BuildJSONReport renders a Summary (and, optionally, the server's
// wire stats snapshot; nil when it was not fetched) as the report
// dsload -report-json writes.
func BuildJSONReport(s *Summary, st *wire.Stats) JSONReport {
	r := JSONReport{
		Mix:         s.Mix,
		Clients:     s.Clients,
		Rounds:      s.Rounds,
		Warmup:      s.Warmup,
		Queries:     s.Queries,
		Rows:        s.Rows,
		ElapsedNs:   s.Elapsed.Nanoseconds(),
		Throughput:  s.Throughput(),
		Latency:     jsonLat(s.Lat),
		CacheHits:   s.CacheHits,
		HitRatio:    s.HitRatio(),
		ArrivalRate: s.ArrivalRate,
		Scenario:    s.Scenario,
		PerQuery:    make([]JSONQueryStat, 0, len(s.PerQuery)),
	}
	if s.CacheHits > 0 {
		hit, miss := jsonLat(s.LatHit), jsonLat(s.LatMiss)
		r.LatHit = &hit
		if s.CacheHits < s.Queries {
			r.LatMiss = &miss
		}
	}
	for _, q := range s.PerQuery {
		r.PerQuery = append(r.PerQuery, JSONQueryStat{
			Label:   q.Label,
			Count:   q.Count,
			Rows:    q.Rows,
			Latency: jsonLat(q.Lat),
		})
	}
	if st != nil {
		r.ServerStats, r.ServerStages, r.Capture = serverSections(st)
	}
	return r
}
