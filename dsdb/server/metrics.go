package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"

	"repro/dsdb/obs"
)

// NewMetricsMux builds the HTTP mux dsdbd serves on -metrics-addr:
//
//	/metrics      — the server's counters and histograms in the
//	                Prometheus text exposition format
//	/healthz      — liveness: 200 whenever the process can answer
//	/readyz       — readiness: 200 while serving and not draining,
//	                503 otherwise (load balancers stop routing here
//	                the moment Shutdown begins)
//	/debug/pprof/ — the standard net/http/pprof profiling handlers
//
// The pprof handlers are registered explicitly (not via the package's
// blank-import side effect on http.DefaultServeMux), so the returned
// mux is self-contained and the process's default mux stays clean.
func NewMetricsMux(s *Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveMetrics renders the server in the Prometheus text exposition
// format: each entry of every enabled section (Server.Sections) as one
// counter or gauge series named by obs.Section.Metric, the Go runtime's
// health, and the latency and per-stage histograms as real Prometheus
// histograms (cumulative le buckets, _sum in seconds, _count) rather
// than the flat lat_/stage_ pairs the wire Stats frame carries.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	for _, sec := range s.Sections(st) {
		if sec.Disabled {
			continue
		}
		for _, e := range sec.Entries {
			writeScalar(&b, sec.Metric(e), e.Kind, e.Value)
		}
	}
	// Go runtime health: enough to spot a goroutine leak, heap growth
	// or GC pressure from the same scrape that carries the serving
	// stats, without pulling in a metrics dependency.
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	writeScalar(&b, "dsdb_go_goroutines", obs.Gauge, int64(runtime.NumGoroutine()))
	writeScalar(&b, "dsdb_go_heap_alloc_bytes", obs.Gauge, int64(mem.HeapAlloc))
	fmt.Fprintf(&b, "# TYPE dsdb_go_gc_pause_seconds_total counter\n")
	fmt.Fprintf(&b, "dsdb_go_gc_pause_seconds_total %g\n", float64(mem.PauseTotalNs)/1e9)
	fmt.Fprintf(&b, "# TYPE dsdb_query_latency_seconds histogram\n")
	writeHistSeries(&b, "dsdb_query_latency_seconds", "", st.Latency)
	fmt.Fprintf(&b, "# TYPE dsdb_query_stage_seconds histogram\n")
	for i, h := range st.Stages {
		writeHistSeries(&b, "dsdb_query_stage_seconds", fmt.Sprintf("stage=%q", obs.Stage(i).String()), h)
	}
	w.Write([]byte(b.String()))
}

// writeScalar emits one counter or gauge series.
func writeScalar(b *strings.Builder, name string, kind obs.Kind, v int64) {
	fmt.Fprintf(b, "# TYPE %s %s\n", name, kind)
	fmt.Fprintf(b, "%s %d\n", name, v)
}

// writeHistSeries emits one histogram's _bucket/_sum/_count series.
// Prometheus buckets are cumulative; the snapshot's are not, so the
// running total is built here. label ("" or `k="v"`) is merged with the
// le label.
func writeHistSeries(b *strings.Builder, name, label string, h obs.HistSnapshot) {
	le, plain := "", ""
	if label != "" {
		le, plain = label+",", "{"+label+"}"
	}
	var cum uint64
	for i, n := range h.Counts {
		cum += n
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, le, obs.BucketSeconds(i), cum)
	}
	fmt.Fprintf(b, "%s_sum%s %g\n", name, plain, h.Sum.Seconds())
	fmt.Fprintf(b, "%s_count%s %d\n", name, plain, h.Count)
}
