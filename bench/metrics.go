package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// This file is the single source for what the benchmark measures:
// BENCHMARK.json is generated from it (-manifest) and the self-tests
// assert the two agree and that every run emits exactly these names.

// runSeconds is how long one run measures by default; BENCHMARK.json
// carries it as run_seconds.
const runSeconds = 20

type workloadDef struct {
	Name string
	Why  string
	// setup builds the system under test; it is timed, repeated, and
	// its median is setup_s.
	setup func(r *run) (env, error)
}

// env is one set-up instance of a workload.
type env interface {
	// measure runs the untraced, closed-loop measured phase and
	// records typed operation latencies into r.
	measure(r *run) error
	// trace runs the traced variant and fills per-layer metrics.
	trace(r *run) error
	close() error
}

var workloads = []workloadDef{
	{"tpcd_served", "the paper's 12 TPC-D queries over the wire from 2 closed-loop clients, data fits the pool, no cache: executor/access/value/buffer-hit do >95% of the time", setupTPCDServed},
	{"cached_served", "same data and clients with result cache and capture on, every query a hit: server/wire/client/qcache/obs/wcap do everything, the executor is bypassed", setupCachedServed},
	{"durable_readwrite", "one session on a data dir with a pool 1/8 of the data: insert batches, invalidated re-executions, hits, checkpoints - buffer misses, qcache put/invalidate, wal and disk files", setupDurable},
	{"stc_pipeline", "the paper flow, nothing served: traced Profile of training and test sets on B-tree and hash DBs, five layouts, three fetch simulations each, sequentiality", setupSTC},
}

type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Def    string  // what is measured, for the report and the README
}

// The timing bounds are the widest the driver contract allows: on this
// sandbox a deterministic single-threaded pass varies by a fifth from
// one minute to the next (README, "Sandbox noise"), so nothing tighter
// can be resolved by wall-clock. The two allocation metrics repeat to
// a fraction of a percent and carry the tight bounds.
//
// Every end-to-end metric is defined on every workload through the
// workload's typed operations (see README "Operations"): the driver
// contract reports each of them on each workload, so metrics that
// exist on one workload only (checkpoint time, simulated IPC, ...)
// are per-layer metrics below.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25, "median wall time of one set-up (generate, load, index, listen, warm-up), set-up repeated per run"},
	{"ops_per_s", "1/s", "higher", 0.25, "completed operations / measured wall time"},
	{"op_p50_ms", "ms", "lower", 0.25, "median caller-observed operation latency"},
	{"op_p95_ms", "ms", "lower", 0.25, "95th percentile operation latency (nearest rank)"},
	{"op_geomean_ms", "ms", "lower", 0.25, "geometric mean over operation types of each type's median latency (TPC-D power style: no type can hide the others)"},
	{"alloc_mb_per_op", "MB", "lower", 0.03, "runtime.MemStats.TotalAlloc delta over the measured phase / operations"},
	{"allocs_per_op", "count", "lower", 0.03, "runtime.MemStats.Mallocs delta over the measured phase / operations"},
}

// Per-layer metrics come from the traced run (-trace 1). Source tags
// in Def: T = benchmark-side span or obs stage joined by query id,
// C = counter the program exports read before/after, P = isolated
// probe loop over the layer's functions (same on every workload),
// S = simulated statistic (exact for a seed). A T or C metric reads 0
// on a workload that does not exercise or measure that layer.
var perLayer = []metric{
	// workload-level numbers that exist on some workloads only
	{"queries_per_s", "1/s", "higher", 0, "T served/wire queries completed / wall, untraced phase (tpcd_served, cached_served, durable_readwrite)"},
	{"query_p50_ms", "ms", "lower", 0, "T median client-observed query latency, send to last row (served workloads; pass A on durable_readwrite)"},
	{"query_p95_ms", "ms", "lower", 0, "T p95 of the same"},
	{"query_geomean_ms", "ms", "lower", 0, "T geomean over query types of the type's median latency"},
	{"cycle_p50_ms", "ms", "lower", 0, "T median insert->re-execute->hit cycle (durable_readwrite)"},
	{"insert_batch_p50_ms", "ms", "lower", 0, "T median 80-insert batch (durable_readwrite)"},
	{"checkpoint_p50_ms", "ms", "lower", 0, "T median db.Checkpoint() (durable_readwrite)"},
	{"pipeline_p50_s", "s", "lower", 0, "T median wall time of one full pass (stc_pipeline)"},
	{"trace_mevents_per_s", "1e6/s", "higher", 0, "T basic-block events recorded per host-second inside Profile (stc_pipeline)"},
	{"sim_minstr_per_s", "1e6/s", "higher", 0, "T simulated instructions per host-second inside Simulate (stc_pipeline)"},
	{"stc_ops_instr_per_taken", "instr", "higher", 0, "S instructions between taken branches, STC-ops layout, test trace"},
	{"stc_ops_ipc_2k", "instr/cycle", "higher", 0, "S fetch IPC, STC-ops, 2 KB direct-mapped i-cache (model unvalidated: no hardware reference in the repo)"},
	{"orig_ipc_2k", "instr/cycle", "higher", 0, "S same for the original layout, the base of every simulated speed-up"},

	{"value.compare_ns", "ns", "lower", 0, "P value.Compare over mixed int/float/str/date pairs"},
	{"value.hash_ns", "ns", "lower", 0, "P value.Hash over the same values"},

	{"executor.exec_ms_q2", "ms", "lower", 0, "T obs exec-stage time, single session (tpcd_served)"},
	{"executor.exec_ms_q3", "ms", "lower", 0, "T same"},
	{"executor.exec_ms_q4", "ms", "lower", 0, "T same"},
	{"executor.exec_ms_q5", "ms", "lower", 0, "T same"},
	{"executor.exec_ms_q6", "ms", "lower", 0, "T same"},
	{"executor.exec_ms_q9", "ms", "lower", 0, "T same"},
	{"executor.exec_ms_q11", "ms", "lower", 0, "T same"},
	{"executor.exec_ms_q12", "ms", "lower", 0, "T same"},
	{"executor.exec_ms_q13", "ms", "lower", 0, "T same"},
	{"executor.exec_ms_q14", "ms", "lower", 0, "T same"},
	{"executor.exec_ms_q15", "ms", "lower", 0, "T same"},
	{"executor.exec_ms_q17", "ms", "lower", 0, "T same"},
	{"executor.scan_share", "ratio", "lower", 0, "T EXPLAIN ANALYZE operator self time in scans / all operators, over the 12 queries"},
	{"executor.join_share", "ratio", "lower", 0, "T same for joins"},
	{"executor.agg_share", "ratio", "lower", 0, "T same for aggregates"},
	{"executor.sort_share", "ratio", "lower", 0, "T same for sorts"},
	{"executor.scan_rows_per_s", "1/s", "higher", 0, "T lineitem rows / Q6 local latency"},
	{"executor.allocs_per_row", "count", "lower", 0, "C Mallocs delta / lineitem rows over Q6"},
	{"executor.traced_slowdown", "ratio", "lower", 0, "T stcpipe.Profile time / untraced time, same queries"},
	{"executor.parallel2_speedup", "ratio", "higher", 0, "T Q6 latency at SetParallelism(1) / (2)"},

	{"sql.plan_us_p50", "us", "lower", 0, "T median obs plan stage"},
	{"sql.compile_ns", "ns", "lower", 0, "P sql.CompileQuery of Q9"},
	{"sql.compile_allocs", "count", "lower", 0, "P allocations per CompileQuery of Q9"},
	{"sql.canonical_ns", "ns", "lower", 0, "P sql.Analyze (parse + canonical key) of Q9"},

	{"access.heap_next_ns", "ns", "lower", 0, "P HeapScan.Next per tuple over lineitem"},
	{"access.btree_seek_ns", "ns", "lower", 0, "P BTree.SeekGE + first Next, random keys"},
	{"access.hash_lookup_ns", "ns", "lower", 0, "P HashIndex.Lookup + first Next, random keys"},
	{"access.btree_pages_per_seek", "count", "lower", 0, "C buffer accesses per SeekGE in the probe"},

	{"buffer.get_hit_ns", "ns", "lower", 0, "P Manager.Get+Release on resident pages"},
	{"buffer.get_miss_ns", "ns", "lower", 0, "P Get+Release cycling more pages than frames (evict + read)"},
	{"buffer.hit_ratio", "ratio", "higher", 0, "C pool hits / accesses over the workload's traced phase"},
	{"buffer.misses_per_query", "count", "lower", 0, "C pool misses / executed queries"},
	{"buffer.io_ms_per_query", "ms", "lower", 0, "T mean obs io stage per executed query"},

	{"storage.page_read_ns", "ns", "lower", 0, "P Store.ReadPage on a disk-backed store"},
	{"storage.checkpoint_bytes", "bytes", "lower", 0, "C data-dir growth per checkpoint (durable_readwrite)"},
	{"storage.bytes_per_user_byte", "ratio", "lower", 0, "C data-dir bytes after the last checkpoint / encoded tuple bytes of all rows"},

	{"wal.append_ns", "ns", "lower", 0, "P Writer.Append of an insert record, no fsync"},
	{"wal.append_allocs", "count", "lower", 0, "P allocations per Append"},
	{"wal.append_sync_us", "us", "lower", 0, "P Append under SyncEvery (sandbox fsync, not a device's)"},
	{"wal.encode_ns", "ns", "lower", 0, "P wal.EncodeRecord"},
	{"wal.decode_ns", "ns", "lower", 0, "P wal.DecodeRecord"},
	{"wal.appends_per_insert", "count", "lower", 0, "C WAL appends / inserts (page spills included)"},
	{"wal.bytes_per_insert", "bytes", "lower", 0, "C wal segment bytes / inserts over one batch: logical records plus the page images the small pool spills"},
	{"wal.fsyncs", "count", "lower", 0, "C WAL fsyncs per checkpoint"},
	{"wal.stage_us_per_insert", "us", "lower", 0, "T mean obs wal stage per insert"},
	{"wal.recover_ms", "ms", "lower", 0, "T Abandon -> Open with a log to replay"},

	{"engine.insert_us", "us", "lower", 0, "T mean Insert time minus its wal stage"},
	{"engine.open_cold_ms", "ms", "lower", 0, "T Open of a fresh data dir: generate, load, checkpoint"},
	{"engine.open_warm_ms", "ms", "lower", 0, "T Open of a cleanly closed data dir"},

	{"qcache.get_hit_ns", "ns", "lower", 0, "P Cache.Get hit with epoch validation"},
	{"qcache.get_hit_allocs", "count", "lower", 0, "P allocations per Get hit"},
	{"qcache.put_ns", "ns", "lower", 0, "P Cache.Put of a 24-row result"},
	{"qcache.invalidate_ns", "ns", "lower", 0, "P Get that finds a stale epoch and drops the entry"},
	{"qcache.hit_ratio", "ratio", "higher", 0, "C cache hits / gets over the workload's traced phase"},
	{"qcache.stage_us_p50", "us", "lower", 0, "T median obs cache stage"},
	{"qcache.bytes_per_entry", "bytes", "lower", 0, "C UsedBytes / Entries"},

	{"wire.encode_row_ns", "ns", "lower", 0, "P EncodeRowBatch per row (64-row batches)"},
	{"wire.encode_row_allocs", "count", "lower", 0, "P allocations per encoded row"},
	{"wire.decode_row_ns", "ns", "lower", 0, "P DecodeRowBatch per row"},
	{"wire.decode_row_allocs", "count", "lower", 0, "P allocations per decoded row"},
	{"wire.frame_roundtrip_ns", "ns", "lower", 0, "P WriteFrame + ReadFrame through a buffer"},
	{"wire.bytes_per_row", "bytes", "lower", 0, "C server bytes written / rows streamed"},

	{"server.net_us_p50", "us", "lower", 0, "T median obs net stage"},
	{"server.total_us_p50", "us", "lower", 0, "T median server span total"},
	{"server.hit_overhead_us", "us", "lower", 0, "T served hit p50 - local hit p50 (cached_served)"},
	{"server.bytes_per_query", "bytes", "lower", 0, "C server bytes written / queries"},
	{"server.unattributed_share", "ratio", "lower", 0, "T 1 - sum of stages / server total"},
	{"server.clients2_speedup", "ratio", "higher", 0, "T queries_per_s with 2 clients / with 1 session (2 would be perfect scaling on the 2 cores)"},

	{"client.overhead_us_p50", "us", "lower", 0, "T median client-observed latency - server span total, same query id"},
	{"client.first_row_us_p50", "us", "lower", 0, "T median send -> first row available"},

	{"obs.span_ns", "ns", "lower", 0, "P Begin + 3 Add + End"},
	{"obs.span_allocs", "count", "lower", 0, "P allocations per span"},
	{"obs.tax_ratio", "ratio", "lower", 0, "T local hit latency, obs on / obs disabled (cached_served)"},

	{"wcap.capture_ns", "ns", "lower", 0, "P Writer.Capture (the serving-path send)"},
	{"wcap.encode_ns", "ns", "lower", 0, "P wcap.EncodeRecord"},
	{"wcap.decode_ns", "ns", "lower", 0, "P wcap.DecodeRecord"},
	{"wcap.bytes_per_record", "bytes", "lower", 0, "C capture bytes / records"},
	{"wcap.dropped", "count", "lower", 0, "C records shed by the capture buffer (must be 0)"},
	{"wcap.tax_us", "us", "lower", 0, "T served hit p50, capture on - off (cached_served)"},

	{"load.replay_qps", "1/s", "higher", 0, "T load.Replay of the captured log against a fresh in-process server"},
	{"load.replay_row_mismatch", "count", "lower", 0, "C replayed queries whose rows differ from the local reference (must be 0)"},

	{"kernel.emit_ns_per_event", "ns", "lower", 0, "T (Profile - untraced) / events"},
	{"kernel.events_per_query", "count", "lower", 0, "C basic-block events / traced queries"},

	{"profile.build_ms", "ms", "lower", 0, "T trace -> weighted CFG (first profile-derived call)"},
	{"layout.pettishansen_ms", "ms", "lower", 0, "T Layout(PettisHansen)"},
	{"layout.torrellas_ms", "ms", "lower", 0, "T Layout(Torrellas)"},
	{"core.stc_auto_ms", "ms", "lower", 0, "T Layout(STCAuto)"},
	{"core.stc_ops_ms", "ms", "lower", 0, "T Layout(STCOps)"},

	{"fetch.simulate_ns_per_instr", "ns", "lower", 0, "T host time per simulated instruction, ideal cache"},
	{"fetch.sequentiality_ns_per_event", "ns", "lower", 0, "T host time per trace event in Sequentiality"},
	{"cache.dm_ns_per_instr", "ns", "lower", 0, "T host time per instruction, 2 KB direct-mapped"},
	{"cache.tracecache_ns_per_instr", "ns", "lower", 0, "T host time per instruction, 2 KB + trace cache"},
	{"cache.miss_per_100_2k_orig", "count", "lower", 0, "S i-cache misses per 100 instructions, 2 KB, original layout"},
	{"cache.miss_per_100_2k_ph", "count", "lower", 0, "S same, Pettis & Hansen"},
	{"cache.miss_per_100_2k_torr", "count", "lower", 0, "S same, Torrellas"},
	{"cache.miss_per_100_2k_auto", "count", "lower", 0, "S same, STC-auto"},
	{"cache.miss_per_100_2k_ops", "count", "lower", 0, "S same, STC-ops"},
	{"fetch.ipc_ideal_ops", "instr/cycle", "higher", 0, "S fetch IPC, STC-ops, perfect cache"},

	{"process.peak_rss_mb", "MB", "lower", 0, "C VmHWM at exit"},
	{"process.setup_alloc_mb", "MB", "lower", 0, "C TotalAlloc over the set-up that was used"},
	{"process.gc_cycles_per_op", "count", "lower", 0, "C NumGC delta / operations, untraced phase"},
	{"process.gc_cpu_share", "ratio", "lower", 0, "C GC CPU seconds / total CPU seconds, untraced phase (runtime/metrics)"},
	{"bench.trace_overhead_ratio", "ratio", "higher", 0, "T ops_per_s with benchmark spans on / off, same process"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWL     `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.Name, w.Why})
	}
	for _, e := range endToEnd {
		b := e.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{e.Name, e.Unit, e.Better, &b})
	}
	for _, p := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{p.Name, p.Unit, p.Better, nil})
	}
	return m
}

func manifestJSON() []byte {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		panic(err) // static data
	}
	return append(b, '\n')
}

func writeManifest(root string) error {
	return os.WriteFile(filepath.Join(root, "BENCHMARK.json"), manifestJSON(), 0o644)
}

// validateTable checks the declared names and units against the
// driver contract's grammar; a bad table is a programming error.
func validateTable() error {
	seen := map[string]bool{}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %q unit %q: bad name or unit", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %q: better=%q", m.Name, m.Better)
			}
			if seen[m.Name] {
				return fmt.Errorf("metric %q declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			return fmt.Errorf("workload %q: bad name, duplicate, or why too long (%d)", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		return fmt.Errorf("too many metrics: %d end-to-end, %d per-layer", len(endToEnd), len(perLayer))
	}
	return nil
}
