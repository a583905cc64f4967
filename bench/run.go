package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/dsdb"
)

// config is what the command line fixes for every workload of one
// invocation.
type config struct {
	seed    int64
	seconds float64 // measured time per run; ignored when rounds > 0
	rounds  int     // > 0: fixed work (rounds, cycles or passes) instead of fixed time
	quick   bool    // smoke scale: tiny data, used by the self-tests
	trace   bool
	update  bool   // rewrite the golden files
	root    string // checkout root: the directory holding BENCHMARK.json
}

// dataSeed generates every database the benchmark opens. The data is
// part of the benchmark's definition, like the scale factors: were it
// drawn from -seed, selectivities (and with them trace lengths and
// allocation volumes) would differ by several percent between seeds,
// more than the changes the bounds are meant to resolve. -seed draws
// the workload instead: each client's query order, the inserted rows,
// the order of the traced query sets and the probes' inputs.
const dataSeed = 42

// sf is the TPC-D scale factor of the served and durable workloads;
// stcSF that of the fetch pipeline.
func (c *config) sf() float64 {
	if c.quick {
		return 0.001
	}
	return 0.01
}

func (c *config) stcSF() float64 {
	if c.quick {
		return 0.0003
	}
	return 0.005
}

func (c *config) outDir() string { return filepath.Join(c.root, "bench", "out") }

// sample is one completed operation of a workload.
type sample struct {
	typ string
	ms  float64
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// run is the state and result of one workload run.
type run struct {
	cfg *config
	wl  string

	metrics   map[string]float64
	attempted int
	failed    int
	checks    []check

	// measured phase, filled by env.measure (or the untraced phase of
	// env.trace)
	ops   []sample
	phase phaseStats

	setupAlloc uint64
	spans      *spanLog
	tables     []string // extra report blocks
	tmp        []string
}

func (r *run) set(name string, v float64) {
	if _, dup := r.metrics[name]; dup {
		panic("metric set twice: " + name)
	}
	r.metrics[name] = v
}

// check records a correctness or workload-separation assertion; a
// failed one makes the run incorrect.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *run) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0
}

// tmpDir makes a scratch directory under bench/out; cleanup removes
// every one of them, so the tree is left as it was found.
func (r *run) tmpDir(tag string) (string, error) {
	if err := os.MkdirAll(r.cfg.outDir(), 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(r.cfg.outDir(), "tmp-"+r.wl+"-"+tag+"-")
	if err != nil {
		return "", err
	}
	r.tmp = append(r.tmp, d)
	return d, nil
}

func (r *run) cleanup() {
	for _, d := range r.tmp {
		os.RemoveAll(d)
	}
	r.tmp = nil
}

// phase brackets a measured phase: it collects garbage so every phase
// starts from the same heap, runs f, and returns wall time and the
// process-level deltas.
type phaseStats struct {
	wall    time.Duration
	alloc   uint64 // bytes
	mallocs uint64 // heap objects
	gcs     uint32
	gcCPU   float64 // GC CPU seconds / total CPU seconds
}

func measurePhase(f func() error) (phaseStats, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, tot0 := cpuClasses()
	t0 := time.Now()
	err := f()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	gc1, tot1 := cpuClasses()
	ps := phaseStats{wall: wall, alloc: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs, gcs: m1.NumGC - m0.NumGC}
	if tot1 > tot0 {
		ps.gcCPU = (gc1 - gc0) / (tot1 - tot0)
	}
	return ps, err
}

func cpuClasses() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return
}

// pacer decides, between rounds of a closed loop, whether another
// round starts: a fixed count when the run does fixed work, otherwise
// for as long as the round is expected to end nearer the time budget
// than the previous one did. Rounds are never cut short, so the mix of
// operation types is the same in every run.
type pacer struct {
	start  time.Time
	budget time.Duration
	fixed  int
	done   int
}

func newPacer(cfg *config, share float64) *pacer {
	return &pacer{start: time.Now(), budget: time.Duration(cfg.seconds * share * float64(time.Second)), fixed: cfg.rounds}
}

func (p *pacer) next() bool {
	if p.fixed > 0 {
		if p.done >= p.fixed {
			return false
		}
	} else if p.done > 0 {
		el := time.Since(p.start)
		if el+el/time.Duration(2*p.done) > p.budget {
			return false
		}
	}
	p.done++
	return true
}

// endToEndFrom computes the generic end-to-end metrics from typed
// operation samples.
func endToEndFrom(ops []sample, ps phaseStats) map[string]float64 {
	all := make([]float64, len(ops))
	for i, s := range ops {
		all[i] = s.ms
	}
	sort.Float64s(all)
	var meds []float64
	for _, m := range typeMedians(ops) {
		meds = append(meds, m)
	}
	n := float64(len(ops))
	return map[string]float64{
		"ops_per_s":       rate(len(ops), ps.wall),
		"op_p50_ms":       quantile(all, 0.5),
		"op_p95_ms":       quantile(all, 0.95),
		"op_geomean_ms":   geomean(meds),
		"alloc_mb_per_op": float64(ps.alloc) / 1e6 / n,
		"allocs_per_op":   float64(ps.mallocs) / n,
	}
}

func typeMedians(ops []sample) map[string]float64 {
	byType := map[string][]float64{}
	for _, s := range ops {
		byType[s.typ] = append(byType[s.typ], s.ms)
	}
	out := map[string]float64{}
	for t, xs := range byType {
		out[t] = median(xs)
	}
	return out
}

// digest is the order-sensitive fingerprint of a result set: row
// count plus FNV-1a over every datum's type tag and exact payload
// (float bits, not a rendering), so "byte-for-byte equal" is what
// equality of two digests means.
type digest struct {
	Rows int
	Sum  uint64
}

func (d digest) String() string { return fmt.Sprintf("rows=%d fnv=%016x", d.Rows, d.Sum) }

type digester struct {
	h    hash.Hash64
	rows int
	buf  [9]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) reset() {
	d.h.Reset()
	d.rows = 0
}

func (d *digester) row(vals []dsdb.Value) {
	d.rows++
	for _, v := range vals {
		d.buf[0] = byte(v.T)
		switch v.T {
		case dsdb.Float:
			binary.LittleEndian.PutUint64(d.buf[1:], math.Float64bits(v.F))
			d.h.Write(d.buf[:])
		case dsdb.Str:
			d.h.Write(d.buf[:1])
			d.h.Write([]byte(v.S))
			d.h.Write([]byte{0})
		default:
			binary.LittleEndian.PutUint64(d.buf[1:], uint64(v.I))
			d.h.Write(d.buf[:])
		}
	}
	d.h.Write([]byte{0xff})
}

func (d *digester) sum() digest { return digest{d.rows, d.h.Sum64()} }

func digestResult(res *dsdb.Result) digest {
	d := newDigester()
	for _, row := range res.Rows {
		d.row(row)
	}
	return d.sum()
}

// checkGolden compares rendered lines with a golden file under
// bench/testdata (or rewrites it under -update). applies says whether
// this run is the configuration the file was generated from.
func (r *run) checkGolden(file string, applies bool, lines []string) {
	if !applies {
		return
	}
	path := filepath.Join(r.cfg.root, "bench", "testdata", file)
	got := strings.Join(lines, "\n") + "\n"
	if r.cfg.update {
		err := os.WriteFile(path, []byte(got), 0o644)
		r.check("golden:"+file, err == nil, "rewritten (%v)", err)
		return
	}
	want, err := os.ReadFile(path)
	r.check("golden:"+file, err == nil && string(want) == got, "%d lines compared with %s (read error: %v)", len(lines), file, err)
}

func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
