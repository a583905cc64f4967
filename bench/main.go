// Command bench is the repository's benchmark: four named workloads
// against the public packages, one command that prints every metric
// by name and unit and checks the outputs, and a separate traced run
// for the per-layer numbers. See README.md in this directory.
//
//	go run ./bench -workload <name|all> -seed N [-trace 1] [-seconds S | -rounds N] [-out runs.jsonl]
//	go run ./bench -compare parent.jsonl child.jsonl
//
// The last line of standard output of a single-workload run is one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics untraced, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	workload := fs.String("workload", "all", "workload name, or all")
	fs.Int64Var(&cfg.seed, "seed", 42, "workload seed: each client's query order, the inserted rows, the order of the traced query sets, the probe inputs (the data is fixed)")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "measured seconds per run")
	fs.IntVar(&cfg.rounds, "rounds", 0, "run this many rounds (cycles of 4, passes) instead of a fixed time: fixed work, so counts compare exactly")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: untraced run, prints the end-to-end metrics")
	fs.BoolVar(&cfg.quick, "quick", false, "smoke scale (tiny data); numbers are not comparable with a normal run")
	fs.BoolVar(&cfg.update, "update", false, "rewrite the golden files under bench/testdata (seed 42 only)")
	out := fs.String("out", "", "append one JSON line per workload run to this file (the input of -compare)")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare parent.jsonl child.jsonl")
	manifest := fs.Bool("manifest", false, "rewrite BENCHMARK.json from the metric table and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	if err := validateTable(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cfg.root = root
	if *manifest {
		if err := writeManifest(root); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	// Fixed environment: both cores of the sandbox, default GOGC, one
	// process.
	runtime.GOMAXPROCS(2)
	var selected []workloadDef
	for _, w := range workloads {
		if *workload == "all" || *workload == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	code := 0
	for _, w := range selected {
		r, err := runWorkload(&cfg, w)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		rec := r.record()
		printReport(stdout, r, rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		line, _ := json.Marshal(rec.result)
		fmt.Fprintf(stdout, "%s\n", line)
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// findRoot locates the checkout root (the directory with go.mod and
// bench/) from the working directory, so the command works from the
// root (go run ./bench) and from bench/ (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "bench", "metrics.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no bench/ directory above the working directory")
		}
		dir = parent
	}
}

const setupReps = 3

// runWorkload sets the workload up (several times, for a steady
// setup_s), runs the untraced or the traced variant, and tears down.
func runWorkload(cfg *config, w workloadDef) (r *run, err error) {
	r = &run{cfg: cfg, wl: w.Name, metrics: map[string]float64{}}
	defer r.cleanup()
	reps := setupReps
	if cfg.quick {
		reps = 1
	}
	var e env
	defer func() {
		if e != nil {
			if cerr := e.close(); err == nil {
				err = cerr
			}
		}
	}()
	var setups []float64
	for i := 0; i < reps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return r, err
			}
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		e, err = w.setup(r)
		if err != nil {
			return r, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.ReadMemStats(&m1)
		r.setupAlloc = m1.TotalAlloc - m0.TotalAlloc
	}
	if !cfg.trace {
		if err := e.measure(r); err != nil {
			return r, err
		}
		for k, v := range endToEndFrom(r.ops, r.phase) {
			r.set(k, v)
		}
		r.set("setup_s", median(setups))
		return r, nil
	}
	if err := e.trace(r); err != nil {
		return r, err
	}
	if err := runProbes(r); err != nil {
		return r, fmt.Errorf("probes: %w", err)
	}
	r.set("process.peak_rss_mb", peakRSSMB())
	r.set("process.setup_alloc_mb", float64(r.setupAlloc)/1e6)
	r.set("process.gc_cycles_per_op", float64(r.phase.gcs)/float64(len(r.ops)))
	r.set("process.gc_cpu_share", r.phase.gcCPU)
	if r.spans != nil {
		if err := r.spans.write(filepath.Join(cfg.outDir(), w.Name+".trace.json")); err != nil {
			return r, err
		}
	}
	// A layer this workload does not exercise reads 0.
	for _, m := range perLayer {
		if _, ok := r.metrics[m.Name]; !ok {
			r.metrics[m.Name] = 0
		}
	}
	return r, nil
}

// result is the driver contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of an -out file: the result plus what identifies
// the run.
type record struct {
	result
	Workload string  `json:"workload"`
	Trace    bool    `json:"trace"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Rounds   int     `json:"rounds"`
	Quick    bool    `json:"quick"`
	Ops      int     `json:"ops"`
	Checks   []check `json:"checks"`
	Go       string  `json:"go"`
	NumCPU   int     `json:"nproc"`
	Commit   string  `json:"commit"`
}

func (r *run) record() record {
	rec := record{
		result:   result{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metricValue{}},
		Workload: r.wl, Trace: r.cfg.trace, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Rounds: r.cfg.rounds, Quick: r.cfg.quick,
		Ops: len(r.ops), Checks: r.checks, Go: runtime.Version(), NumCPU: runtime.NumCPU(), Commit: commit(),
	}
	list := endToEnd
	if r.cfg.trace {
		list = perLayer
	}
	for _, m := range list {
		rec.Metrics[m.Name] = metricValue{r.metrics[m.Name], m.Unit}
	}
	for name := range r.metrics {
		if _, ok := rec.Metrics[name]; !ok {
			panic("undeclared metric emitted: " + name)
		}
	}
	return rec
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printReport(w io.Writer, r *run, rec record) {
	kind := "untraced: end-to-end metrics"
	if rec.Trace {
		kind = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "== %s (%s)  seed=%d seconds=%g rounds=%d quick=%v  %s nproc=%d GOMAXPROCS=%d commit=%s\n",
		rec.Workload, kind, rec.Seed, rec.Seconds, rec.Rounds, rec.Quick, rec.Go, rec.NumCPU, runtime.GOMAXPROCS(0), rec.Commit)
	fmt.Fprintf(w, "   %d operations measured in %.2fs; attempted=%d failed=%d error_ratio=%g\n",
		rec.Ops, r.phase.wall.Seconds(), rec.Attempted, rec.Failed, float64(rec.Failed)/float64(rec.Attempted))
	list := endToEnd
	if rec.Trace {
		list = perLayer
	}
	for _, m := range list {
		fmt.Fprintf(w, "   %-34s %16.6g %-12s (%s is better)\n", m.Name, rec.Metrics[m.Name].Value, m.Unit, m.Better)
	}
	if !rec.Trace {
		meds := typeMedians(r.ops)
		var types []string
		for t := range meds {
			types = append(types, t)
		}
		sort.Strings(types)
		fmt.Fprintf(w, "   per-type median latency (ms):")
		for _, t := range types {
			fmt.Fprintf(w, " %s=%.4g", t, meds[t])
		}
		fmt.Fprintln(w)
	}
	for _, t := range r.tables {
		fmt.Fprintln(w, t)
	}
	for _, c := range rec.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "   [%s] %s: %s\n", mark, c.Name, c.Detail)
	}
	if !rec.Correct {
		fmt.Fprintf(w, "   INCORRECT: %d failed operations, or failed checks above\n", rec.Failed)
	}
}
