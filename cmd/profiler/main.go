// Command profiler runs the paper's training workload on the
// instrumented kernel and prints the weighted-CFG profile summary:
// footprint, hottest blocks and procedures, and type breakdown
// (Section 4 of the paper).
//
// With -sessions N (N > 1) it profiles a multi-session workload
// instead (stcpipe.Concurrent): N concurrent clients each run the
// training set against one shared database, every session recording
// its own trace, and the interleaved trace is profiled — the
// concurrency measurement scenario for the paper's fetch models.
// Adding -served runs those N sessions as real wire clients against an
// in-process dsdb server (stcpipe.Served): instruction fetch under
// served DSS traffic.
//
// With -cached N (N ≥ 2) it instead profiles the training workload N
// rounds against a result-cached database (stcpipe.Cached) and prints
// the per-execution trace segments: round 1 fills the cache, every
// later round is served from it and records zero kernel instructions —
// the instruction-stream collapse of repeated DSS queries.
//
// Whatever the flags, the run is one source handed to one
// stcpipe.Pipeline.Profile call.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/dsdb"
	"repro/dsdb/stcpipe"
)

func main() {
	log.SetFlags(0)
	sf := flag.Float64("sf", 0.002, "TPC-D scale factor")
	top := flag.Int("top", 20, "number of hottest blocks to list")
	sessions := flag.Int("sessions", 1, "concurrent sessions to profile (1 = the paper's serial run)")
	served := flag.Bool("served", false, "run the sessions as wire clients against an in-process server")
	cached := flag.Int("cached", 0, "profile N rounds against a result-cached database (N >= 2; repeats hit the cache)")
	flag.Parse()
	multi := *served || *sessions > 1
	if *cached > 0 && multi {
		fmt.Fprintln(os.Stderr, "profiler: -cached profiles one session; it cannot be combined with -sessions or -served")
		os.Exit(2)
	}

	opts := []dsdb.Option{dsdb.WithTPCD(*sf)}
	var src stcpipe.Source = stcpipe.Training()
	how := "concurrent"
	switch {
	case *cached > 0:
		opts = append(opts, dsdb.WithResultCache(64<<20))
		src = stcpipe.Cached(stcpipe.Training(), *cached)
	case *served:
		src, how = stcpipe.Served(stcpipe.Training(), *sessions), "served"
	case multi:
		src = stcpipe.Concurrent(stcpipe.Training(), *sessions)
	}
	db, err := dsdb.Open(opts...)
	if err != nil {
		log.Fatal(err)
	}
	pr, err := stcpipe.New().Profile(db, src)
	if err != nil {
		log.Fatal(err)
	}

	what := "training set"
	switch {
	case *cached > 0:
		// Every execution's trace segment: the repeat rounds collapse to
		// zero instructions.
		fmt.Printf("cached profile, %d rounds of the training set: %d block events, %d instrs total\n",
			*cached, pr.Events(), pr.Instrs())
		for _, m := range pr.MarkStats() {
			fmt.Printf("  %-16s %10d blocks %12d instrs\n", m.Label, m.Blocks, m.Instrs)
		}
		if st, ok := db.ResultCacheStats(); ok {
			fmt.Println("result cache:", st.Section(true))
		}
		return
	case multi:
		fmt.Printf("%d %s sessions, interleaved trace: %d block events, %d instrs\n",
			*sessions, how, pr.Events(), pr.Instrs())
		fp := pr.Footprint()
		fmt.Printf("executed footprint: %.1f%% of procedures, %.1f%% of blocks, %.1f%% of instructions\n",
			fp.PctProcs(), fp.PctBlocks(), fp.PctInstrs())
		what = fmt.Sprintf("%d-session training set", *sessions)
	default:
		r := stcpipe.ReportOf(pr, pr)
		fmt.Print(r.Table1())
		fmt.Println()
		fmt.Print(r.Table2())
		fmt.Println()
	}
	blocks := pr.HottestBlocks(*top)
	fmt.Printf("hottest %d basic blocks (%s):\n", len(blocks), what)
	for i, b := range blocks {
		fmt.Printf("%4d. %-28s %10d executions (%d instrs)\n",
			i+1, b.Name, b.Executions, b.Instrs)
	}
}
