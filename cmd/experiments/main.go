// Command experiments regenerates every table and figure of the paper
// end to end: it builds the TPC-D databases, runs the training and
// test workloads on the instrumented kernel, and prints the paper-style
// tables.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/dsdb/stcpipe"
)

func main() {
	log.SetFlags(0)
	sf := flag.Float64("sf", 0.002, "TPC-D scale factor")
	seed := flag.Int64("seed", 42, "generator seed")
	validate := flag.Bool("validate", false, "validate traces against the static CFG while recording")
	only := flag.String("only", "", "run a single experiment: table1|figure2|reuse|table2|table3|table4|seq|ablation")
	parallel := flag.Int("parallel", 1, "partition-parallel scan workers while tracing (1 = the paper's serial plans)")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "building databases and traces (SF=%g, parallelism=%d)...\n", *sf, *parallel)
	r, err := stcpipe.NewReport(stcpipe.ReportParams{
		SF: *sf, Seed: *seed, Validate: *validate, Parallelism: *parallel})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, r.TraceSummary())

	sections := []struct {
		name   string
		render func() string
	}{
		{"table1", r.Table1},
		{"figure2", r.Figure2},
		{"reuse", r.Reuse},
		{"table2", r.Table2},
		{"seq", r.Sequentiality},
		{"table3", r.Table3},
		{"table4", r.Table4},
		{"ablation", r.Ablation},
	}
	for _, s := range sections {
		if *only == "" || *only == s.name {
			fmt.Println(s.render())
		}
	}
}
