// Command experiments reproduces the paper's evaluation end to end: it
// builds the TPC-D databases, runs the training and test workloads on
// the instrumented kernel, and prints what stcpipe.Report renders —
// Tables 1–4, Figure 2, the reuse statistics, the sequentiality of
// each layout and the STC threshold ablation.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"repro/dsdb/stcpipe"
)

var sections = []struct {
	name   string
	render func(*stcpipe.Report) string
}{
	{"table1", (*stcpipe.Report).Table1},
	{"figure2", (*stcpipe.Report).Figure2},
	{"reuse", (*stcpipe.Report).Reuse},
	{"table2", (*stcpipe.Report).Table2},
	{"seq", (*stcpipe.Report).Sequentiality},
	{"table3", (*stcpipe.Report).Table3},
	{"table4", (*stcpipe.Report).Table4},
	{"ablation", (*stcpipe.Report).Ablation},
}

func main() {
	log.SetFlags(0)
	var names []string
	for _, s := range sections {
		names = append(names, s.name)
	}
	sf := flag.Float64("sf", 0.002, "TPC-D scale factor")
	seed := flag.Int64("seed", 42, "generator seed")
	validate := flag.Bool("validate", false, "validate traces against the static CFG while recording")
	only := flag.String("only", "", "run a single experiment: "+strings.Join(names, "|"))
	flag.Parse()
	// Before the databases and traces are built, not after.
	if *only != "" && !slices.Contains(names, *only) {
		fmt.Fprintf(os.Stderr, "experiments: no section %q (have %s)\n", *only, strings.Join(names, ", "))
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "building databases and traces (SF=%g)...\n", *sf)
	var opts []stcpipe.Option
	if *validate {
		opts = append(opts, stcpipe.Validate())
	}
	train, test, err := stcpipe.PaperTraces(*sf, *seed, opts...)
	if err != nil {
		log.Fatal(err)
	}
	r := stcpipe.ReportOf(train, test)
	fmt.Fprintln(os.Stderr, r.TraceSummary())
	for _, s := range sections {
		if *only == "" || *only == s.name {
			fmt.Println(s.render(r))
		}
	}
}
