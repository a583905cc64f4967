// layoutcompare runs a TPC-D workload on the instrumented database
// kernel and compares all five code layouts of the paper — original,
// Pettis & Hansen, Torrellas, STC-auto and STC-ops — on i-cache miss
// rate, fetch bandwidth and code sequentiality: one stcpipe grid, a
// cell per layout, over the paper's training and test traces.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/dsdb/stcpipe"
)

func main() {
	sf := flag.Float64("sf", 0.001, "TPC-D scale factor")
	cacheKB := flag.Int("cache", 2, "i-cache size in KB")
	cfaKB := flag.Float64("cfa", 0.5, "conflict-free area size in KB")
	flag.Parse()

	train, test, err := stcpipe.PaperTraces(*sf, 42)
	if err != nil {
		log.Fatal(err)
	}
	var cells []stcpipe.Cell
	for _, alg := range stcpipe.Algorithms(stcpipe.Params{CacheBytes: *cacheKB * 1024, CFABytes: int(*cfaKB * 1024)}) {
		lay, err := train.Layout(alg) // a CFA the cache cannot hold (-cfa 2 -cache 2) fails here
		if err != nil {
			log.Fatal(err)
		}
		cells = append(cells, stcpipe.Cell{Test: test, Layout: lay, Fetch: stcpipe.FetchConfig{CacheBytes: *cacheKB * 1024}})
	}
	// A cache size the fetch unit cannot index (-cache 3) fails here.
	results, err := stcpipe.SimulateGrid(cells)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%dKB direct-mapped cache, %.2gKB CFA\n\n%-6s %12s %10s %14s\n", *cacheKB, *cfaKB, "layout", "miss/100", "IPC", "instrs/taken")
	for i, c := range cells {
		fmt.Printf("%-6s %12.3f %10.2f %14.1f\n", c.Layout.Name(), results[i].MissesPer100Instr(), results[i].IPC(), test.Sequentiality(c.Layout))
	}
}
