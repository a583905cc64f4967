// tracecache reproduces the paper's headline combination result: a
// hardware trace cache alone vs. the Software Trace Cache layout vs.
// both together (Section 7.3) — showing that the software layout makes
// the sequential fetch path a better backup on trace-cache misses. It
// is one stcpipe grid: the original and the STC (ops) layout, each on
// a 4KB i-cache without and with a trace cache in front.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/dsdb"
	"repro/dsdb/stcpipe"
)

func main() {
	sf := flag.Float64("sf", 0.001, "TPC-D scale factor")
	entries := flag.Int("entries", 64, "trace cache entries (paper: 256)")
	flag.Parse()

	db, pipe := must(dsdb.Open(dsdb.WithTPCD(*sf), dsdb.WithSeed(42))), stcpipe.New()
	train, test := must(pipe.Profile(db, stcpipe.Training())), must(pipe.Profile(db, stcpipe.Test()))
	orig, ops := must(train.Layout(stcpipe.Original())), must(train.Layout(stcpipe.STCOps(stcpipe.Params{CacheBytes: 4096, CFABytes: 1024})))
	dm, tc := stcpipe.FetchConfig{CacheBytes: 4096}, stcpipe.FetchConfig{CacheBytes: 4096, TraceCacheEntries: *entries}
	results := must(stcpipe.SimulateGrid([]stcpipe.Cell{{Test: test, Layout: orig, Fetch: dm}, {Test: test, Layout: ops, Fetch: dm},
		{Test: test, Layout: orig, Fetch: tc}, {Test: test, Layout: ops, Fetch: tc}}))

	fmt.Printf("4KB i-cache; %d-entry trace cache; test trace %d instrs\n\n%-32s %8s %10s %10s\n",
		*entries, test.Instrs(), "configuration", "IPC", "TC hits", "TC miss")
	for i, name := range []string{"original layout", "STC (ops) layout", "trace cache, original layout", "trace cache + STC (ops)"} {
		fmt.Printf("%-32s %8.2f %10d %10d\n", name, results[i].IPC(), results[i].TCHits, results[i].TCMisses)
	}
}

// must stops the example on any error.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}
