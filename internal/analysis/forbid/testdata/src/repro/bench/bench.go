// Package bench may keep the parallel-scan names, not the recorders.
package bench

import "repro/dsdb/stcpipe"

type WorkerTracer struct{ Parallelism int }

func parallel2(db *stcpipe.DB) {
	db.SetParallelism(2)
	defer db.SetParallelism(1)
}

func ProfileCached() {} // want "ProfileCached is forbidden here"
