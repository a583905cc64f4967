// Package stcpipe stands in for a dsdb package. ProfileConcurrent,
// ParallelScan and Compare, named in this comment, are not declared.
package stcpipe

import "cmp"

type Pipeline struct {
	Parallelism int // want "Parallelism is forbidden here: one query runs on one goroutine"
}

func (p *Pipeline) Profile() {}

func (p *Pipeline) ProfileServed(n int) {} // want "ProfileServed is forbidden here: Pipeline.Profile\\(db, source\\) is the only recorder"

func WithParallelism(n int) func(*Pipeline) { return nil } // want "WithParallelism is forbidden here"

type CompareParams struct{} // want "CompareParams is forbidden here"

func paperRow() {} // want "paperRow is forbidden here"

// order uses the standard library's Compare: a use, not a declaration.
func order(a, b int) int { return cmp.Compare(a, b) }

// Key orders itself with a Compare method, which no row forbids.
type Key int

func (k Key) Compare(o Key) int { return cmp.Compare(k, o) }

type DB struct{}

// SetParallelism is the legal no-op bench still calls.
func (db *DB) SetParallelism(int) {}

type FetchConfig struct {
	CacheBytes, Ways, VictimEntries int
	LineBytes                       int // want "LineBytes is forbidden here: fetch.Config is the caches alone"
}

func (fc FetchConfig) ways() int { return fc.Ways } // want "repro/dsdb/stcpipe.FetchConfig.ways is forbidden here: the fetch unit is SEQ.3"
