package load

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/dsdb"
	"repro/dsdb/client"
)

// job is one query a worker runs: its label and text, its arrival
// offset from the start of the phase (read only when the phase is
// paced) and, for a replayed record, the latency the capture recorded.
type job struct {
	label, sql string
	due        time.Duration
	recorded   time.Duration
}

// runner runs one query to completion, returning the rows streamed and
// whether the server answered it from its result cache.
type runner func(ctx context.Context, label, sql string) (rows int64, hit bool, err error)

// rowSet is what the wire client's Rows and the in-process Rows share.
type rowSet interface {
	Next() bool
	Err() error
	Close() error
	CacheHit() bool
}

// drain streams a result set to its end, taking a query call's two
// results as they come: drain(db.QueryLabeled(ctx, label, sql)).
func drain(rows rowSet, err error) (int64, bool, error) {
	if err != nil {
		return 0, false, err
	}
	defer rows.Close()
	var n int64
	for rows.Next() {
		n++
	}
	return n, rows.CacheHit(), rows.Err()
}

// dbRunner runs queries in-process; one DB serves any number of
// workers.
func dbRunner(db *dsdb.DB) runner {
	return func(ctx context.Context, label, sql string) (int64, bool, error) {
		return drain(db.QueryObserved(ctx, nil, label, sql))
	}
}

// dialRunners dials n wire sessions up front, one runner each, so
// measurement never includes connection setup. closeAll closes them.
func dialRunners(ctx context.Context, addr string, wait time.Duration, n int) (run []runner, closeAll func(), err error) {
	var dbs []*client.DB
	closeAll = func() {
		for _, db := range dbs {
			db.Close()
		}
	}
	for i := range n {
		db, err := dialReady(ctx, addr, wait)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("load: client %d: %w", i+1, err)
		}
		dbs = append(dbs, db)
		run = append(run, func(ctx context.Context, label, sql string) (int64, bool, error) {
			return drain(db.QueryLabeled(ctx, label, sql))
		})
	}
	return run, closeAll, nil
}

// lanes hands worker i the jobs of ls[i], in order, consuming ls.
func lanes(ls [][]job) func(i int) (job, bool) {
	return func(i int) (job, bool) {
		if len(ls[i]) == 0 {
			return job{}, false
		}
		j := ls[i][0]
		ls[i] = ls[i][1:]
		return j, true
	}
}

// queue hands the jobs of one schedule, in order, to whichever worker
// asks first.
func queue(js []job) func(int) (job, bool) {
	ch := make(chan job, len(js))
	for _, j := range js {
		ch <- j
	}
	close(ch)
	return func(int) (job, bool) {
		j, ok := <-ch
		return j, ok
	}
}

// sample is one measured query execution.
type sample struct {
	label    string
	rows     int64
	d        time.Duration
	recorded time.Duration
	hit      bool // served from the server's result cache
}

// drive runs one phase on len(run) workers: worker i runs the jobs
// next(i) hands it on run[i] until there are none left. A paced job
// waits until it is due and is timed from its due time, so a wait for
// a busy worker counts; an unpaced job is timed from its start. The
// first failure cancels every worker, and the error returned is the
// root cause, not the cancellations it induced. who names a worker in
// errors.
func drive(ctx context.Context, who string, run []runner, paced bool, next func(i int) (job, bool)) ([]sample, time.Duration, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	samples := make([][]sample, len(run))
	errs := make([]error, len(run))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range run {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j, ok := next(i); ok; j, ok = next(i) {
				from := time.Now()
				if paced {
					from = start.Add(j.due)
					select {
					case <-ctx.Done():
					case <-time.After(time.Until(from)):
					}
				}
				// A run cut short must say so: a clean summary of part
				// of it would pass for a complete one.
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				rows, hit, err := run[i](ctx, j.label, j.sql)
				if err != nil {
					errs[i] = fmt.Errorf("load: %s %d %s: %w", who, i+1, j.label, err)
					cancel()
					return
				}
				samples[i] = append(samples[i], sample{j.label, rows, time.Since(from), j.recorded, hit})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []sample
	var first error
	for i, err := range errs {
		if err != nil && (first == nil || errors.Is(first, context.Canceled) && !errors.Is(err, context.Canceled)) {
			first = err
		}
		all = append(all, samples[i]...)
	}
	return all, elapsed, first
}

// stats summarizes one set of samples.
type stats struct {
	label                    string
	count, hits              int
	rows                     int64
	lat, hit, miss, recorded Latency
}

func statsOf(label string, ss []sample) stats {
	s := stats{label: label, count: len(ss)}
	var lat, hit, miss, rec []time.Duration
	for _, sm := range ss {
		s.rows += sm.rows
		lat = append(lat, sm.d)
		rec = append(rec, sm.recorded)
		if sm.hit {
			s.hits++
			hit = append(hit, sm.d)
		} else {
			miss = append(miss, sm.d)
		}
	}
	s.lat, s.hit, s.miss, s.recorded = percentiles(lat), percentiles(hit), percentiles(miss), percentiles(rec)
	return s
}

// aggregate summarizes a run's samples: all of them, and each label's
// share in the order given.
func aggregate(all []sample, order func(a, b string) int) (stats, []stats) {
	byLabel := make(map[string][]sample)
	for _, sm := range all {
		byLabel[sm.label] = append(byLabel[sm.label], sm)
	}
	var per []stats
	for _, l := range slices.SortedFunc(maps.Keys(byLabel), order) {
		per = append(per, statsOf(l, byLabel[l]))
	}
	return statsOf("", all), per
}

// byQueryNumber orders "Q<n>" labels by n: Q2 before Q11.
func byQueryNumber(a, b string) int {
	return cmp.Or(cmp.Compare(len(a), len(b)), cmp.Compare(a, b))
}
