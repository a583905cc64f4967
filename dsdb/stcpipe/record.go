package stcpipe

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/dsdb"
	"repro/dsdb/client"
	"repro/dsdb/server"
	"repro/dsdb/wcap"
	"repro/internal/db/probe"
	"repro/internal/db/sql"
	"repro/internal/kernel"
	"repro/internal/program"
	"repro/internal/trace"
)

// Source is what Pipeline.Profile records: a Workload (one session
// running it once), or one of Concurrent, Served, Cached and Replayed.
// The set is sealed: every source reduces to the same plan, and one
// loop records every plan.
type Source interface {
	plan(db *dsdb.DB) (plan, error)
}

// step is one traced query execution: its trace mark and its text.
type step struct{ label, sql string }

// plan is what a Source reduces to.
type plan struct {
	// lanes are the step sequences recorded, each lane's steps in order
	// on a session of its own. The trace takes the lanes' segments
	// round-robin: lane 1's first step, lane 2's first step, ..., lane
	// 1's second step.
	lanes [][]step
	// split, when above 1, is how many sessions share the one lane of
	// a Workload (see sessionsFor), each taking the next step when it
	// finishes one; the trace still takes the steps in order.
	split int
	// warm starts with one serial untraced run of every distinct query,
	// so every page the plan touches is buffer-resident before tracing
	// begins. With a pool that holds the working set (true at the
	// paper's scale factors) every traced buffer access is then a hit
	// however the sessions interleave, and the same database options,
	// seed and plan always record the same profile.
	warm bool
	// wire runs each session as a wire client of an in-process server
	// instead of a goroutine calling the database.
	wire bool
}

// steps lists the workload's queries under their labels ("<name>-<i>"
// where the workload has none), each behind prefix.
func (w Workload) steps(prefix string) ([]step, error) {
	if len(w.Queries) == 0 {
		return nil, fmt.Errorf("stcpipe: workload %q has no queries", w.Name)
	}
	out := make([]step, len(w.Queries))
	for i, q := range w.Queries {
		label := fmt.Sprintf("%s-%d", w.Name, i+1)
		if i < len(w.Labels) {
			label = w.Labels[i]
		}
		out[i] = step{prefix + label, q}
	}
	return out, nil
}

// plan makes a Workload a Source: it runs once, its trace the steps in
// order. It is the only source whose profile Run can extend.
func (w Workload) plan(db *dsdb.DB) (plan, error) {
	steps, err := w.steps("")
	return plan{lanes: [][]step{steps}, split: sessionsFor(db, len(steps))}, err
}

type sessions struct {
	w      Workload
	n      int
	served bool
}

// Concurrent is a multi-session workload: n goroutines each run the
// whole workload serially against the shared db, every session
// recording into its own tracer (sessions are single-threaded; the
// database is not). The per-session traces are then interleaved at
// query boundaries, round-robin — session 1's first query, session
// 2's first query, ..., session 1's second query — modeling a DSS
// server context-switching between concurrent clients on one
// instruction stream. The merge is deterministic even though
// execution is not; the per-session traces themselves reflect true
// concurrent execution (buffer hits and misses depend on what the
// other sessions pulled into the pool). Marks carry the session:
// "s2-train-Q4".
//
// The profile is immutable (Run rejects it) but otherwise a
// first-class citizen of the pipeline: it can train layouts, be
// simulated, and be compared against its serial counterpart.
func Concurrent(w Workload, n int) Source { return sessions{w, n, false} }

// Served is the workload under served traffic: Profile stands up an
// in-process dsdb/server over db, connects n wire clients
// (dsdb/client), and has each client run the whole workload as a
// closed loop while the server records one kernel instruction trace
// per connection — the scenario cmd/dsdbd + cmd/dsload exercise, with
// tracing attached. The traces are interleaved and marked exactly
// like Concurrent's, modeling the server context-switching between
// remote clients on one instruction stream.
//
// The run starts with one serial untraced pass over the workload, so
// the same database options, seed and query mix always produce an
// identical merged profile — deterministic, like every other profile
// in the pipeline, and usable the same way: Layout to train, Simulate
// to replay. Like Concurrent's, the profile is immutable.
func Served(w Workload, n int) Source { return sessions{w, n, true} }

func (s sessions) plan(*dsdb.DB) (plan, error) {
	if s.n < 1 {
		return plan{}, fmt.Errorf("stcpipe: need at least 1 session, got %d", s.n)
	}
	pl := plan{warm: s.served, wire: s.served}
	for i := 1; i <= s.n; i++ {
		steps, err := s.w.steps(fmt.Sprintf("s%d-", i))
		if err != nil {
			return plan{}, err
		}
		pl.lanes = append(pl.lanes, steps)
	}
	return pl, nil
}

type cached struct {
	w      Workload
	rounds int
}

// Cached is a repeat-heavy workload against a database opened with
// dsdb.WithResultCache: one session runs the whole workload rounds
// times, marking every execution ("r2-train-Q4"), with the result
// cache answering repeats. The first round executes and fills the
// cache; later rounds are served from it — and a cache hit runs no
// executor, touches no buffer pool and emits no kernel
// instrumentation events, so its trace segment is empty. The profile
// therefore demonstrates the instruction-stream collapse the paper's
// premise implies: for a decision-support mix that repeats its
// queries, the cheapest instruction fetch is the one never issued.
// Use MarkStats to see the per-execution segment sizes.
//
// The database must carry a result cache; rounds must be at least 2
// (one fill pass, at least one hit pass). Writers running during the
// profile would turn hits back into misses — profile on a quiesced
// database, like every other source. The profile is immutable (Run
// rejects it) but trains layouts and simulates like any trace.
func Cached(w Workload, rounds int) Source { return cached{w, rounds} }

func (c cached) plan(db *dsdb.DB) (plan, error) {
	if db.ResultCache() == nil {
		return plan{}, fmt.Errorf("stcpipe: a Cached source needs a database opened with dsdb.WithResultCache")
	}
	if c.rounds < 2 {
		return plan{}, fmt.Errorf("stcpipe: a Cached source needs at least 2 rounds (fill + hit), got %d", c.rounds)
	}
	var all []step
	for r := 1; r <= c.rounds; r++ {
		steps, err := c.w.steps(fmt.Sprintf("r%d-", r))
		if err != nil {
			return plan{}, err
		}
		all = append(all, steps...)
	}
	return plan{lanes: [][]step{all}}, nil
}

type replayed []wcap.Record

// Replayed is a captured workload (dsdb/wcap records, as recorded by
// a server running with WithCapture / dsdbd -capture-dir): the
// capture's queries run again, grouped by their recorded session in
// recorded start order, one kernel trace per session, interleaved at
// query boundaries exactly like Concurrent and Served. Marks carry
// the recorded session id and label ("s7-train-Q4"), so the merged
// trace reads back to the capture. This closes the paper's loop on
// real traffic — Layout trains and Simulate replays the instruction
// stream of the workload a production server actually served, not a
// synthetic mix.
//
// Records whose recorded outcome was an error are skipped (nothing
// executed to trace), as are SHOW queries — server introspection that
// does not exist in-process. Sessions may hold unequal query counts
// (real captures are ragged). Like Served, the run starts with one
// serial untraced pass over every distinct query, so the merged
// profile is deterministic; it is immutable (Run rejects it).
func Replayed(recs []wcap.Record) Source { return replayed(recs) }

func (recs replayed) plan(*dsdb.DB) (plan, error) {
	var keep []wcap.Record
	for _, r := range recs {
		if _, show := sql.SplitShow(r.SQL); r.Err == wcap.OK && !show {
			keep = append(keep, r)
		}
	}
	if len(keep) == 0 {
		return plan{}, fmt.Errorf("stcpipe: capture has no replayable queries (%d records)", len(recs))
	}
	slices.SortStableFunc(keep, func(a, b wcap.Record) int {
		return cmp.Or(cmp.Compare(a.Session, b.Session), cmp.Compare(a.Offset, b.Offset))
	})
	pl := plan{warm: true}
	for i, r := range keep {
		if i == 0 || r.Session != keep[i-1].Session {
			pl.lanes = append(pl.lanes, nil)
		}
		steps := &pl.lanes[len(pl.lanes)-1]
		label := r.Label
		if label == "" {
			label = fmt.Sprintf("q%d", len(*steps)+1)
		}
		*steps = append(*steps, step{fmt.Sprintf("s%d-%s", r.Session, label), r.SQL})
	}
	return pl, nil
}

// sessionsFor returns how many sessions record a Workload of n steps
// on db. It is one per core, and no more than there are steps, when no
// step can change what another step's trace reads: every page of db is
// in its buffer pool, so no step misses or evicts, and db has no result
// cache to answer a step from another's result. Otherwise it is one,
// which runs the steps in order as the paper's serial run does.
func sessionsFor(db *dsdb.DB, n int) int {
	if db.ResultCache() != nil || !db.PoolResident() {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), n)
}

// at is where a step was recorded: the session and the session's mark.
type at struct{ ses, mark int }

// record runs a plan and returns its trace — base's events, if base is
// not nil, then the plan's segments in order (see merge) — and the
// counts of the sessions that recorded it. The warm-up pass runs
// first; then each session runs on a goroutine of its own, taking the
// next step of its lane, marking, running and checking it, until the
// lane is done or a session failed. A step that ran outside its
// session's trace (a wire client that had to redial, say) must not pass
// for a recorded one, so each session's marks are counted at the end.
// A lane split among several sessions is an error if any of them
// missed in the buffer pool: its trace could depend on what the others
// read. It returns the first failed session's error. The sessions
// record into chunks of the pipeline's storage, which takes them back
// once they are merged; a failed recording's are dropped, since a
// server that failed to drain may still write to them.
func (p *Pipeline) record(db *dsdb.DB, pl plan, base *trace.Trace) (*trace.Trace, []*kernel.Counts, error) {
	ctx := context.Background()
	if pl.warm {
		seen := make(map[string]bool)
		for _, steps := range pl.lanes {
			for _, st := range steps {
				if seen[st.sql] {
					continue
				}
				seen[st.sql] = true
				if err := drain(db.QueryObserved(ctx, nil, "", st.sql)); err != nil {
					return nil, nil, fmt.Errorf("stcpipe: warmup %s: %w", st.label, err)
				}
			}
		}
	}

	// lane[i] is the lane session i takes its steps from.
	var lane []int
	if pl.split > 1 {
		lane = make([]int, pl.split)
	} else {
		for l := range pl.lanes {
			lane = append(lane, l)
		}
	}
	recs := make([]*trace.Recorder, len(lane))
	sess := make([]*kernel.Session, len(lane))
	for i := range sess {
		recs[i] = p.store.Recorder(p.img.Prog, p.validate)
		sess[i] = p.img.NewSession(recs[i])
	}

	// The tracer is bound per call, so concurrent sessions each record
	// into their own. Over the wire the client only sends the step; the
	// server's session hook marks and traces it.
	run := func(i int, st step) error {
		sess[i].Mark(st.label)
		return drain(db.QueryObserved(ctx, sess[i], "", st.sql))
	}
	stop := func() error { return nil }
	if pl.wire {
		clients, stopServer, err := serve(db, sess)
		if err != nil {
			return nil, nil, err
		}
		stop = stopServer
		run = func(i int, st step) error {
			return drain(clients[i].QueryLabeled(ctx, st.label, st.sql))
		}
	}

	where := make([][]at, len(pl.lanes))
	for l, steps := range pl.lanes {
		where[l] = make([]at, len(steps))
	}
	next := make([]atomic.Int64, len(pl.lanes))
	marks := make([]int, len(sess))
	errs := make([]error, len(sess))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i, l := range lane {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				j := int(next[l].Add(1) - 1)
				if j >= len(pl.lanes[l]) {
					return
				}
				st := pl.lanes[l][j]
				err := run(i, st)
				if err == nil && sess[i].Err() != nil {
					err = fmt.Errorf("trace: %w", sess[i].Err())
				}
				if err != nil {
					errs[i] = fmt.Errorf("stcpipe: %s: %w", st.label, err)
					failed.Store(true)
					return
				}
				where[l][j] = at{i, marks[i]}
				marks[i]++
			}
		}()
	}
	wg.Wait()
	errs = append(errs, stop())
	for i, r := range recs {
		if got := len(r.Marks()); errs[i] == nil && got != marks[i] {
			errs[i] = fmt.Errorf("stcpipe: session %d recorded %d query marks, expected %d", i+1, got, marks[i])
		}
	}
	if err := cmp.Or(errs...); err != nil {
		return nil, nil, err
	}
	if pl.split > 1 {
		if n := misses(sess); n > 0 {
			return nil, nil, fmt.Errorf("stcpipe: %d buffer misses while %d sessions recorded one workload: a step's trace may depend on the others'", n, len(sess))
		}
	}
	var order []at
	for q, more := 0, true; more; q++ {
		more = false
		for l := range where {
			if q < len(where[l]) {
				order, more = append(order, where[l][q]), true
			}
		}
	}
	counts := make([]*kernel.Counts, len(sess))
	for i, s := range sess {
		counts[i] = s.Counts()
	}
	tr := merge(p.img.Prog, base, recs, order)
	for _, r := range recs {
		r.Release()
	}
	return tr, counts, nil
}

// misses returns how many buffer misses the sessions recorded.
func misses(sess []*kernel.Session) uint64 {
	var n uint64
	for _, s := range sess {
		c := s.Counts()
		for from := range c {
			n += uint64(c[from][probe.BufGetMiss])
		}
	}
	return n
}

// rowStream is what dsdb.Rows and client.Rows have in common.
type rowStream interface {
	Next() bool
	Err() error
	Close() error
}

// drain streams a query to completion, discarding rows — tracing only
// needs the execution, not the (possibly large) result set.
func drain(rows rowStream, err error) error {
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
	}
	return rows.Err()
}

// serve stands up an in-process server over db whose k-th connection
// records into sess[k-1], and dials one client per session, in order:
// the server numbers sessions in accept order, so client i is session
// i+1. stop closes the clients and drains the server; once it has
// returned nothing writes to sess any more.
func serve(db *dsdb.DB, sess []*kernel.Session) (clients []*client.DB, stop func() error, err error) {
	srv := server.New(db,
		server.WithMaxConns(len(sess)),
		server.WithSessionHooks(func(id int) server.SessionHooks {
			if id > len(sess) { // a redialed connection: untraced, so record's mark count fails
				return server.SessionHooks{}
			}
			return server.SessionHooks{Tracer: sess[id-1], OnQuery: sess[id-1].Mark}
		}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("stcpipe: served listener: %w", err)
	}
	go srv.Serve(ln)
	stop = func() error {
		for _, c := range clients {
			c.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
			return fmt.Errorf("stcpipe: served shutdown: %w", err)
		}
		return nil
	}
	for i := range sess {
		c, err := client.Dial(ln.Addr().String())
		if err == nil && int(c.SessionID()) != i+1 {
			err = fmt.Errorf("is server session %d", c.SessionID())
			c.Close()
		}
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("stcpipe: served client %d: %w", i+1, err)
		}
		clients = append(clients, c)
	}
	return clients, stop, nil
}

// segment is the block range recorded under mark q of t.
func segment(t *trace.Trace, q int) []program.BlockID {
	hi := len(t.Blocks)
	if q+1 < len(t.Marks) {
		hi = t.Marks[q+1].Pos
	}
	return t.Blocks[t.Marks[q].Pos:hi]
}

// merge builds a trace at its exact length: base's events and marks,
// if base is not nil, then the segments at order, one copy each. Every
// event a recorder holds must lie in one of the segments, as record's
// do: each session marks before it runs a step. merge panics
// otherwise, because the instruction count it adds up would be wrong.
func merge(prog *program.Program, base *trace.Trace, recs []*trace.Recorder, order []at) *trace.Trace {
	if base == nil {
		base = trace.New(prog)
	}
	n, instrs := base.Len(), base.Instrs
	for _, r := range recs {
		n += r.Len()
		instrs += r.Instrs()
	}
	out := trace.New(prog)
	out.Blocks = append(make([]program.BlockID, 0, n), base.Blocks...)
	out.Marks = append(make([]trace.Mark, 0, len(base.Marks)+len(order)), base.Marks...)
	out.Instrs = instrs
	for _, a := range order {
		r := recs[a.ses]
		marks := r.Marks()
		hi := r.Len()
		if a.mark+1 < len(marks) {
			hi = marks[a.mark+1].Pos
		}
		out.Marks = append(out.Marks, trace.Mark{Pos: len(out.Blocks), Label: marks[a.mark].Label})
		out.Blocks = r.AppendEvents(out.Blocks, marks[a.mark].Pos, hi)
	}
	if len(out.Blocks) != n {
		panic(fmt.Sprintf("stcpipe: the segments hold %d events, the sessions recorded %d", len(out.Blocks)-base.Len(), n-base.Len()))
	}
	return out
}

// MarkStat is the trace segment of one mark (one query execution):
// its label, and how many block events / dynamic instructions the
// execution recorded. A result-cache hit records zero of both.
type MarkStat struct {
	Label  string
	Blocks int
	Instrs uint64
}

// MarkStats slices the profile's trace at its marks, returning one
// segment per recorded query execution in trace order. It is how the
// cached-profile collapse is quantified (repeat rounds' segments are
// empty), but works on any profile with marks.
func (pr *Profile) MarkStats() []MarkStat {
	prog := pr.tr.Program()
	out := make([]MarkStat, 0, len(pr.tr.Marks))
	for q, m := range pr.tr.Marks {
		st := MarkStat{Label: m.Label, Blocks: len(segment(pr.tr, q))}
		for _, b := range segment(pr.tr, q) {
			st.Instrs += uint64(prog.Block(b).Size)
		}
		out = append(out, st)
	}
	return out
}
