package dsdb

import (
	"sync"
	"sync/atomic"

	"repro/dsdb/obs"
)

// maxIdlePlans bounds the idle one-shot statements a DB keeps. A text
// has at most one idle statement per session that runs it at once, so
// the 12 TPC-D texts from GOMAXPROCS sessions (stcpipe records on one
// session per core) leave at most 12 × GOMAXPROCS idle, which 256
// covers on hosts of up to 21 cores. Past the bound the least recently
// returned statement is dropped, and its text compiles again when it
// next runs.
const maxIdlePlans = 256

// planPool keeps idle one-shot statements keyed by exact query text, so
// a repeated Query/Exec runs a plan compiled earlier instead of parsing
// and planning the text again. A statement leaves the pool while it
// runs and returns when its execution ends (Stmt.release). It is run
// again only while the write epoch of every table it reads equals the
// epoch it was compiled at: CreateTable, CreateIndex and Insert bump
// them, and the planner reads nothing else that changes (the catalog,
// and NumRows for join order), so a reused plan is the plan a fresh
// compile would build. Explicit Prepare statements never enter it.
// It is also the only map from a raw text to the result cache: a
// statement carries its canonical cache key, so a repeated text reaches
// its cached result without being parsed.
type planPool struct {
	mu sync.Mutex
	// idle maps a text to its most recently returned idle statement;
	// Stmt.older/newer chain that text's statements in return order.
	idle map[string]*Stmt
	// oldest and newest end the list of every idle statement in return
	// order (Stmt.prev/next); n counts it.
	oldest, newest *Stmt
	n              int

	compiled, reused, evicted atomic.Uint64
}

// take removes and returns the most recently returned idle statement
// for query, or nil. The caller checks that it is current.
func (p *planPool) take(query string) *Stmt {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.idle[query]
	if s != nil {
		p.unlink(s)
	}
	return s
}

// put returns a statement whose execution ended, evicting the least
// recently returned one when the pool is full.
func (p *planPool) put(s *Stmt) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n == maxIdlePlans {
		p.unlink(p.oldest)
		p.evicted.Add(1)
	}
	if p.idle == nil {
		p.idle = make(map[string]*Stmt)
	}
	s.older = p.idle[s.query]
	if s.older != nil {
		s.older.newer = s
	}
	p.idle[s.query] = s
	s.prev = p.newest
	if p.newest != nil {
		p.newest.next = s
	} else {
		p.oldest = s
	}
	p.newest = s
	p.n++
}

// unlink removes an idle statement from both lists.
func (p *planPool) unlink(s *Stmt) {
	if s.newer != nil {
		s.newer.older = s.older
	} else if s.older != nil {
		p.idle[s.query] = s.older
	} else {
		delete(p.idle, s.query)
	}
	if s.older != nil {
		s.older.newer = s.newer
	}
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		p.oldest = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		p.newest = s.prev
	}
	s.older, s.newer, s.prev, s.next = nil, nil, nil, nil
	p.n--
}

// oneShot returns a statement for one execution of query: an idle one
// compiled at the current epochs of every table it reads, or a fresh
// compile. Either way it returns to the pool when the execution ends.
// The epochs are checked under the shared engine latch, which is then
// dropped until execQuery takes it again — the same window a fresh
// compile leaves between planning and execution.
func (db *DB) oneShot(tr Tracer, query string) (*Stmt, error) {
	for s := db.plans.take(query); s != nil; s = db.plans.take(query) {
		release := db.eng.BeginRead()
		current := s.current()
		release()
		if current {
			db.plans.reused.Add(1)
			s.c.SetTracer(tr)
			return s, nil
		}
	}
	s, err := db.compile(tr, query)
	if err != nil {
		return nil, err
	}
	db.plans.compiled.Add(1)
	s.pool = &db.plans
	return s, nil
}

// current reports whether every table the statement reads is still at
// the write epoch it was compiled at. Called under the engine latch.
func (s *Stmt) current() bool {
	for i, t := range s.tables {
		if s.db.eng.TableEpoch(t) != s.epochs[i] {
			return false
		}
	}
	return true
}

// PlanStats is a snapshot of the one-shot plan pool's counters.
type PlanStats struct {
	// Idle is the number of statements waiting in the pool.
	Idle int
	// Compiled counts one-shot statements compiled because no current
	// idle one was there; Reused counts one-shot queries that took an
	// idle one, result-cache hits included (a hit takes the statement
	// for its cache key and returns it at once); Evicted counts idle
	// statements dropped to keep the pool bounded (a stale statement is
	// dropped uncounted and shows as a compile).
	Compiled, Reused, Evicted uint64
}

// PlanStats snapshots the plan pool's counters.
func (db *DB) PlanStats() PlanStats {
	p := &db.plans
	p.mu.Lock()
	idle := p.n
	p.mu.Unlock()
	return PlanStats{Idle: idle, Compiled: p.compiled.Load(),
		Reused: p.reused.Load(), Evicted: p.evicted.Load()}
}

// Section declares the plan pool's counters: SHOW plans, the plans_*
// stat pairs and the dsdb_plans_* series.
func (p PlanStats) Section() obs.Section {
	s := obs.Section{Name: "plans", Prom: "plans_"}
	s.Gauge("idle", int64(p.Idle))
	s.Counter("compiled", p.Compiled)
	s.Counter("reused", p.Reused)
	s.Counter("evicted", p.Evicted)
	return s
}
