// Package lockrank declares the engine's lock hierarchy as data: every
// latch and mutex in the kernel and its serving layers, the order in
// which they may be acquired, and the auxiliary invariants (no tracer
// emission, shared-mode reentrancy) that the dsdblint analyzers
// enforce mechanically.
//
// The table is the single source of truth. The lockorder analyzer
// derives its partial order from the Before edges; the tracerlock
// analyzer reads the NoTracer bit; the unlockpath analyzer tracks
// acquire/release method pairs; and the lockrank unit tests pin two
// meta-invariants — the edges form a DAG, and every mutex-bearing type
// under internal/db appears here — so a new lock cannot be added to
// the engine without ranking it.
package lockrank

import "path"

// Mode distinguishes shared from exclusive acquisition of a
// reader/writer lock. Plain mutexes only ever acquire Exclusive.
type Mode int

const (
	Exclusive Mode = iota
	Shared
)

func (m Mode) String() string {
	if m == Shared {
		return "shared"
	}
	return "exclusive"
}

// Lock is one ranked lock.
//
// A lock is identified structurally, not by annotation: either as a
// named mutex field of a named type (Type + Field, e.g. the buffer
// pool's Manager.mu), or as a custom latch type whose methods are the
// acquire/release surface (Type with AcquireExcl/AcquireShared/...
// method names, e.g. the engine's rwLatch). Pkg is the full import
// path of the declaring package; matching also accepts a bare package
// whose path equals the last element of Pkg, so analyzer testdata can
// declare stand-in types in packages named "engine", "buffer", ...
type Lock struct {
	// Name is the stable identity used in Before edges, diagnostics
	// and //lint:allow directives.
	Name string

	// Pkg is the import path of the declaring package.
	Pkg string

	// Type is the named type that carries the lock.
	Type string

	// Field names the sync.Mutex/sync.RWMutex field when the lock is
	// an ordinary mutex; empty for method-surface latches.
	Field string

	// Method-surface latches: names of the methods that acquire and
	// release each mode. Empty for mutex fields (which use the
	// standard Lock/RLock/Unlock/RUnlock surface).
	AcquireExcl   []string
	AcquireShared []string
	ReleaseExcl   []string
	ReleaseShared []string

	// Before lists the locks (by Name) that may be acquired while this
	// one is held. The transitive closure of these edges is the legal
	// acquisition order; anything else is a lockorder diagnostic.
	Before []string

	// SharedReentrant marks a lock whose shared mode may be reacquired
	// by a holder of the shared mode (the reader-preferring engine
	// latch: nested reads from an open result set are the documented
	// contract). Exclusive reacquisition is always a violation.
	SharedReentrant bool

	// NoTracer marks a lock under which no probe event may be emitted
	// and no caller-supplied callback may be invoked (the reentrant-
	// tracer deadlock class from PR 3/PR 4).
	NoTracer bool

	// Internal marks a lock that is the hidden implementation of a
	// method-surface latch declared elsewhere in the table (the
	// rwLatch's own mu). Internal locks are exempt from acquisition
	// tracking — their discipline is the latch methods' to keep — but
	// still count as "ranked" for the completeness test.
	Internal bool

	// Doc states the invariant and, where one exists, the historical
	// bug this rank pins.
	Doc string
}

// Table is the engine's lock hierarchy, outermost first. Order in the
// slice is documentation only; the partial order is the Before edges.
var Table = []Lock{
	{
		Name:   "server.mu",
		Pkg:    "repro/dsdb/server",
		Type:   "Server",
		Field:  "mu",
		Before: []string{"server.qmu"},
		Doc: "Server state mutex: connection registry, listener, drain flag. " +
			"Held while cancelling per-connection queries on forced shutdown, " +
			"so it ranks before server.qmu. Never held across engine calls or " +
			"frame writes — the serving layer sits above the kernel hierarchy.",
	},
	{
		Name:   "server.qmu",
		Pkg:    "repro/dsdb/server",
		Type:   "conn",
		Field:  "qmu",
		Before: nil,
		Doc: "Per-connection query-lifecycle mutex (qseen/qdone/pendingCancel " +
			"and the cancel func). A leaf; the read loop invokes the query's " +
			"context cancel under it by design — cancellation only flips a " +
			"channel, it never re-enters the engine — so it carries no " +
			"NoTracer bit.",
	},
	{
		Name:   "engine.closeMu",
		Pkg:    "repro/internal/db/engine",
		Type:   "DB",
		Field:  "closeMu",
		Before: []string{"engine.latch"},
		Doc: "Close/Abandon idempotence guard; taken before the engine latch " +
			"(Close checkpoints under the exclusive latch while holding it).",
	},
	{
		Name:          "engine.latch",
		Pkg:           "repro/internal/db/engine",
		Type:          "rwLatch",
		AcquireExcl:   []string{"lock"},
		AcquireShared: []string{"rlock"},
		ReleaseExcl:   []string{"unlock"},
		ReleaseShared: []string{"runlock"},
		Before: []string{
			"buffer.pool", "catalog.catalog", "storage.store",
			"wal.writer", "qcache.cache", "obs.tracer", "dsdb.plans",
		},
		SharedReentrant: true,
		Doc: "The engine latch: shared for query execution, exclusive for " +
			"Insert/DDL/Checkpoint. Reader-preferring by design (PR 2's " +
			"nested-read deadlock): shared reacquisition is legal, exclusive " +
			"reentry deadlocks.",
	},
	{
		Name:     "engine.latch.mu",
		Pkg:      "repro/internal/db/engine",
		Type:     "rwLatch",
		Field:    "mu",
		Internal: true,
		Doc: "The rwLatch's internal mutex; only the four latch methods may " +
			"touch it, so it is exempt from call-path tracking.",
	},
	{
		Name:     "buffer.pool",
		Pkg:      "repro/internal/db/buffer",
		Type:     "Manager",
		Field:    "mu",
		Before:   []string{"storage.store"},
		NoTracer: true,
		Doc: "The buffer pool's miss mutex: clock hand, victim claim, page-" +
			"table writes, miss count, flush registry — taken on the miss " +
			"path, and by a writer copying a viewed page; a hit takes no " +
			"lock. No tracer emission while held (PR 3's reentrant-tracer " +
			"deadlock); miss IO runs under the per-frame latch, not here.",
	},
	{
		Name:   "storage.store",
		Pkg:    "repro/internal/db/storage",
		Type:   "Store",
		Field:  "mu",
		Before: nil,
		Doc: "Storage manager page-table RWMutex; a leaf — page IO must not " +
			"call back up into pool, catalog or engine.",
	},
	{
		Name:   "catalog.catalog",
		Pkg:    "repro/internal/db/catalog",
		Type:   "Catalog",
		Field:  "mu",
		Before: nil,
		Doc:    "Catalog RWMutex; a leaf.",
	},
	{
		Name:   "wal.writer",
		Pkg:    "repro/internal/db/wal",
		Type:   "Writer",
		Field:  "mu",
		Before: nil,
		Doc: "WAL writer mutex serializing Append/Sync/ResetTo; a leaf — log " +
			"IO never re-enters the engine.",
	},
	{
		Name:     "qcache.cache",
		Pkg:      "repro/dsdb/qcache",
		Type:     "Cache",
		Field:    "mu",
		Before:   nil,
		NoTracer: true,
		Doc: "Result cache mutex. A leaf, and no caller-supplied callback may " +
			"run under it (PR 4's epoch-validation callback: validation now " +
			"happens outside the critical section).",
	},
	{
		Name:     "dsdb.plans",
		Pkg:      "repro/dsdb",
		Type:     "planPool",
		Field:    "mu",
		Before:   nil,
		NoTracer: true,
		Doc: "One-shot plan pool mutex (idle statements by text, return " +
			"order). A leaf: taking or returning a statement only relinks " +
			"lists. A one-shot query takes it with no latch held, but a " +
			"query nested in an open result set holds the engine latch " +
			"shared, so it ranks after engine.latch.",
	},
	{
		Name:     "obs.tracer",
		Pkg:      "repro/dsdb/obs",
		Type:     "Tracer",
		Field:    "mu",
		Before:   nil,
		NoTracer: true,
		Doc: "Observability tracer ring mutex (recent/slow query records). " +
			"A leaf: span finish runs after the engine latch is released, and " +
			"the caller-supplied slow-query logger is invoked strictly after " +
			"the rings are unlocked — no user code, probe emission or engine " +
			"re-entry under it.",
	},
}

// frame latch: the buffer pool's per-frame IO latch is a token channel
// of capacity one made with each frame (frame.ready), not a mutex, so
// it cannot be tracked by type. The loader takes the token under
// buffer.pool at the claim — it never waits there: an unpinned frame
// always has its token — and holds it across the evict-flush and the
// storage read, where it takes storage.store; a waiter takes it with no
// lock held and puts it straight back. Its place in the hierarchy
// (after buffer.pool, before storage.store) is enforced dynamically by
// the pool's loading/flushing protocol and documented here for the
// avoidance of doubt. The miss path's three IO probe events are emitted
// under it by design: it guards one frame, a tracer that re-enters the
// pool asks for other pages, and only ranked locks carry NoTracer.

// ByName returns the lock named n, or nil.
func ByName(n string) *Lock {
	for i := range Table {
		if Table[i].Name == n {
			return &Table[i]
		}
	}
	return nil
}

// PkgMatches reports whether a package path is the lock's declaring
// package: the full path, or a bare path equal to its last element
// (analyzer testdata stand-ins).
func (l *Lock) PkgMatches(pkgPath string) bool {
	return pkgPath == l.Pkg || pkgPath == path.Base(l.Pkg)
}

// reach is the transitive closure of Before, built on first use.
var reach map[string]map[string]bool

func closure() map[string]map[string]bool {
	if reach != nil {
		return reach
	}
	r := make(map[string]map[string]bool, len(Table))
	var visit func(from string, n string)
	visit = func(from, n string) {
		for _, b := range ByName(n).Before {
			if !r[from][b] {
				r[from][b] = true
				visit(from, b)
			}
		}
	}
	for i := range Table {
		r[Table[i].Name] = make(map[string]bool)
		visit(Table[i].Name, Table[i].Name)
	}
	reach = r
	return r
}

// MayAcquire reports whether a goroutine holding `held` (in heldMode)
// may acquire `next` (in nextMode): next must be strictly inner to
// held in the transitive order, or the same lock reacquired shared
// under SharedReentrant.
func MayAcquire(held string, heldMode Mode, next string, nextMode Mode) bool {
	if held == next {
		l := ByName(held)
		return l != nil && l.SharedReentrant && heldMode == Shared && nextMode == Shared
	}
	return closure()[held][next]
}
