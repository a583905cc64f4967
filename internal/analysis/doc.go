// Package analysis hosts dsdblint: a go/analysis suite that enforces
// the engine's concurrency and durability invariants statically, so
// the bug classes this codebase has already paid for once cannot come
// back silently.
//
// The suite is driven by cmd/dsdblint (a go vet -vettool), which runs
// the five custom analyzers below plus a curated set of vet passes
// (copylocks, atomic, unusedresult, lostcancel). Each invariant is
// declared once — the lock hierarchy lives in the lockrank table —
// and each analyzer ships an analyzer-test suite pinning both the
// violations it must catch and the legal idioms it must accept.
//
// # Analyzers
//
// lockorder enforces the latch acquisition order declared in
// lockrank.Table: engine close guard before the engine latch, the
// latch before the buffer pool's miss mutex, that before the storage
// leaf, and so on. It is interprocedural: every function exports a
// fact summarizing the ranked locks it may acquire through static
// calls, so an out-of-order acquisition buried in another package is
// attributed to the call site that committed it. It also flags
// exclusive reentry of the reader-preferring rwLatch — the PR 2
// deadlock — while accepting the documented shared-mode reentrancy.
//
// tracerlock forbids probe emission and calls through function values
// or interfaces while a NoTracer-ranked mutex (the buffer pool's miss
// mutex, the result cache) is held. A tracer is arbitrary user code;
// one that re-enters the pool deadlocks on the mutex its caller holds.
// This pins the PR 3 regression (tracer emission under the pool mutex)
// and the PR 4 one (the result cache running its epoch-validation
// callback inside its mutex).
//
// walcheck enforces the durability ground rules from PR 5: every
// wal.Writer Append/Sync/ResetTo/Close error must be consumed, and in
// the engine package every heap or catalog mutation must be dominated
// by a WAL log call or an explicit branch on the durability gate.
//
// unlockpath checks that every ranked-lock acquisition — including
// the custom rwLatch surface that vet knows nothing about — is
// released on every control-flow path out of the acquiring function,
// either by a deferred release or explicitly on each arm.
//
// ctxflow keeps cancellation intact in the request paths (dsdb,
// server, client, load, executor): no fresh context.Background()/
// TODO() roots except at annotated session boundaries, and no ctx
// parameter that arrives and is never used.
//
// # Escape hatch
//
// A diagnostic is suppressed by a //lint:allow <analyzer> <reason>
// comment on the offending line, the line above it, or in the doc
// comment of the enclosing function. The reason is mandatory: a bare
// directive is itself reported, so every suppression in the tree
// documents why it is safe.
package analysis
