// Package analysis hosts dsdblint: a go/analysis suite that enforces
// the engine's concurrency and durability invariants statically, so
// the bug classes this codebase has already paid for once cannot come
// back silently.
//
// The suite is driven by cmd/dsdblint (a go vet -vettool), which runs
// the six custom analyzers below plus a curated set of vet passes
// (copylocks, atomic, unusedresult, lostcancel). Each invariant is
// declared once — the lock hierarchy lives in the lockrank table, the
// deleted names in the forbid table — and each analyzer ships an
// analyzer-test suite pinning both the violations it must catch and
// the legal idioms it must accept. `go test ./...` runs the whole
// suite over the module (cmd/dsdblint's TestModuleIsClean), so tier-1
// and CI enforce the same rules. go vet sees only the files that build
// for its target, so that test runs the suite for the host and again
// with GOOS=windows, which checks the !unix side of every build tag.
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
// wal.Writer Append/ResetTo/Close error must be consumed, and in
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
// forbid keeps deleted code deleted. Its table is where the guard for
// a name, import or package removed on purpose is declared: one row
// per guard, with the packages it covers, what they may not contain
// (a declared name, a package-level function, an import under any
// alias, a qualified object, a method selected through a field, or the
// package itself), the reason and the PR that removed it. Entries resolve through the type
// checker, so a comment naming a forbidden identifier passes and an
// aliased import does not. A new guard is a new row, not a grep in CI.
//
// # The module check
//
// One rule needs the whole module at once, which go/analysis, seeing
// one package at a time, cannot give: no exported name or method under
// internal/ may be used by tests alone. cmd/dsdblint runs it after the
// vet pass. It type-checks the non-test files of every package that
// `go list -deps -export -json ./...` reports and counts every use
// outside a name's own declaration, from bench/, cmd/ and examples/
// too. Methods that satisfy an interface are skipped, and so are
// packages named *test that no non-test package imports. The
// exceptions are the rows of allowTable in cmd/dsdblint/testonly.go,
// one per cross-package test seam with no production equivalent, each
// with its reason; a row whose name non-test code uses, or that names
// nothing, is itself a finding. A name deleted because only tests used
// it needs no forbid row: this check fails if it comes back unused.
//
// # Escape hatch
//
// A diagnostic is suppressed by a //lint:allow <analyzer> <reason>
// comment on the offending line, the line above it, or in the doc
// comment of the enclosing function. The reason is mandatory: a bare
// directive is itself reported, so every suppression in the tree
// documents why it is safe.
// forbid takes no such comment: its exceptions are except entries in
// its table, next to the rule they relax.
package analysis
