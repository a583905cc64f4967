// Package walcheck defines an analyzer that enforces the durability
// subsystem's two ground rules (PR 5).
//
// First, WAL writer errors are load-bearing: a dropped error from
// Append, ResetTo or Close silently un-commits work the caller
// believes durable. Every such call must consume its error — no bare
// expression statements, no blank assignment, no `go`/`defer` that
// discards the result.
//
// Second, write-ahead means write-ahead: in the engine package, a heap
// or catalog mutation (Heap.Insert/InsertTuple, Catalog.AddTable/
// AddIndex) must be dominated — on every control-flow path from
// function entry — by either a WAL log call (wal.Writer.Append, the
// engine's logRecord helper) or an explicit branch on the engine's
// durability gate (the `durable`/`logging` fields), which is how the
// legitimately-unlogged paths (memory mode, recovery replay, bulk
// load) mark themselves. Recovery code that rebuilds state from a
// manifest carries a function-scope //lint:allow with its reason.
package walcheck

import (
	"go/ast"
	"go/types"
	"path"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
	"golang.org/x/tools/go/types/typeutil"

	"repro/internal/analysis/lintutil"
)

const name = "walcheck"

const (
	walPkg     = "repro/internal/db/wal"
	enginePkg  = "repro/internal/db/engine"
	accessPkg  = "repro/internal/db/access"
	catalogPkg = "repro/internal/db/catalog"
)

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "check WAL error handling and write-ahead ordering of engine mutations",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

func pkgMatches(p *types.Package, full string) bool {
	return p != nil && (p.Path() == full || p.Path() == path.Base(full))
}

// walWriterCall reports whether call is a method call on wal.Writer
// whose error must be consumed.
func walWriterCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn, ok := typeutil.Callee(info, call).(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return "", false
	}
	switch fn.Name() {
	case "Append", "ResetTo", "Close":
	default:
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Writer" || !pkgMatches(named.Obj().Pkg(), walPkg) {
		return "", false
	}
	return fn.Name(), true
}

// mutationCall reports whether call mutates the heap or catalog: the
// calls the write-ahead rule protects.
func mutationCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn, ok := typeutil.Callee(info, call).(*types.Func)
	if !ok {
		return "", false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", false
	}
	tn, pkg := named.Obj().Name(), named.Obj().Pkg()
	switch {
	case tn == "Heap" && pkgMatches(pkg, accessPkg) && (fn.Name() == "Insert" || fn.Name() == "InsertTuple"):
		return "Heap." + fn.Name(), true
	case tn == "Catalog" && pkgMatches(pkg, catalogPkg) && (fn.Name() == "AddTable" || fn.Name() == "AddIndex"):
		return "Catalog." + fn.Name(), true
	}
	return "", false
}

// logMarker reports whether node n contains a write-ahead marker: a
// WAL append, a call to a log helper (a function whose name starts
// with "log", like the engine's logRecord), or a read of the
// durability gate fields (`durable`, `logging`) — the idiom the
// engine's legitimately-unlogged branches are built on.
func logMarker(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn, ok := typeutil.Callee(info, n).(*types.Func); ok {
				if fn.Name() == "Append" {
					if _, ok := walWriterCall(info, n); ok {
						found = true
						return false
					}
				}
				if len(fn.Name()) >= 3 && fn.Name()[:3] == "log" {
					found = true
					return false
				}
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "durable" || n.Sel.Name == "logging" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	allow := lintutil.NewAllower(pass, name)

	// Part 1, everywhere: WAL writer errors must be consumed.
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		method, ok := walWriterCall(pass.TypesInfo, call)
		if !ok {
			return true
		}
		parent := stack[len(stack)-2]
		switch p := parent.(type) {
		case *ast.ExprStmt:
			allow.Reportf(call.Pos(), "wal.Writer.%s error is discarded: an unchecked log write silently un-commits durable work", method)
		case *ast.GoStmt, *ast.DeferStmt:
			allow.Reportf(call.Pos(), "wal.Writer.%s error is unreachable in a %T: check and propagate it", method, p)
		case *ast.AssignStmt:
			// Single call on the RHS: the last LHS position receives the
			// error; blank means discarded.
			if len(p.Rhs) == 1 && p.Rhs[0] == call && len(p.Lhs) > 0 {
				if id, ok := p.Lhs[len(p.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
					allow.Reportf(call.Pos(), "wal.Writer.%s error is assigned to _: check and propagate it", method)
				}
			}
		}
		return true
	})

	// Part 2, engine packages only: mutations must be dominated by a
	// write-ahead marker.
	if !pkgMatches(pass.Pkg, enginePkg) {
		return nil, nil
	}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		g := cfgs.FuncDecl(fd)
		if g == nil || len(g.Blocks) == 0 {
			return
		}
		checkDominance(pass, allow, g)
	})
	return nil, nil
}

// checkDominance runs a forward may-analysis over the CFG: a block is
// "unlogged-reachable" if some path from entry reaches it without
// passing a write-ahead marker. A mutation executed in that state is a
// violation. Within a block, nodes are processed in order, so a marker
// earlier in the same block covers a mutation later in it.
func checkDominance(pass *analysis.Pass, allow *lintutil.Allower, g *cfg.CFG) {
	n := len(g.Blocks)
	unloggedIn := make([]bool, n)
	inQueue := make([]bool, n)
	reported := make(map[*ast.CallExpr]bool)

	entry := g.Blocks[0]
	unloggedIn[entry.Index] = true
	queue := []*cfg.Block{entry}
	inQueue[entry.Index] = true

	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		inQueue[b.Index] = false

		unlogged := unloggedIn[b.Index]
		for _, node := range b.Nodes {
			if unlogged {
				// Mutations first: a marker inside the same statement
				// (e.g. `if err := db.logRecord(...)`) precedes any
				// mutation in a later statement, but a mutation and a
				// marker in one statement means the mutation ran first
				// only if it is syntactically inner; keep it simple and
				// let the marker win only for earlier statements.
				ast.Inspect(node, func(x ast.Node) bool {
					call, ok := x.(*ast.CallExpr)
					if !ok {
						return true
					}
					if what, ok := mutationCall(pass.TypesInfo, call); ok && !reported[call] {
						reported[call] = true
						allow.Reportf(call.Pos(), "%s mutates durable state on a path with no preceding WAL log call or durability gate: log before applying (write-ahead rule)", what)
					}
					return true
				})
			}
			if unlogged && logMarker(pass.TypesInfo, node) {
				unlogged = false
			}
		}
		if unlogged {
			for _, s := range b.Succs {
				if !unloggedIn[s.Index] {
					unloggedIn[s.Index] = true
					if !inQueue[s.Index] {
						queue = append(queue, s)
						inQueue[s.Index] = true
					}
				}
			}
		}
	}
}
