// Package forbid defines an analyzer that keeps deleted code deleted.
//
// When a change removes a name, an import or a package on purpose —
// the buffer pool's lookup shards, a second recorder, a parallel scan
// path — the guard that stops it coming back is one row of the table
// below: the packages it applies to, what they may not contain, why,
// and the PR that made it so. Every entry is resolved through the type
// checker, so a comment that mentions a forbidden name never trips a
// rule and an import alias never hides from one.
package forbid

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "forbid",
	Doc:  "report names, imports and packages that were deleted on purpose",
	Run:  run,
}

// A rule forbids each of its entries in the packages of its scope.
// An entry is one of:
//
//	Name             declaring an object (type, func, var, field, method) so named
//	func Name        declaring a package-level function so named
//	"path"           importing the package, under any name
//	pkg.Name         declaring or referring to pkg's object Name
//	pkg.Type.M       declaring or selecting method M of pkg's named Type
//	pkg.Type.F.M     selecting M on field F of a Type value, whatever it is called
//	package          the package existing at all
//
// A scope entry is a package path or a tree, "path/..."; "..." is the
// module. A file is exempt if its path (package path and file name)
// starts or ends with an except entry.
type rule struct {
	scope  []string
	forbid []string
	except []string
	reason string
	pr     int // the PR that removed what the rule forbids
}

var table = []rule{
	{scope: []string{"repro/internal/db/buffer"}, forbid: []string{"shard", "shardOf", "numShards"}, pr: 33,
		reason: "a buffer hit takes no lock: it looks the page up in the atomic page table, which replaced the 64 mutex-guarded lookup shards"},
	{scope: []string{"..."}, forbid: []string{`"unsafe"`}, except: []string{"_test.go", "repro/internal/db/value/alias.go"}, pr: 35,
		reason: "decoded strings view page bytes through one helper, value.StrView; nothing else may use package unsafe"},
	{scope: []string{"repro/internal/experiments"}, forbid: []string{"package"}, pr: 23,
		reason: "the paper flow has one owner: every experiment is a stcpipe.SimulateGrid in stcpipe.Report"},
	{scope: []string{"..."}, forbid: []string{"ProfileConcurrent", "ProfileServed", "ProfileCached", "ProfileReplayed"}, pr: 23,
		reason: "Pipeline.Profile(db, source) is the only recorder"},
	{scope: []string{"repro/dsdb/...", "repro/cmd/...", "repro/examples/..."}, pr: 34,
		forbid: []string{"func Compare", "CompareParams", "CompareResult", "paperRow", "simulateRow", "simulateRows"},
		reason: "every paper table is a stcpipe.SimulateGrid literal; no driver keeps a loop of its own over layouts and caches"},
	{scope: []string{"..."}, except: []string{"repro/bench/"}, pr: 30,
		forbid: []string{"ParallelScan", "BeginRangeScan", "WithParallelism", "WorkerProbeEvents", "WorkerTracer", "Parallelism"},
		reason: "one query runs on one goroutine; only bench still calls the no-op DB.SetParallelism"},
	{scope: []string{"repro/internal/db/..."}, forbid: []string{"repro/internal/db/executor.Ctx.Tr.Emit", "repro/internal/db/probe.Or"}, pr: 31,
		reason: "an execution decides once whether it records: emit through Ctx.emit, or probe.Emit on what probe.Resolve returned"},
	{scope: []string{"..."}, forbid: []string{"takeByAddr", "repro/internal/program.Layout.Validate"}, pr: 44,
		reason: "a layout is checked where it is made (program.NewLayoutFromOrder, NewLayoutFromAddrs): nothing re-checks one, and fetch keeps no path for overlapping blocks"},
	{scope: []string{"..."}, pr: 45,
		forbid: []string{"repro/internal/cache.Partial", "repro/internal/cache.ICache.Clone", "repro/internal/cache.ICache.Copy", "repro/internal/cache.ICache.Equal",
			"repro/internal/cache.SetAssoc.Clone", "repro/internal/cache.SetAssoc.Copy", "repro/internal/cache.SetAssoc.Equal",
			"repro/internal/cache.Victim.Clone", "repro/internal/cache.Victim.Copy", "repro/internal/cache.Victim.Equal",
			"repro/internal/cache.DirectMapped.Equal"},
		reason: "fetch splits a walk only over an ideal or direct-mapped i-cache and joins it through DirectMapped's own methods; an ICache is Access, Reset and LineBytes"},
	{scope: []string{"repro/internal/cache"}, except: []string{"_test.go"}, forbid: []string{"sameLRU", "rank"}, pr: 45,
		reason: "no production code compares LRU states; the comparison is a test helper in icache_test.go"},
	{scope: []string{"..."}, pr: 45,
		forbid: []string{"repro/internal/fetch.DefaultConfig", "repro/internal/cache.TraceCache.MaxInstrs", "repro/internal/cache.TraceCache.MaxBranches",
			"repro/dsdb/stcpipe.FetchConfig.ways"},
		reason: "the fetch unit is SEQ.3 and a trace-cache line is 16 instructions and 3 branches, each one constant; a FetchConfig field the caches would not use is an error, not dropped"},
	{scope: []string{"repro/internal/fetch", "repro/dsdb/stcpipe"}, forbid: []string{"Width", "MaxBranches", "MaxLines", "MissPenalty", "LineBytes"}, pr: 45,
		reason: "fetch.Config is the caches alone: the SEQ.3 shape is fetch's constants, and the line size is the i-cache's own"},
	{scope: []string{"..."}, forbid: []string{"repro/internal/db/executor.Slab.CopyCols", "repro/internal/db/executor.Slab.Rows"},
		reason: "Sort, Material and the hash-join build keep rows in the executor's rowStore, as typed payloads; a Slab copies whole rows as Values for the result-cache fill only"},
	{scope: []string{"..."}, forbid: []string{"repro/dsdb/qcache.Cache.GetRaw", "repro/dsdb/qcache.Cache.AddAlias"},
		reason: "the result cache has one key space, the canonical key of a compiled statement; a repeated text reaches it through its pooled plan"},
	{scope: []string{"repro/dsdb/qcache"}, forbid: []string{"maxAliases", "aliasOverhead"},
		reason: "a cache entry has no second names, so nothing is capped or charged for them"},
	{scope: []string{"repro/dsdb"}, forbid: []string{"cachedQuery"},
		reason: "a one-shot query is a pooled statement: QueryObserved takes one and executes it, and execQuery alone probes the result cache"},
}

func run(pass *analysis.Pass) (any, error) {
	pkg := strings.TrimSuffix(pass.Pkg.Path(), "_test")
	for _, f := range pass.Files {
		file := pkg + "/" + filepath.Base(pass.Fset.File(f.Pos()).Name())
		var rules []rule
		for _, r := range table {
			if r.covers(pkg, file) {
				rules = append(rules, r)
			}
		}
		if len(rules) == 0 {
			continue
		}
		report := func(n ast.Node, key string) {
			for _, r := range rules {
				if slices.Contains(r.forbid, key) {
					pass.Reportf(n.Pos(), "%s is forbidden here: %s (since PR %d)", key, r.reason, r.pr)
				}
			}
		}
		report(f.Name, "package")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				if p, err := strconv.Unquote(n.Path.Value); err == nil {
					report(n, strconv.Quote(p))
				}
			case *ast.Ident:
				if obj := pass.TypesInfo.Defs[n]; obj != nil {
					report(n, obj.Name())
					if key := methodKey(obj); key != "" {
						report(n, key)
					}
					if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
						report(n, obj.Pkg().Path()+"."+obj.Name())
						if _, ok := obj.(*types.Func); ok {
							report(n, "func "+obj.Name())
						}
					}
				}
			case *ast.SelectorExpr:
				if key := selectorKey(pass.TypesInfo, n); key != "" {
					report(n, key)
				}
				if sel := pass.TypesInfo.Selections[n]; sel != nil {
					if key := methodKey(sel.Obj()); key != "" {
						report(n, key)
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// selectorKey names what a selector reaches: "pkg.Name" for a
// qualified identifier, "pkg.Type.F.M" for M selected on field F.
func selectorKey(info *types.Info, s *ast.SelectorExpr) string {
	switch x := s.X.(type) {
	case *ast.Ident:
		if pn, ok := info.Uses[x].(*types.PkgName); ok {
			return pn.Imported().Path() + "." + s.Sel.Name
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			return types.TypeString(recv, nil) + "." + x.Sel.Name + "." + s.Sel.Name
		}
	}
	return ""
}

// methodKey names a method of a named type "pkg.Type.M", and is ""
// for any other object.
func methodKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil {
		return ""
	}
	recv := fn.Signature().Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
}

func (r *rule) covers(pkg, file string) bool {
	for _, e := range r.except {
		if strings.HasPrefix(file, e) || strings.HasSuffix(file, e) {
			return false
		}
	}
	for _, s := range r.scope {
		if tree, ok := strings.CutSuffix(s, "..."); ok && strings.HasPrefix(pkg+"/", tree) || s == pkg {
			return true
		}
	}
	return false
}
