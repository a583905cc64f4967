package lockrank

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTableIsDAG pins the meta-invariant the whole suite leans on: the
// declared Before edges form a DAG, so "acquired out of order" is
// well-defined.
func TestTableIsDAG(t *testing.T) {
	order, err := validate()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(Table) {
		t.Fatalf("topological order has %d locks, table has %d", len(order), len(Table))
	}
	t.Logf("lock hierarchy (outermost first): %s", strings.Join(order, " -> "))
}

func TestMayAcquire(t *testing.T) {
	cases := []struct {
		held     string
		heldMode Mode
		next     string
		nextMode Mode
		want     bool
	}{
		{"engine.latch", Shared, "buffer.pool", Exclusive, true},
		{"engine.latch", Exclusive, "wal.writer", Exclusive, true},
		{"engine.closeMu", Exclusive, "storage.store", Exclusive, true}, // transitive via engine.latch
		{"buffer.pool", Exclusive, "storage.store", Exclusive, true},
		{"buffer.pool", Exclusive, "engine.latch", Shared, false}, // out of order
		{"storage.store", Exclusive, "buffer.pool", Exclusive, false},
		{"engine.latch", Shared, "engine.latch", Shared, true},        // reader-preferring: nested reads
		{"engine.latch", Shared, "engine.latch", Exclusive, false},    // read-to-write upgrade deadlocks
		{"engine.latch", Exclusive, "engine.latch", Exclusive, false}, // exclusive reentry deadlocks
		{"buffer.pool", Exclusive, "buffer.pool", Exclusive, false},
		{"server.mu", Exclusive, "server.qmu", Exclusive, true},  // Shutdown cancels per-conn queries
		{"server.qmu", Exclusive, "server.mu", Exclusive, false}, // reverse order deadlocks against Shutdown
		{"server.mu", Exclusive, "engine.latch", Shared, false},  // serving mutexes never wrap engine calls
		{"engine.latch", Shared, "obs.tracer", Exclusive, true},  // span finish may record under the tracer rings
		{"obs.tracer", Exclusive, "engine.latch", Shared, false}, // the tracer never re-enters the engine
	}
	for _, c := range cases {
		if got := MayAcquire(c.held, c.heldMode, c.next, c.nextMode); got != c.want {
			t.Errorf("MayAcquire(%s/%s -> %s/%s) = %v, want %v",
				c.held, c.heldMode, c.next, c.nextMode, got, c.want)
		}
	}
}

// TestEveryMutexBearingTypeIsRanked walks every non-test source file of
// the packages the hierarchy spans (internal/db/... plus the dsdb
// packages the table covers) and checks that each struct field of type
// sync.Mutex or sync.RWMutex belongs to a (type, field) pair declared
// in the table. A new lock added anywhere in the kernel fails this
// test until it is ranked — which is the point. The other direction
// holds too: every table entry declared in a walked package must name
// a mutex field (or, for a method-surface latch, a type) that exists,
// so a rank left behind by a deleted lock fails as well.
func TestEveryMutexBearingTypeIsRanked(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	roots := []string{
		filepath.Join(root, "internal", "db"),
		filepath.Join(root, "dsdb", "qcache"),
		filepath.Join(root, "dsdb", "server"),
		filepath.Join(root, "dsdb", "obs"),
		// wcap is mutex-free by design (atomics + one channel); walking
		// it keeps that true — any mutex added there must be ranked.
		filepath.Join(root, "dsdb", "wcap"),
		// So is the segment log under wcap and the WAL: its callers
		// bring the exclusion (wal.writer, the capture goroutine).
		filepath.Join(root, "internal", "seglog"),
	}
	// dsdb's own root package (not client/load: their mutexes guard
	// per-session protocol state on the dialing side and are outside
	// the hierarchy; the server's mutexes ARE ranked — Shutdown holds
	// server.mu across per-connection cancellation).
	dsdbFiles, err := filepath.Glob(filepath.Join(root, "dsdb", "*.go"))
	if err != nil {
		t.Fatal(err)
	}

	var files []string
	for _, r := range roots {
		err := filepath.WalkDir(r, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range dsdbFiles {
		if !strings.HasSuffix(p, "_test.go") {
			files = append(files, p)
		}
	}
	if len(files) == 0 {
		t.Fatal("found no kernel source files; wrong working directory?")
	}

	fset := token.NewFileSet()
	checked := 0
	// found holds every declared type ("pkg.Type") and mutex field
	// ("pkg.Type.field") of the walked packages.
	found := map[string]bool{}
	for _, p := range files {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkgPath := "repro/" + filepath.ToSlash(strings.TrimPrefix(filepath.Dir(p), root+string(os.PathSeparator)))
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			found[pkgPath+"."+ts.Name.Name] = true
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if !isSyncMutex(fld.Type) {
					continue
				}
				for _, name := range fld.Names {
					checked++
					found[pkgPath+"."+ts.Name.Name+"."+name.Name] = true
					if !ranked(pkgPath, ts.Name.Name, name.Name) {
						t.Errorf("%s: %s.%s (%s) is a mutex with no lockrank entry — add it to the table",
							fset.Position(fld.Pos()), ts.Name.Name, name.Name, pkgPath)
					}
				}
				if len(fld.Names) == 0 {
					t.Errorf("%s: %s embeds a bare mutex — name it and rank it", fset.Position(fld.Pos()), ts.Name.Name)
				}
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("found no mutex fields at all; the scan is broken")
	}
	for i := range Table {
		l := &Table[i]
		dir := filepath.Join(root, strings.TrimPrefix(l.Pkg, "repro/"))
		if !walkedDir(dir, roots, filepath.Join(root, "dsdb")) {
			continue
		}
		want := l.Pkg + "." + l.Type
		if l.Field != "" {
			want += "." + l.Field
		}
		if !found[want] {
			t.Errorf("lockrank entry %s names %s, which does not exist (or is not a mutex) — delete or fix the entry", l.Name, want)
		}
	}
	t.Logf("checked %d mutex fields across %d files", checked, len(files))
}

// walkedDir reports whether the scan covers package directory dir: it
// lies under one of roots, or is the single non-recursive package one.
func walkedDir(dir string, roots []string, one string) bool {
	if dir == one {
		return true
	}
	for _, r := range roots {
		if dir == r || strings.HasPrefix(dir, r+string(os.PathSeparator)) {
			return true
		}
	}
	return false
}

func isSyncMutex(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != "sync" {
		return false
	}
	return sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex"
}

func ranked(pkgPath, typ, field string) bool {
	for i := range Table {
		l := &Table[i]
		if l.PkgMatches(pkgPath) && l.Type == typ && l.Field == field {
			return true
		}
	}
	return false
}

// validate checks the table's internal consistency: unique names,
// resolvable Before edges, and acyclicity. It returns the locks in a
// topological order (outermost first) so the test can print
// the hierarchy, or an error naming the cycle.
func validate() ([]string, error) {
	seen := make(map[string]bool, len(Table))
	for i := range Table {
		l := &Table[i]
		if l.Name == "" || l.Pkg == "" || l.Type == "" {
			return nil, fmt.Errorf("lockrank: entry %d missing name/pkg/type", i)
		}
		if seen[l.Name] {
			return nil, fmt.Errorf("lockrank: duplicate lock name %q", l.Name)
		}
		seen[l.Name] = true
		if l.Field == "" && !l.Internal && len(l.AcquireExcl)+len(l.AcquireShared) == 0 {
			return nil, fmt.Errorf("lockrank: %s has neither a mutex field nor latch methods", l.Name)
		}
	}
	for i := range Table {
		for _, b := range Table[i].Before {
			if !seen[b] {
				return nil, fmt.Errorf("lockrank: %s: unknown Before edge %q", Table[i].Name, b)
			}
		}
	}
	// Kahn's algorithm: the edges must form a DAG.
	indeg := make(map[string]int, len(Table))
	for i := range Table {
		indeg[Table[i].Name] += 0
		for _, b := range Table[i].Before {
			indeg[b]++
		}
	}
	var queue, order []string
	for i := range Table { // table order keeps the result deterministic
		if indeg[Table[i].Name] == 0 {
			queue = append(queue, Table[i].Name)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, b := range ByName(n).Before {
			if indeg[b]--; indeg[b] == 0 {
				queue = append(queue, b)
			}
		}
	}
	if len(order) != len(Table) {
		var cyc []string
		for n, d := range indeg {
			if d > 0 {
				cyc = append(cyc, n)
			}
		}
		return nil, fmt.Errorf("lockrank: Before edges contain a cycle through %s", strings.Join(cyc, ", "))
	}
	return order, nil
}
