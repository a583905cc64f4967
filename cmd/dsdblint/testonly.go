package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// An allowed name is exported from internal/ although only tests use
// it: a seam that tests in other packages need and production code has
// no equivalent for. Name is "pkgpath.Name" or "pkgpath.Type.Method".
type allowed struct {
	name   string
	reason string
}

var allowTable = []allowed{
	{"repro/internal/db/storage.Store.InjectReadError",
		"dsdb tests fail the reads under a running query without unmapping a generation"},
	{"repro/internal/db/storage.Store.Reads",
		"buffer tests count the storage reads a miss costs"},
	{"repro/internal/db/buffer.Manager.Lookups",
		"access and dsdb tests count the page requests that reach the pool's page table"},
	{"repro/internal/db/probe.NewCountingTracer",
		"executor and dsdb tests count the probe events a query emits"},
	{"repro/internal/db/probe.CountingTracer.Count",
		"reads one probe's count from the counting tracer"},
	{"repro/internal/db/wal.Segments",
		"dsdb's recovery tests find the live segment to cut at record boundaries"},
	{"repro/internal/db/wal.ScanSegment",
		"dsdb's recovery tests read the offset each record ends at"},
}

// testOnly type-checks the non-test files of every package of the
// module that contains dir, for the GOOS and GOARCH in env, and
// returns a finding for each exported package-level name or method
// under the module's internal/ tree that no non-test file uses. It
// skips methods that satisfy an interface, packages named *test that
// no non-test package imports, and the names in allow; an allow row
// that names nothing, or something non-test code uses, is a finding.
func testOnly(dir string, env []string, allow []allowed) ([]string, error) {
	gomod, err := goCmd(dir, env, "env", "GOMOD")
	if err != nil {
		return nil, err
	}
	root := filepath.Dir(strings.TrimSpace(string(gomod)))
	out, err := goCmd(root, env, "list", "-deps", "-export", "-json", "./...")
	if err != nil {
		return nil, err
	}
	type listed struct {
		ImportPath, Name, Dir, Export string
		GoFiles, Imports              []string
		Module                        *struct {
			Path string
			Main bool
		}
	}
	var mod []*listed
	exports := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		if p.Module != nil && p.Module.Main {
			mod = append(mod, p)
		} else {
			exports[p.ImportPath] = p.Export
		}
	}
	if len(mod) == 0 {
		return nil, fmt.Errorf("go list: no packages in %s", root)
	}
	internal := mod[0].Module.Path + "/internal/"

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	}).(types.ImporterFrom)
	// Each declaration's extent and each receiver's identifiers: a use
	// inside its own declaration (a recursive call) or as a receiver
	// keeps nothing alive.
	decl := make(map[types.Object][2]token.Pos)
	recv := make(map[*ast.Ident]bool)
	checked := make(map[string]*types.Package)
	importedBy := make(map[string]bool)
	var infos []*types.Info
	for _, p := range mod { // go list -deps puts dependencies first
		var pfiles []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pfiles = append(pfiles, f)
		}
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if pkg, ok := checked[path]; ok {
				return pkg, nil
			}
			return gc.ImportFrom(path, p.Dir, 0)
		})}
		pkg, err := conf.Check(p.ImportPath, fset, pfiles, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		for _, imp := range p.Imports {
			importedBy[imp] = true
		}
		infos = append(infos, info)
		for _, f := range pfiles {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decl[info.Defs[d.Name]] = [2]token.Pos{d.Pos(), d.End()}
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recv[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decl[info.Defs[s.Name]] = [2]token.Pos{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								decl[info.Defs[n]] = [2]token.Pos{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}

	testHelper := func(p *listed) bool {
		return strings.HasSuffix(p.Name, "test") && !importedBy[p.ImportPath]
	}

	// The candidates: exported names and methods of internal/ packages.
	names := make(map[types.Object]string)
	for _, p := range mod {
		pkg := checked[p.ImportPath]
		if !strings.HasPrefix(p.ImportPath+"/", internal) || testHelper(p) {
			continue
		}
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				names[obj] = p.ImportPath + "." + n
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for m := range it.ExplicitMethods() {
					if m.Exported() {
						names[m] = p.ImportPath + "." + n + "." + m.Name()
					}
				}
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for m := range named.Methods() {
					if m.Exported() {
						names[m] = p.ImportPath + "." + n + "." + m.Name()
					}
				}
			}
		}
	}
	used := make(map[types.Object]bool)
	for i, info := range infos {
		if testHelper(mod[i]) {
			continue
		}
		for id, obj := range info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin() // a method of an instantiated generic type
			}
			if _, ok := names[obj]; !ok || used[obj] || recv[id] {
				continue
			}
			if span, ok := decl[obj]; ok && span[0] <= id.Pos() && id.Pos() < span[1] {
				continue
			}
			used[obj] = true
		}
	}

	// Every interface in sight, by method name: the named ones of each
	// package the module reaches and the literal ones its code spells.
	ifaces := make(map[string][]*types.Interface)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for m := range it.Methods() {
				ifaces[m.Name()] = append(ifaces[m.Name()], it)
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range checked {
		walk(pkg)
	}
	for _, info := range infos {
		for _, tv := range info.Types {
			if tv.IsType() {
				if _, named := tv.Type.(*types.Named); !named {
					addIface(tv.Type)
				}
			}
		}
	}
	satisfies := func(m *types.Func) bool {
		recv := m.Signature().Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, it := range ifaces[m.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	byName := make(map[string]types.Object, len(names))
	for obj, n := range names {
		byName[n] = obj
	}
	allowedNames := make(map[string]bool)
	var findings []string
	for _, a := range allow {
		allowedNames[a.name] = true
		switch obj, ok := byName[a.name]; {
		case !ok:
			findings = append(findings, fmt.Sprintf("allow row %s: no such exported name under %s", a.name, internal))
		case used[obj]:
			findings = append(findings, fmt.Sprintf("%s: allow row %s: non-test code uses it; delete the row", fset.Position(obj.Pos()), a.name))
		}
	}
	for obj, n := range names {
		if used[obj] || allowedNames[n] {
			continue
		}
		if m, ok := obj.(*types.Func); ok && m.Signature().Recv() != nil && !types.IsInterface(m.Signature().Recv().Type()) && satisfies(m) {
			continue
		}
		findings = append(findings, fmt.Sprintf("%s: %s is exported but only tests use it", fset.Position(obj.Pos()), n))
	}
	sort.Strings(findings)
	return findings, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func goCmd(dir string, env []string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = env
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out, nil
}
