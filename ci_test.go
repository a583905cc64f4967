package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCINamesMatchTests fails when a -run or -fuzz alternative in the
// CI workflow matches no test of its command's packages. go test
// passes a pattern that matches nothing ("no tests to run", "no fuzz
// tests to fuzz"), so a renamed test would leave its step checking
// nothing.
func TestCINamesMatchTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range unmatchedTestNames(t, string(ci)) {
		t.Error(msg)
	}
}

// TestCINameCheckReadsEveryPatternForm pins how a pattern is read: in
// each flag form, with grouped alternatives and subtest levels. A fuzz
// smoke step naming a target that does not exist must be reported.
func TestCINameCheckReadsEveryPatternForm(t *testing.T) {
	for _, tc := range []struct {
		line string
		want []string // the alternatives reported, in order
	}{
		{"go test -run=TestTakeTrace ./internal/fetch", nil},
		{"go test --run TestTakeTrace -fuzz=FuzzSimulate ./internal/fetch", nil},
		{"go test -test.run 'TestSeq3(WidthLimit|Nope)|TestTakeTrace' ./internal/fetch", nil},
		{"go test -run '^TestTakeTrace$/sub|x' ./internal/fetch", nil},
		{"go test -run=TestNope ./internal/fetch", []string{"TestNope"}},
		{"go test -run '^$' -fuzz '^FuzzNope$' -fuzztime 10s ./internal/fetch", []string{"^FuzzNope$"}},
		{"go test -fuzz=FuzzNope ./internal/fetch", []string{"FuzzNope"}},
		{"go test -fuzz TestTakeTrace ./internal/fetch", []string{"TestTakeTrace"}},
		{"go test -run 'TestTakeTrace|(TestA|TestB)/sub' ./internal/fetch", []string{"(TestA|TestB)"}},
		{"go test -run '[|/]|TestTakeTrace' ./internal/fetch", []string{"[|/]"}},
	} {
		msgs := unmatchedTestNames(t, tc.line)
		if len(msgs) != len(tc.want) {
			t.Errorf("%s: got %q, want %d messages", tc.line, msgs, len(tc.want))
			continue
		}
		for i, alt := range tc.want {
			if !strings.Contains(msgs[i], " alternative "+alt+" matches no test") {
				t.Errorf("%s: got %q, want it to name %s", tc.line, msgs[i], alt)
			}
		}
	}
}

// unmatchedTestNames returns a message for each alternative of a -run
// or -fuzz pattern, on a workflow line running go test, that matches
// no Test or Fuzz function (for -fuzz, no Fuzz function) declared in
// the packages that command names. "^$", which runs nothing, is
// skipped. A flag is read in every form go test takes: -run X,
// -run=X, --run X, -test.run X.
func unmatchedTestNames(t *testing.T, workflow string) []string {
	var msgs []string
	for _, line := range strings.Split(workflow, "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		args := strings.Fields(cmd)
		var funcs []string
		for i, arg := range args {
			name, pattern, hasValue := strings.Cut(strings.TrimLeft(arg, "-"), "=")
			name = strings.TrimPrefix(name, "test.")
			if !strings.HasPrefix(arg, "-") || name != "run" && name != "fuzz" {
				continue
			}
			if !hasValue {
				if i+1 == len(args) {
					t.Fatalf("go test %s: %s has no pattern", cmd, arg)
				}
				pattern = args[i+1]
			}
			if funcs == nil {
				funcs = testFuncs(t, args)
			}
			for _, alt := range topAlternatives(strings.Trim(pattern, `'"`)) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Fatalf("go test %s: %v", cmd, err)
				}
				if alt == "^$" || slices.ContainsFunc(funcs, func(fn string) bool {
					return re.MatchString(fn) && (name == "run" || strings.HasPrefix(fn, "Fuzz"))
				}) {
					continue
				}
				msgs = append(msgs, "go test "+cmd+": -"+name+" alternative "+alt+" matches no test")
			}
		}
	}
	return msgs
}

// topAlternatives returns the alternatives of a go test pattern's
// first element, the one top-level names are matched against. Like go
// test, it splits the pattern into elements, one per subtest level, at
// slashes outside brackets and parentheses; it splits the first
// element at bars outside them. A subtest element is not checked: its
// names exist only at run time.
func topAlternatives(pattern string) []string {
	var alts []string
	start, depth, inClass := 0, 0, false
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case inClass:
			inClass = c != ']'
		case c == '[':
			inClass = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case depth == 0 && c == '|':
			alts = append(alts, pattern[start:i])
			start = i + 1
		case depth == 0 && c == '/':
			return append(alts, pattern[start:i])
		}
	}
	return append(alts, pattern[start:])
}

// testFuncs lists the Test and Fuzz functions of the packages among
// args ("./dir" or "./dir/...").
func testFuncs(t *testing.T, args []string) []string {
	funcs := []string{}
	for _, arg := range args {
		dir, tree := strings.CutSuffix(arg, "/...")
		if !strings.HasPrefix(arg, "./") {
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != dir && (!tree || d.Name() == "vendor" || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil &&
					(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
					funcs = append(funcs, fd.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("listing the tests of %s: %v", arg, err)
		}
	}
	return funcs
}
