// dsdblint statically enforces the engine's concurrency and
// durability invariants: the lock-rank acquisition order, the
// no-tracer-under-pool-mutex rule, WAL error handling and write-ahead
// ordering, release-on-all-paths for the custom latch surface,
// context propagation in the request paths, and the forbid table of
// names, imports and packages deleted on purpose — plus a curated set
// of vet passes (copylocks, atomic, unusedresult, lostcancel). After
// the vet pass it runs one whole-module check: no exported name under
// internal/ that only tests use (testonly.go). TestModuleIsClean runs
// all of it over the module, for the host and for windows, so
// `go test ./...` enforces it too.
//
// Usage:
//
//	dsdblint [-fix] ./...
//
// The binary is dual-mode. Invoked with package patterns, it re-execs
// `go vet -vettool=<self> <patterns>`, which gives it the build
// system's package loading and per-package fact caching for free (the
// analysis results land in GOCACHE, so unchanged packages are not
// re-analyzed). When go vet calls it back per compilation unit, it
// speaks the unitchecker protocol (-V=full, -flags, <unit>.cfg).
//
// With -fix, diagnostics that carry a suggested fix (currently
// ctxflow's use-the-ctx-parameter rewrite) are applied to the source
// in place; remaining diagnostics are printed and the exit status is
// nonzero only if any survive.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/atomic"
	"golang.org/x/tools/go/analysis/passes/copylock"
	"golang.org/x/tools/go/analysis/passes/lostcancel"
	"golang.org/x/tools/go/analysis/passes/unusedresult"
	"golang.org/x/tools/go/analysis/unitchecker"

	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/forbid"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/tracerlock"
	"repro/internal/analysis/unlockpath"
	"repro/internal/analysis/walcheck"
)

// suite is the full analyzer set: the six invariant checkers plus
// the vet passes worth running on a lock-heavy storage engine.
var suite = []*analysis.Analyzer{
	lockorder.Analyzer,
	tracerlock.Analyzer,
	walcheck.Analyzer,
	unlockpath.Analyzer,
	ctxflow.Analyzer,
	forbid.Analyzer,
	copylock.Analyzer,
	atomic.Analyzer,
	unusedresult.Analyzer,
	lostcancel.Analyzer,
}

func main() {
	// go vet speaks to its vettool in three shapes; any of them means
	// we are the callee, not the driver.
	for _, arg := range os.Args[1:] {
		if strings.HasPrefix(arg, "-V=") || arg == "-flags" || strings.HasSuffix(arg, ".cfg") {
			unitchecker.Main(suite...) // does not return
		}
	}
	os.Exit(drive(os.Args[1:]))
}

func drive(args []string) int {
	fs := flag.NewFlagSet("dsdblint", flag.ExitOnError)
	fix := fs.Bool("fix", false, "apply suggested fixes to source files")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dsdblint [-fix] <package patterns>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsdblint:", err)
		return 2
	}

	var code int
	if *fix {
		code = driveFix(exe, patterns)
	} else {
		code = vet(exe, patterns)
	}
	findings, err := testOnly(".", os.Environ(), allowTable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsdblint:", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if code == 0 && len(findings) > 0 {
		code = 1
	}
	return code
}

func vet(exe string, patterns []string) int {
	cmd := exec.Command("go", "vet", "-vettool="+exe)
	cmd.Args = append(cmd.Args, patterns...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintln(os.Stderr, "dsdblint:", err)
		return 2
	}
	return 0
}

// jsonDiagnostic mirrors analysisflags's JSON output shape, the wire
// format of `go vet -json`.
type jsonDiagnostic struct {
	Posn           string             `json:"posn"`
	Message        string             `json:"message"`
	SuggestedFixes []jsonSuggestedFix `json:"suggested_fixes"`
}

type jsonSuggestedFix struct {
	Message string         `json:"message"`
	Edits   []jsonTextEdit `json:"edits"`
}

// jsonTextEdit's Start and End are byte offsets within Filename.
type jsonTextEdit struct {
	Filename string `json:"filename"`
	Start    int    `json:"start"`
	End      int    `json:"end"`
	New      string `json:"new"`
}

func driveFix(exe string, patterns []string) int {
	cmd := exec.Command("go", "vet", "-vettool="+exe, "-json")
	cmd.Args = append(cmd.Args, patterns...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	runErr := cmd.Run()

	// Both streams may carry output: JSON objects interleaved with
	// `# pkg` comment lines. Strip the comments, then decode the
	// object stream: pkgpath -> analyzer -> diagnostics.
	var jsonText bytes.Buffer
	for _, stream := range [][]byte{out.Bytes(), errb.Bytes()} {
		sc := bufio.NewScanner(bytes.NewReader(stream))
		sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "#") {
				continue
			}
			jsonText.WriteString(sc.Text())
			jsonText.WriteByte('\n')
		}
	}
	dec := json.NewDecoder(bytes.NewReader(jsonText.Bytes()))
	var all []jsonDiagnostic
	decoded := false
	for dec.More() {
		var unit map[string]map[string][]jsonDiagnostic
		if err := dec.Decode(&unit); err != nil {
			break
		}
		decoded = true
		for _, byAnalyzer := range unit {
			for _, diags := range byAnalyzer {
				all = append(all, diags...)
			}
		}
	}
	if runErr != nil && !decoded {
		// The vet run failed before producing analysis output: a build
		// error, most likely. Show it verbatim.
		os.Stderr.Write(errb.Bytes())
		fmt.Fprintln(os.Stderr, "dsdblint:", runErr)
		return 2
	}

	remaining := applyFixes(all)
	for _, d := range remaining {
		fmt.Fprintf(os.Stderr, "%s: %s\n", d.Posn, d.Message)
	}
	if len(remaining) > 0 {
		return 1
	}
	return 0
}

// applyFixes applies each diagnostic's first suggested fix and
// returns the diagnostics that had none. Edits are applied per file,
// back to front; overlapping edits forfeit the later fix rather than
// corrupting the file.
func applyFixes(diags []jsonDiagnostic) []jsonDiagnostic {
	var remaining []jsonDiagnostic
	byFile := make(map[string][]jsonTextEdit)
	for _, d := range diags {
		if len(d.SuggestedFixes) == 0 || len(d.SuggestedFixes[0].Edits) == 0 {
			remaining = append(remaining, d)
			continue
		}
		for _, e := range d.SuggestedFixes[0].Edits {
			byFile[e.Filename] = append(byFile[e.Filename], e)
		}
	}
	fixed := 0
	for file, edits := range byFile {
		sort.Slice(edits, func(i, j int) bool { return edits[i].Start > edits[j].Start })
		src, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsdblint: -fix: %v\n", err)
			continue
		}
		prevStart := len(src) + 1
		applied := 0
		for _, e := range edits {
			if e.Start < 0 || e.End > len(src) || e.End > prevStart {
				continue // out of range or overlapping a later edit
			}
			src = append(src[:e.Start], append([]byte(e.New), src[e.End:]...)...)
			prevStart = e.Start
			applied++
		}
		if applied > 0 {
			if err := os.WriteFile(file, src, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "dsdblint: -fix: %v\n", err)
				continue
			}
			fixed += applied
			fmt.Fprintf(os.Stderr, "dsdblint: fixed %s (%d edits)\n", file, applied)
		}
	}
	if fixed > 0 {
		fmt.Fprintf(os.Stderr, "dsdblint: applied %d fixes\n", fixed)
	}
	return remaining
}
