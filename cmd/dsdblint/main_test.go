package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestModuleIsClean builds dsdblint and runs its whole suite over the
// module, so `go test ./...` enforces every analyzer, the forbid table
// included; CI's race test run is the suite's gate. go vet loads only
// the files that build for its target, so the suite runs twice: for
// the host, and for windows, which takes the non-unix side of every
// build tag (storage/map_other.go, engine/lock_other.go).
func TestModuleIsClean(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "dsdblint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, goos := range []string{runtime.GOOS, "windows"} {
		lint := exec.Command(bin, "./...")
		lint.Dir = filepath.Join("..", "..")
		lint.Env = append(os.Environ(), "GOOS="+goos)
		if out, err := lint.CombinedOutput(); err != nil {
			t.Fatalf("GOOS=%s dsdblint ./...: %v\n%s", goos, err, out)
		}
	}
}
