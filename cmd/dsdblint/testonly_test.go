package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTestOnlyFindings runs the test-only check over testdata/testonly,
// a module whose internal/lib declares one name per case, for linux and
// for windows, with a three-row allow list.
func TestTestOnlyFindings(t *testing.T) {
	allow := []allowed{
		{"example.com/m/internal/lib.Seam", "a seam"},
		{"example.com/m/internal/lib.UsedSeam", "cmd/app calls it"},
		{"example.com/m/internal/lib.Gone", "deleted since"},
	}
	findings := make(map[string]string)
	for _, goos := range []string{"linux", "windows"} {
		f, err := testOnly(filepath.Join("testdata", "testonly"), append(os.Environ(), "GOOS="+goos, "GOARCH=amd64"), allow)
		if err != nil {
			t.Fatalf("GOOS=%s: %v", goos, err)
		}
		findings[goos] = strings.Join(f, "\n")
	}
	const lib = " example.com/m/internal/lib."
	for _, tc := range []struct {
		name, goos, finding string
		want                bool
	}{
		{"a planted test-only export is reported", "linux", lib + "TestOnly is exported but only tests use it", true},
		{"a recursive call is no use", "linux", lib + "Recurse is exported", true},
		{"an interface method only tests call is reported", "linux", lib + "Shape.Label is exported", true},
		{"a use from a package main counts", "linux", lib + "Used is", false},
		{"a type used by main is kept", "linux", lib + "Kind is", false},
		{"an interface-satisfying method is skipped", "linux", lib + "Kind.String", false},
		{"methods that satisfy a module interface are skipped", "linux", lib + "Square.Label", false},
		{"a *test package is skipped", "linux", "internal/libtest.Helper", false},
		{"a use from a *test package is no use", "linux", lib + "HelperOnly is exported", true},
		{"a receiver is no use of its type", "linux", lib + "Box is exported", true},
		{"a method only tests call is reported", "linux", lib + "Box.Open is exported", true},
		{"a use in a _windows.go file is no use on linux", "linux", lib + "WindowsOnly is exported", true},
		{"a use in a _windows.go file counts under windows", "windows", lib + "WindowsOnly", false},
		{"an allow row hides its name", "linux", lib + "Seam is", false},
		{"a row whose name non-test code uses is stale", "windows", "allow row example.com/m/internal/lib.UsedSeam: non-test code uses it", true},
		{"a row whose name is gone is stale", "windows", "allow row example.com/m/internal/lib.Gone: no such exported name", true},
	} {
		if got := strings.Contains(findings[tc.goos], tc.finding); got != tc.want {
			t.Errorf("%s: GOOS=%s finding %q present = %v, want %v; findings:\n%s",
				tc.name, tc.goos, tc.finding, got, tc.want, findings[tc.goos])
		}
	}
}
