// Package seglogtest holds the byte-identity check the WAL's and the
// capture's golden-segment tests share.
package seglogtest

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// Golden requires the files a writer just produced under dir to be
// the files checked in under golden: the same names, the same bytes.
// With update set it first replaces golden with a copy of dir.
func Golden(t *testing.T, dir, golden string, update bool) {
	t.Helper()
	if update {
		if err := os.RemoveAll(golden); err != nil {
			t.Fatal(err)
		}
		if err := os.CopyFS(golden, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
	}
	got, want := names(t, dir), names(t, golden)
	if !slices.Equal(got, want) {
		t.Fatalf("wrote %v, golden has %v", got, want)
	}
	for _, name := range want {
		g, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s differs from the golden:\n got %x\nwant %x", name, g, w)
		}
	}
}

func names(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}
