package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fillPage returns a page whose tuples carry a recognizable pattern.
func fillPage(t *testing.T, marker byte) Page {
	t.Helper()
	p := NewPage()
	if _, ok := p.AddTuple(bytes.Repeat([]byte{marker}, 32)); !ok {
		t.Fatal("tuple does not fit an empty page")
	}
	return p
}

// TestDiskStoreMatchesMemoryStore drives the same operation sequence
// through both modes and checks every page reads back identically:
// from the overlay, from the mapped generation after a promote, from
// the overlay again for a page written since, and not at all after
// Close.
func TestDiskStoreMatchesMemoryStore(t *testing.T) {
	mem := NewStore(0)
	dsk, err := OpenDiskStore(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{mem, dsk} {
		s.EnsureFiles(3)
		for f := 0; f < 3; f++ {
			for p := 0; p < 4; p++ {
				if _, err := s.AllocPage(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		for f := 0; f < 3; f++ {
			for p := 0; p < 4; p++ {
				if err := s.WritePage(f, p, fillPage(t, byte(16*f+p))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	a, b := NewPage(), NewPage()
	same := func(when string) {
		t.Helper()
		for f := 0; f < 3; f++ {
			if mem.NumPages(f) != dsk.NumPages(f) {
				t.Fatalf("%s: file %d: %d vs %d pages", when, f, mem.NumPages(f), dsk.NumPages(f))
			}
			for p := 0; p < 4; p++ {
				if err := mem.ReadPage(f, p, a); err != nil {
					t.Fatal(err)
				}
				if err := dsk.ReadPage(f, p, b); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("%s: file %d page %d differs between modes", when, f, p)
				}
			}
		}
	}
	same("from the overlay")

	if err := dsk.WriteGeneration(1); err != nil {
		t.Fatal(err)
	}
	if err := dsk.PromoteGeneration(1); err != nil {
		t.Fatal(err)
	}
	if n := len(dsk.disk.overlay); n != 0 {
		t.Fatalf("overlay holds %d pages after a promote", n)
	}
	same("from the mapped generation")

	// A page written since the checkpoint shadows its mapped bytes.
	for _, s := range []*Store{mem, dsk} {
		if err := s.WritePage(1, 2, fillPage(t, 0xAB)); err != nil {
			t.Fatal(err)
		}
	}
	same("overlay over the mapping")

	if err := dsk.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dsk.ReadPage(0, 0, b); err == nil {
		t.Fatal("read of a base page after Close succeeded")
	}
	if err := dsk.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestDiskStoreCheckpointAndReopen writes, checkpoints, mutates some
// pages, checkpoints again, and reopens from each generation.
func TestDiskStoreCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.EnsureFiles(2)
	for f := 0; f < 2; f++ {
		for p := 0; p < 3; p++ {
			if _, err := s.AllocPage(f); err != nil {
				t.Fatal(err)
			}
			if err := s.WritePage(f, p, fillPage(t, byte(1+16*f+p))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.WriteGeneration(1); err != nil {
		t.Fatal(err)
	}
	if err := s.PromoteGeneration(1); err != nil {
		t.Fatal(err)
	}
	if g := s.disk.gen; g != 1 {
		t.Fatalf("generation = %d, want 1", g)
	}

	// Mutate one page and extend file 1, then checkpoint again. File 0
	// is untouched, so generation 2 should hard-link its page file.
	if err := s.WritePage(1, 0, fillPage(t, 0xEE)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllocPage(1); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(1, 3, fillPage(t, 0xEF)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteGeneration(2); err != nil {
		t.Fatal(err)
	}

	// A promote that fails half-way — file 0 maps, file 1 is gone —
	// leaves the store on generation 1 with every page readable, the
	// unpromoted writes included.
	gen2file1 := pageFileName(genDirName(dir, 2), 1)
	if err := os.Rename(gen2file1, gen2file1+".away"); err != nil {
		t.Fatal(err)
	}
	if err := s.PromoteGeneration(2); err == nil {
		t.Fatal("promote of a generation with a missing file succeeded")
	}
	if g := s.disk.gen; g != 1 {
		t.Fatalf("generation = %d after a failed promote, want 1", g)
	}
	wantMappings(t, genDirName(dir, 2), 0, "after a failed promote")
	got := NewPage()
	for f, markers := range [][]byte{{1, 2, 3}, {0xEE, 18, 19, 0xEF}} {
		for p, m := range markers {
			if err := s.ReadPage(f, p, got); err != nil {
				t.Fatalf("after a failed promote: %v", err)
			}
			if !bytes.Equal(got, fillPage(t, m)) {
				t.Fatalf("after a failed promote: file %d page %d changed", f, p)
			}
		}
	}
	if err := os.Rename(gen2file1+".away", gen2file1); err != nil {
		t.Fatal(err)
	}

	if err := s.PromoteGeneration(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Old generation directory is gone.
	if _, err := os.Stat(filepath.Join(dir, "gen-000001")); !os.IsNotExist(err) {
		t.Fatalf("stale generation not removed: %v", err)
	}

	// A file of no pages in the generation directory is a base file with
	// nothing to map (mmap refuses a zero length).
	if err := os.WriteFile(pageFileName(genDirName(dir, 2), 2), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDiskStore(dir, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumPages(0) != 3 || re.NumPages(1) != 4 || re.NumPages(2) != 0 {
		t.Fatalf("reopened page counts: %d, %d, %d", re.NumPages(0), re.NumPages(1), re.NumPages(2))
	}
	if re.disk.base[2].data != nil {
		t.Fatal("a zero-page file was mapped")
	}
	want := fillPage(t, 0xEE)
	if err := re.ReadPage(1, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("mutated page not persisted across reopen")
	}
	if err := re.ReadPage(0, 1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fillPage(t, 1+1)) {
		t.Fatal("untouched page corrupted across reopen")
	}
}

// TestOpenDiskStoreFailureReleasesMappings opens a generation whose
// second file is 100 bytes: the open fails on the partial page and
// must not leave the first file's mapping behind.
func TestOpenDiskStoreFailureReleasesMappings(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 2; f++ {
		if _, err := s.AllocPage(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteGeneration(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pageFileName(genDirName(dir, 1), 1), make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskStore(dir, 1, 2); err == nil || !strings.Contains(err.Error(), "partial page") {
		t.Fatalf("open over a 100-byte page file: %v, want a partial-page error", err)
	}
	wantMappings(t, dir, 0, "after a failed open")

	// The same count sees a mapping that is there, and Close removes it.
	if err := os.Remove(pageFileName(genDirName(dir, 1), 1)); err != nil {
		t.Fatal(err)
	}
	s, err = OpenDiskStore(dir, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantMappings(t, dir, 1, "while open")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantMappings(t, dir, 0, "after Close")
}

// wantMappings checks how many of the process's memory mappings are of
// files under dir, by /proc/self/maps; it checks nothing where there is
// no such file.
func wantMappings(t *testing.T, dir string, want int, when string) {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Logf("mappings %s not counted: %v", when, err)
		return
	}
	n := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, dir) {
			n++
		}
	}
	if n != want {
		t.Fatalf("%s: %d mappings under %s, want %d", when, n, dir, want)
	}
}

// TestDiskStoreSpillHook pins that every post-checkpoint WritePage is
// observed by the spill hook with the exact page image, and that
// InstallRecovered bypasses it.
func TestDiskStoreSpillHook(t *testing.T) {
	s, err := OpenDiskStore(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	type spill struct {
		file, page int
		data       []byte
	}
	var got []spill
	s.SetSpill(func(file, page int, data []byte) error {
		got = append(got, spill{file, page, append([]byte(nil), data...)})
		return nil
	})
	s.EnsureFiles(1)
	if _, err := s.AllocPage(0); err != nil {
		t.Fatal(err)
	}
	img := fillPage(t, 0x77)
	if err := s.WritePage(0, 0, img); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].file != 0 || got[0].page != 0 || !bytes.Equal(got[0].data, img) {
		t.Fatalf("spill observed %d writes, want the one image", len(got))
	}
	if err := s.InstallRecovered(0, 0, fillPage(t, 0x78)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatal("InstallRecovered must not spill")
	}
	back := NewPage()
	if err := s.ReadPage(0, 0, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, fillPage(t, 0x78)) {
		t.Fatal("InstallRecovered image not visible to reads")
	}
}
