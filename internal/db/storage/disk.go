package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Disk-backed mode. The store's page files live under a data
// directory, organized as immutable checkpoint generations:
//
//	<dir>/gen-000001/f000000.pg   page file 0 of generation 1
//	<dir>/gen-000001/f000003.pg   ...
//
// The files of the current generation are the base: they hold every
// page exactly as it was at the last checkpoint, are never modified in
// place, and are mapped read-only into the process when the generation
// becomes current (OpenDiskStore, PromoteGeneration). Pages written or
// allocated since the checkpoint live in an in-memory overlay keyed by
// (file, page); reads consult the overlay first (and copy its image
// out) and otherwise return a view of the mapping — a read-only slice
// of the generation's bytes, no copy (ReadView). A checkpoint writes
// the merged state as a brand-new generation (hard-linking files with
// no changes), fsyncs it, and — after the caller has durably published
// a manifest naming it — promotes it to base and deletes the old
// generation. A crash at any point therefore leaves either the old
// complete generation or the new complete generation, never a
// half-written mix.
//
// What reading through a mapping means: a base read makes no system
// call, and a page the OS does not have cached is a page fault, which
// stalls the thread, not a pread(2) the scheduler can hand off. The
// mapping cannot shrink under the process — the engine flocks the data
// directory, and a generation's files are never truncated, only
// unlinked, which a mapping survives — but a file truncated from
// outside regardless is a SIGBUS on the next read of a lost page, not
// an error. Builds without mmap read each file into memory instead
// (map_other.go); everything below sees a []byte either way, and a
// view is a slice of the heap copy there.
//
// A view lives only as long as its generation's mapping. Whoever keeps
// one — the buffer pool keeps them in its frames — copies it out before
// PromoteGeneration or Close releases the generation, and copies it
// before writing to the page (a store through a view faults). Close
// empties the base, so a read after it is an error, never a fault.
//
// The overlay is also where the write-ahead log hooks in: a spill
// callback (SetSpill) observes every page write between checkpoints,
// so the engine can journal evicted dirty pages as full page images.

// pageKey addresses one page of one file: the file number in the high
// half, the page number in the low half (buffer.key's packing). One
// word, so the overlay probe every read makes hashes through the
// runtime's 64-bit fast path.
type pageKey uint64

func pageKeyOf(file, page int) pageKey {
	return pageKey(uint64(uint32(file))<<32 | uint64(uint32(page)))
}

func (k pageKey) file() int { return int(uint32(k >> 32)) }

// baseFile is one page file of the current generation.
type baseFile struct {
	name string // its path, which WriteGeneration hard-links from
	data []byte // the whole file, mapped read-only; nil = no pages (absent, empty, or closed)
}

// pages returns the number of pages the base file holds.
func (b *baseFile) pages() int { return len(b.data) / PageBytes }

// diskStore is the disk half of Store.
type diskStore struct {
	dir     string
	gen     uint64
	base    []baseFile // per file ID
	pages   []int      // current logical page count (base + growth)
	overlay map[pageKey]Page
	spill   func(file, page int, data []byte) error
}

// genDirName returns the directory of generation gen.
func genDirName(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("gen-%06d", gen))
}

// pageFileName returns the page file of file id within a generation
// directory.
func pageFileName(genDir string, file int) string {
	return filepath.Join(genDir, fmt.Sprintf("f%06d.pg", file))
}

// openBase maps the page file name. A file whose size is not a whole
// number of pages is corruption (generations are fsynced before their
// manifest is published); an empty one is a base file with no pages
// and is not mapped. The descriptor is closed either way: the mapping
// outlives it.
func openBase(name string) (baseFile, error) {
	f, err := os.Open(name)
	if err != nil {
		return baseFile{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return baseFile{}, err
	}
	if st.Size()%PageBytes != 0 {
		return baseFile{}, fmt.Errorf("storage: page file %s has partial page (%d bytes)", name, st.Size())
	}
	b := baseFile{name: name}
	if st.Size() > 0 {
		if b.data, err = mapFile(f, int(st.Size())); err != nil {
			return baseFile{}, fmt.Errorf("storage: map %s: %w", name, err)
		}
	}
	return b, nil
}

// unmapBase releases every mapping in files and empties the entries,
// so a later read of one is an error and never a fault. It returns the
// first failure.
func unmapBase(files []baseFile) error {
	var first error
	for i := range files {
		if files[i].data != nil {
			if err := unmapFile(files[i].data); err != nil && first == nil {
				first = err
			}
		}
		files[i] = baseFile{}
	}
	return first
}

// OpenDiskStore opens a disk-backed store rooted at dir over
// checkpoint generation gen with nfiles page files. Generation 0 means
// no checkpoint has happened yet: every file starts empty. Base files
// absent from the generation directory are empty files. A failure
// releases whatever was mapped before it.
func OpenDiskStore(dir string, gen uint64, nfiles int) (*Store, error) {
	d := &diskStore{
		dir:     dir,
		gen:     gen,
		overlay: make(map[pageKey]Page),
	}
	s := &Store{disk: d}
	d.ensure(nfiles)
	if gen == 0 {
		return s, nil
	}
	genDir := genDirName(dir, gen)
	for id := 0; id < nfiles; id++ {
		b, err := openBase(pageFileName(genDir, id))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			unmapBase(d.base)
			return nil, err
		}
		d.base[id] = b
		d.pages[id] = b.pages()
	}
	return s, nil
}

// ensure grows the per-file bookkeeping to n files.
func (d *diskStore) ensure(n int) {
	for len(d.pages) < n {
		d.base = append(d.base, baseFile{})
		d.pages = append(d.pages, 0)
	}
}

// SetSpill installs the page-write observer called (under the store
// lock) for every WritePage in disk mode — the engine's hook for
// journaling evicted dirty pages to the write-ahead log. A nil
// observer disables spilling. Install before concurrent use.
func (s *Store) SetSpill(fn func(file, page int, data []byte) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disk.spill = fn
}

// view returns a page: a view of the mapped base for a page the
// overlay does not hold, else the overlay image copied into buf (the
// overlay is rewritten in place by the next write of the page).
func (d *diskStore) view(file, page int, buf Page) (Page, error) {
	if file < 0 || file >= len(d.pages) || page < 0 || page >= d.pages[file] {
		return nil, fmt.Errorf("storage: read beyond file %d page %d", file, page)
	}
	if p, ok := d.overlay[pageKeyOf(file, page)]; ok {
		copy(buf, p)
		return buf, nil
	}
	b := &d.base[file]
	if page >= b.pages() {
		return nil, fmt.Errorf("storage: file %d page %d missing from base and overlay", file, page)
	}
	start, end := page*PageBytes, (page+1)*PageBytes
	return b.data[start:end:end], nil
}

// overlayPage returns the overlay's image of a page, adding an empty
// one when the page has not been written since the checkpoint.
func (d *diskStore) overlayPage(file, page int) Page {
	k := pageKeyOf(file, page)
	p, ok := d.overlay[k]
	if !ok {
		p = make(Page, PageBytes)
		d.overlay[k] = p
	}
	return p
}

// writePage installs src into the overlay; spill (when set and enabled
// by the caller's flag) journals the image.
func (d *diskStore) writePage(file, page int, src Page) error {
	if file < 0 || file >= len(d.pages) || page < 0 || page >= d.pages[file] {
		return fmt.Errorf("storage: write beyond file %d page %d", file, page)
	}
	p := d.overlayPage(file, page)
	copy(p, src)
	if d.spill != nil {
		return d.spill(file, page, p)
	}
	return nil
}

// InstallRecovered overwrites one page with a logged image during
// write-ahead-log replay: exactly writePage without the spill hook
// (replay must not re-journal what it reads from the journal).
func (s *Store) InstallRecovered(file, page int, data []byte) error {
	if len(data) != PageBytes {
		return fmt.Errorf("storage: recovered page image is %d bytes, want %d", len(data), PageBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.disk
	if file < 0 || file >= len(d.pages) || page < 0 || page >= d.pages[file] {
		return fmt.Errorf("storage: recovered page beyond file %d page %d", file, page)
	}
	copy(d.overlayPage(file, page), data)
	return nil
}

// WriteGeneration materializes the store's current state as generation
// gen on disk: one page file per non-empty file, each either written
// page by page (base + overlay merged) or hard-linked from the current
// base when nothing in the file changed. Every written file and the
// generation directory are fsynced. The base and overlay are left
// untouched — call PromoteGeneration after the new generation has been
// durably named by a manifest.
func (s *Store) WriteGeneration(gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.disk
	genDir := genDirName(d.dir, gen)
	// A leftover directory from a checkpoint that crashed before its
	// manifest landed is garbage; rebuild from scratch.
	if err := os.RemoveAll(genDir); err != nil {
		return err
	}
	if err := os.MkdirAll(genDir, 0o755); err != nil {
		return err
	}
	changed := make(map[int]bool)
	for k := range d.overlay {
		changed[k.file()] = true
	}
	buf := make(Page, PageBytes)
	for id := range d.pages {
		n := d.pages[id]
		if n == 0 {
			continue
		}
		dst := pageFileName(genDir, id)
		if !changed[id] && n == d.base[id].pages() {
			if err := os.Link(d.base[id].name, dst); err == nil {
				continue
			}
			// Cross-device or filesystem without hard links: fall
			// through to a full copy.
		}
		f, err := os.OpenFile(dst, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		for p := 0; p < n; p++ {
			page, err := d.view(id, p, buf)
			if err != nil {
				f.Close()
				return err
			}
			if _, err := f.Write(page); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return SyncDir(genDir)
}

// PromoteGeneration switches the store's base to generation gen
// (previously written by WriteGeneration and named by a durable
// manifest), drops the overlay, and deletes every other generation
// directory. The new generation's files are all mapped before any old
// mapping is released: a failure mid-way releases the new ones and
// leaves the store exactly as it was, still serving reads from the old
// base. A view of the old base dies with its mapping: copy views out
// first.
func (s *Store) PromoteGeneration(gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.disk
	genDir := genDirName(d.dir, gen)
	newBase := make([]baseFile, len(d.pages))
	for id := range d.pages {
		if d.pages[id] == 0 {
			continue
		}
		b, err := openBase(pageFileName(genDir, id))
		if err != nil {
			unmapBase(newBase)
			return err
		}
		newBase[id] = b
		if b.pages() != d.pages[id] {
			unmapBase(newBase)
			return fmt.Errorf("storage: page file %s has %d pages, want %d", b.name, b.pages(), d.pages[id])
		}
	}
	old := d.base
	d.base = newBase
	d.overlay = make(map[pageKey]Page)
	d.gen = gen
	if err := unmapBase(old); err != nil {
		return err
	}
	return RemoveStaleGenerations(d.dir, gen)
}

// RemoveStaleGenerations deletes every generation directory under dir
// except keep — cleanup for checkpoints and for recovery after a crash
// that left a half-written or superseded generation behind.
func RemoveStaleGenerations(dir string, keep uint64) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "gen-") {
			continue
		}
		if keep > 0 && e.Name() == filepath.Base(genDirName(dir, keep)) {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the disk store's mappings (no-op in memory mode), and
// every view of them with it; reading a base page afterwards is an
// error.
func (s *Store) Close() error {
	if s.disk == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return unmapBase(s.disk.base)
}

// SyncDir fsyncs a directory, making the creates and renames inside
// it durable. Shared by the storage and engine durability paths (the
// wal package carries its own copy to stay dependency-free).
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
