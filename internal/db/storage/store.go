package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Store is the storage manager: a set of page files addressed by file
// ID. Pages are copied in and out (as a disk would), so the only way
// to mutate stored data is an explicit WritePage — the buffer manager
// above is the sole client, mirroring the kernel structure in the
// paper's Figure 1. All methods are safe for concurrent use: page and
// file-table access is guarded by one reader/writer lock, matching a
// disk controller serving requests from many backends.
//
// A store runs in one of two modes, chosen at construction and
// identical through this interface. NewStore keeps every page in
// memory (the original substitution for the paper's Digital Unix
// filesystem). OpenDiskStore persists pages under a data directory as
// immutable checkpoint generations plus an in-memory overlay of
// post-checkpoint writes — see disk.go — which is what the durability
// subsystem builds on.
type Store struct {
	mu    sync.RWMutex
	files [][]Page
	disk  *diskStore // non-nil in disk-backed mode
	reads atomic.Uint64
}

// NewStore returns a store with n pre-created empty files.
func NewStore(n int) *Store {
	return &Store{files: make([][]Page, n)}
}

// EnsureFiles grows the store to at least n files.
func (s *Store) EnsureFiles(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disk != nil {
		s.disk.ensure(n)
		return
	}
	for len(s.files) < n {
		s.files = append(s.files, nil)
	}
}

// NumFiles returns the number of files.
func (s *Store) NumFiles() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.disk != nil {
		return len(s.disk.pages)
	}
	return len(s.files)
}

// NumPages returns the length of a file in pages.
func (s *Store) NumPages(file int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.disk != nil {
		if file < 0 || file >= len(s.disk.pages) {
			return 0
		}
		return s.disk.pages[file]
	}
	if file < 0 || file >= len(s.files) {
		return 0
	}
	return len(s.files[file])
}

// AllocPage appends an empty page to the file and returns its number.
func (s *Store) AllocPage(file int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disk != nil {
		d := s.disk
		if file < 0 || file >= len(d.pages) {
			return 0, fmt.Errorf("storage: no file %d", file)
		}
		page := d.pages[file]
		d.overlay[pageKeyOf(file, page)] = NewPage()
		d.pages[file]++
		return page, nil
	}
	if file < 0 || file >= len(s.files) {
		return 0, fmt.Errorf("storage: no file %d", file)
	}
	s.files[file] = append(s.files[file], NewPage())
	return len(s.files[file]) - 1, nil
}

// ReadPage copies page contents into dst (len PageBytes).
func (s *Store) ReadPage(file, page int, dst Page) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.disk != nil {
		if err := s.disk.readPage(file, page, dst); err != nil {
			return err
		}
		s.reads.Add(1)
		return nil
	}
	if file < 0 || file >= len(s.files) || page < 0 || page >= len(s.files[file]) {
		return fmt.Errorf("storage: read beyond file %d page %d", file, page)
	}
	copy(dst, s.files[file][page])
	s.reads.Add(1)
	return nil
}

// WritePage copies src into the stored page.
func (s *Store) WritePage(file, page int, src Page) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disk != nil {
		return s.disk.writePage(file, page, src)
	}
	if file < 0 || file >= len(s.files) || page < 0 || page >= len(s.files[file]) {
		return fmt.Errorf("storage: write beyond file %d page %d", file, page)
	}
	copy(s.files[file][page], src)
	return nil
}

// Reads returns the number of page reads served (I/O statistic).
func (s *Store) Reads() uint64 { return s.reads.Load() }
