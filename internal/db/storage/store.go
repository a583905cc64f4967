package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Store is the storage manager: a set of page files addressed by file
// ID. The only way to mutate stored data is an explicit WritePage,
// which copies the page in — the buffer manager above is the sole
// client, mirroring the kernel structure in the paper's Figure 1.
// ReadPage copies a page out, as a disk would; ReadView hands out a
// checkpointed page as a read-only view of the mapped generation
// instead. All methods are safe for concurrent use: page and
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

	// readErr, when set, fails every read (see InjectReadError).
	readErr error
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

// Pages returns the number of pages in all files.
func (s *Store) Pages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	if s.disk != nil {
		for _, p := range s.disk.pages {
			n += p
		}
		return n
	}
	for _, f := range s.files {
		n += len(f)
	}
	return n
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

// ReadView returns the contents of a page. A page of the current
// checkpoint generation that has not been written since comes back as
// a view of the mapped generation: read-only (a write through it is a
// fault on unix), capacity-capped, and valid until the generation is
// released by PromoteGeneration or Close — the caller must copy it out
// before then. Any other page — one in the overlay, or any page of a
// memory store, where WritePage rewrites pages in place — is copied
// into buf (len PageBytes), and buf is returned.
func (s *Store) ReadView(file, page int, buf Page) (Page, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.readErr != nil {
		return nil, s.readErr
	}
	if s.disk != nil {
		p, err := s.disk.view(file, page, buf)
		if err != nil {
			return nil, err
		}
		s.reads.Add(1)
		return p, nil
	}
	if file < 0 || file >= len(s.files) || page < 0 || page >= len(s.files[file]) {
		return nil, fmt.Errorf("storage: read beyond file %d page %d", file, page)
	}
	copy(buf, s.files[file][page])
	s.reads.Add(1)
	return buf, nil
}

// ReadPage copies page contents into dst (len PageBytes).
func (s *Store) ReadPage(file, page int, dst Page) error {
	p, err := s.ReadView(file, page, dst)
	if err == nil && &p[0] != &dst[0] {
		copy(dst, p)
	}
	return err
}

// InjectReadError makes every later read fail with err (nil restores
// reads). The mappings stay in place, so a view handed out earlier
// stays readable: it is how tests fail the reads under a running query
// without pulling pages out from under it.
func (s *Store) InjectReadError(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readErr = err
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
