// Package access implements the access methods of the database kernel
// (the paper's Figure 1): heap files with sequential scans, a
// page-based B-tree index for ordered and range access, and a static
// hash index for equality access — matching the paper's Btree-indexed
// and Hash-indexed TPC-D databases. All page access goes through the
// buffer manager.
//
// Read paths take a probe.Tracer and emit the instrumentation events
// the kernel image maps to basic-block paths, resolving the tracer once
// per call (probe.Resolve) and handing it on unresolved to the buffer
// pool, which attributes IO waits through it; loads (inserts) run
// untraced, as the paper traces query execution only.
//
// # Pins
//
// Read paths ask for a page every time they need one — once per index
// entry, per descent level, per fetched tuple — but ask through a
// buffer.Pin they keep, so a request for the page they are already on
// is answered without going to the pool. What is requested, and the
// events and hit counts that go with it, do not depend on who answers.
// What a reader holds between calls is bounded:
//
//   - HeapScan: the page it is on (1).
//   - BTreeScan from BTree.Cursor: the meta page and one page per tree
//     level, the leaf level's pin following the scan along the leaf
//     chain (tree height + 1), across Next and across re-seeks.
//   - HashScan seeked with HashIndex.Seek: the chain page it is on (1).
//   - Heap.Fetch: the fetched tuple's page, in the caller's Pin (1).
//
// An index scan or index join therefore holds at most tree height + 2
// pages (its cursor and its heap pin) from Open to Close, and a plan
// that many per index operator plus one per sequential scan; the pool
// must be larger than that sum or Get fails with "all frames pinned".
// Every one of these has a Close (a Pin a Release) that its owner must
// call; the engine's read latch keeps writers out for as long as a
// plan is open, so a retained index page cannot change under its
// cursor. The scans that the value-returning BTree.SeekGE/SeekFirst
// and HashIndex.Lookup hand out hold nothing between calls and need no
// Close.
package access

import (
	"fmt"

	"repro/internal/db/buffer"
	"repro/internal/db/probe"
	"repro/internal/db/storage"
	"repro/internal/db/value"
)

// TID re-exports the storage tuple identifier for executor
// convenience.
type TID = storage.TID

// Heap is a heap file of tuples.
type Heap struct {
	buf  *buffer.Manager
	file int
}

// NewHeap returns a heap over the given storage file.
func NewHeap(buf *buffer.Manager, file int) *Heap {
	return &Heap{buf: buf, file: file}
}

// MaxTupleBytes bounds one encoded tuple (a quarter page), so any
// page can always hold several tuples.
const MaxTupleBytes = storage.PageBytes / 4

// CheckTupleSize validates an encoded tuple against MaxTupleBytes —
// exported so callers that must validate before committing to the
// insert (the engine's write-ahead log) apply exactly the heap's rule.
func CheckTupleSize(data []byte) error {
	if len(data) > MaxTupleBytes {
		return fmt.Errorf("access: tuple too large (%d bytes)", len(data))
	}
	return nil
}

// Insert appends a tuple and returns its TID. Loads run untraced.
func (h *Heap) Insert(vals []value.Value, scratch []byte) (storage.TID, error) {
	return h.InsertTuple(storage.EncodeTuple(vals, scratch))
}

// InsertTuple appends an already-encoded tuple — the path the durable
// engine uses so the bytes it journals are the bytes the heap stores,
// encoded exactly once.
func (h *Heap) InsertTuple(data []byte) (storage.TID, error) {
	if err := CheckTupleSize(data); err != nil {
		return storage.TID{}, err
	}
	n := h.buf.NumPages(h.file)
	if n > 0 {
		b, err := h.buf.GetForWrite(h.file, n-1)
		if err != nil {
			return storage.TID{}, err
		}
		if slot, ok := b.Page.AddTuple(data); ok {
			h.buf.Release(b, true)
			return storage.TID{Page: uint32(n - 1), Slot: uint16(slot)}, nil
		}
		h.buf.Release(b, false)
	}
	b, err := h.buf.NewPage(h.file)
	if err != nil {
		return storage.TID{}, err
	}
	slot, ok := b.Page.AddTuple(data)
	h.buf.Release(b, true)
	if !ok {
		return storage.TID{}, fmt.Errorf("access: tuple does not fit an empty page")
	}
	return storage.TID{Page: uint32(b.PageNo), Slot: uint16(slot)}, nil
}

// Fetch reads the wanted columns (ascending ordinals; nil means all)
// of the tuple at tid into dst[:0] (heap_fetch). The page is read
// through pin, which the caller owns and must Release when it is done
// fetching: consecutive fetches from one page — an index scan over
// clustered keys — then request the page from the pin instead of the
// pool (see buffer.Pin), and pin holds one page at most.
func (h *Heap) Fetch(tr probe.Tracer, pin *buffer.Pin, tid storage.TID, cols []int, dst []value.Value) ([]value.Value, error) {
	rec := probe.Resolve(tr)
	probe.Emit(rec, probe.HeapFetchEnter)
	p, err := h.buf.Repin(tr, pin, h.file, int(tid.Page))
	if err != nil {
		return nil, err
	}
	probe.Emit(rec, probe.HeapFetchCont)
	raw, err := p.Tuple(int(tid.Slot))
	if err != nil {
		return nil, err
	}
	probe.Emit(rec, probe.HeapDeform)
	vals, err := storage.DecodeTuple(raw, cols, dst[:0])
	probe.Emit(rec, probe.HeapFetchEmit)
	return vals, err
}

// HeapScan iterates a heap file in physical order, pinning one page at
// a time (heap_getnext).
type HeapScan struct {
	heap *Heap
	cols []int // wanted column ordinals, ascending; nil means all
	page int
	slot int
	buf  buffer.Buf
	held bool
	eof  bool
}

// BeginScan starts a sequential scan over the whole file that
// deforms only the wanted columns (ascending ordinals) of each tuple;
// no cols means every column.
func (h *Heap) BeginScan(cols ...int) *HeapScan {
	return &HeapScan{heap: h, cols: cols}
}

// Next returns the next tuple (its wanted columns decoded into
// dst[:0]) and its TID; ok is false at end of file.
func (s *HeapScan) Next(tr probe.Tracer, dst []value.Value) (vals []value.Value, tid storage.TID, ok bool, err error) {
	rec := probe.Resolve(tr)
	probe.Emit(rec, probe.HeapGetNextEnter)
	if s.eof {
		probe.Emit(rec, probe.HeapGetNextEOF)
		return nil, storage.TID{}, false, nil
	}
	for {
		if !s.held {
			if s.page >= s.heap.buf.NumPages(s.heap.file) {
				s.eof = true
				probe.Emit(rec, probe.HeapGetNextEOF)
				return nil, storage.TID{}, false, nil
			}
			probe.Emit(rec, probe.HeapGetNextPage)
			s.buf, err = s.heap.buf.Get(tr, s.heap.file, s.page)
			if err != nil {
				s.eof = true
				return nil, storage.TID{}, false, err
			}
			probe.Emit(rec, probe.HeapGetNextPageCont)
			s.held = true
			s.slot = 0
		}
		if s.slot < s.buf.Page.NumSlots() {
			probe.Emit(rec, probe.HeapGetNextTuple)
			raw, terr := s.buf.Page.Tuple(s.slot)
			if terr != nil {
				s.Close()
				return nil, storage.TID{}, false, terr
			}
			probe.Emit(rec, probe.HeapDeform)
			vals, err = storage.DecodeTuple(raw, s.cols, dst[:0])
			if err != nil {
				s.Close()
				return nil, storage.TID{}, false, err
			}
			tid = storage.TID{Page: uint32(s.page), Slot: uint16(s.slot)}
			s.slot++
			probe.Emit(rec, probe.HeapGetNextEmit)
			return vals, tid, true, nil
		}
		probe.Emit(rec, probe.HeapGetNextNewPage)
		s.heap.buf.Release(s.buf, false)
		s.held = false
		s.page++
	}
}

// Close releases any held page.
func (s *HeapScan) Close() {
	if s.held {
		s.heap.buf.Release(s.buf, false)
		s.held = false
	}
	s.eof = true
}
