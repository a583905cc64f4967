package access

import (
	"encoding/binary"
	"fmt"

	"repro/internal/db/buffer"
	"repro/internal/db/probe"
	"repro/internal/db/storage"
	"repro/internal/db/value"
)

// HashIndex is a static hash index with int64 keys: a fixed bucket
// array with overflow chains, modelled on PostgreSQL's hash access
// method (without dynamic expansion, which TPC-D bulk loads do not
// need — the bucket count is sized at creation).
//
// File layout:
//
//	page 0:        meta — nbuckets(4)
//	pages 1..B:    bucket pages
//	pages B+1...:  overflow pages
//	bucket/overflow page: nkeys(2) | next(4) | entries of key(8) tid(6)
const (
	hMetaBuckets = 0

	hNOff    = 0
	hNextOff = 2
	hHdr     = 6
	hEntry   = 14

	hNoNext = 0xFFFFFFFF
)

var hPageCap = (storage.PageBytes - hHdr) / hEntry

// HashIndex is the handle.
type HashIndex struct {
	buf      *buffer.Manager
	file     int
	nbuckets uint32
}

// CreateHashIndex initializes a hash index with the given bucket count
// in an empty file.
func CreateHashIndex(buf *buffer.Manager, file int, buckets int) (*HashIndex, error) {
	if buf.NumPages(file) != 0 {
		return nil, fmt.Errorf("access: hash file %d not empty", file)
	}
	if buckets <= 0 {
		return nil, fmt.Errorf("access: bucket count must be positive")
	}
	meta, err := buf.NewPage(file)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(meta.Page[hMetaBuckets:], uint32(buckets))
	buf.Release(meta, true)
	for i := 0; i < buckets; i++ {
		b, err := buf.NewPage(file)
		if err != nil {
			return nil, err
		}
		initHashPage(b.Page)
		buf.Release(b, true)
	}
	return &HashIndex{buf: buf, file: file, nbuckets: uint32(buckets)}, nil
}

// OpenHashIndex opens an existing hash index.
func OpenHashIndex(buf *buffer.Manager, file int) (*HashIndex, error) {
	meta, err := buf.Get(nil, file, 0)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(meta.Page[hMetaBuckets:])
	buf.Release(meta, false)
	return &HashIndex{buf: buf, file: file, nbuckets: n}, nil
}

func initHashPage(p storage.Page) {
	binary.LittleEndian.PutUint16(p[hNOff:], 0)
	binary.LittleEndian.PutUint32(p[hNextOff:], hNoNext)
}

func hashN(p storage.Page) int       { return int(binary.LittleEndian.Uint16(p[hNOff:])) }
func setHashN(p storage.Page, n int) { binary.LittleEndian.PutUint16(p[hNOff:], uint16(n)) }
func hashNext(p storage.Page) uint32 { return binary.LittleEndian.Uint32(p[hNextOff:]) }
func setHashNext(p storage.Page, n uint32) {
	binary.LittleEndian.PutUint32(p[hNextOff:], n)
}
func hashKey(p storage.Page, i int) int64 {
	return int64(binary.LittleEndian.Uint64(p[hHdr+i*hEntry:]))
}
func hashTID(p storage.Page, i int) storage.TID {
	o := hHdr + i*hEntry
	return storage.TID{
		Page: binary.LittleEndian.Uint32(p[o+8:]),
		Slot: binary.LittleEndian.Uint16(p[o+12:]),
	}
}
func putHashEntry(p storage.Page, i int, k int64, tid storage.TID) {
	o := hHdr + i*hEntry
	binary.LittleEndian.PutUint64(p[o:], uint64(k))
	binary.LittleEndian.PutUint32(p[o+8:], tid.Page)
	binary.LittleEndian.PutUint16(p[o+12:], tid.Slot)
}

// bucketPage returns the page number of a key's bucket.
func (h *HashIndex) bucketPage(k int64) int {
	return 1 + int(value.Hash(value.NewInt(k))%uint64(h.nbuckets))
}

// Insert adds (key, tid), appending to the bucket's overflow chain as
// needed.
func (h *HashIndex) Insert(key int64, tid storage.TID) error {
	page := h.bucketPage(key)
	for {
		b, err := h.buf.GetForWrite(h.file, page)
		if err != nil {
			return err
		}
		n := hashN(b.Page)
		if n < hPageCap {
			putHashEntry(b.Page, n, key, tid)
			setHashN(b.Page, n+1)
			h.buf.Release(b, true)
			return nil
		}
		next := hashNext(b.Page)
		if next != hNoNext {
			h.buf.Release(b, false)
			page = int(next)
			continue
		}
		// Allocate an overflow page and link it.
		ob, err := h.buf.NewPage(h.file)
		if err != nil {
			h.buf.Release(b, false)
			return err
		}
		initHashPage(ob.Page)
		putHashEntry(ob.Page, 0, key, tid)
		setHashN(ob.Page, 1)
		setHashNext(b.Page, uint32(ob.PageNo))
		h.buf.Release(ob, true)
		h.buf.Release(b, true)
		return nil
	}
}

// HashScan iterates the TIDs matching one key. It reads the bucket
// chain through a pin of its own (see buffer.Pin). A scan the caller
// owns and seeks with Seek keeps the page it is on pinned — across
// Next and across re-seeks, one page at most — until Close, which its
// owner must call; the scan Lookup returns releases its page before
// every return, so it holds nothing between calls and needs no Close.
type HashScan struct {
	idx    *HashIndex
	key    int64
	page   uint32
	slot   int
	done   bool
	retain bool
	pin    buffer.Pin
}

// Lookup starts an equality scan for key (hash_search). The scan
// holds no pins; it need not be closed.
func (h *HashIndex) Lookup(tr probe.Tracer, key int64) *HashScan {
	s := new(HashScan)
	h.seek(tr, key, s)
	return s
}

// Seek is Lookup into a scan the caller owns and must Close: a join
// probing once per outer tuple re-seeks one HashScan instead of
// allocating each time, and keeps its bucket page while the key does.
func (h *HashIndex) Seek(tr probe.Tracer, key int64, s *HashScan) {
	s.retain = true
	h.seek(tr, key, s)
}

func (h *HashIndex) seek(tr probe.Tracer, key int64, s *HashScan) {
	rec := probe.Resolve(tr)
	probe.Emit(rec, probe.HashSearchEnter)
	probe.Emit(rec, probe.HashFunc)
	page := uint32(h.bucketPage(key))
	probe.Emit(rec, probe.HashSearchCont)
	s.idx, s.key, s.page, s.slot, s.done = h, key, page, 0, false
}

// Next returns the next matching TID; ok=false when the chain is
// exhausted.
func (s *HashScan) Next(tr probe.Tracer) (tid storage.TID, ok bool, err error) {
	tid, ok, err = s.next(tr)
	if !s.retain {
		s.pin.Release()
	}
	return tid, ok, err
}

func (s *HashScan) next(tr probe.Tracer) (tid storage.TID, ok bool, err error) {
	rec := probe.Resolve(tr)
	if s.done {
		probe.Emit(rec, probe.HashNextDone)
		return storage.TID{}, false, nil
	}
	for {
		probe.Emit(rec, probe.HashNextEnter)
		p, err := s.idx.buf.Repin(tr, &s.pin, s.idx.file, int(s.page))
		if err != nil {
			return storage.TID{}, false, err
		}
		probe.Emit(rec, probe.HashNextCont)
		n := hashN(p)
		for s.slot < n {
			i := s.slot
			s.slot++
			if hashKey(p, i) == s.key {
				probe.Emit(rec, probe.HashNextEmit)
				return hashTID(p, i), true, nil
			}
			probe.Emit(rec, probe.HashNextCmp)
		}
		next := hashNext(p)
		if next == hNoNext {
			s.done = true
			probe.Emit(rec, probe.HashNextEOF)
			return storage.TID{}, false, nil
		}
		probe.Emit(rec, probe.HashNextChain)
		s.page = next
		s.slot = 0
	}
}

// Close releases the scan's page and ends the scan; it may be seeked
// again. Closing a scan that holds nothing is a no-op.
func (s *HashScan) Close() {
	s.pin.Release()
	s.done = true
}
