package access

import (
	"encoding/binary"
	"fmt"

	"repro/internal/db/buffer"
	"repro/internal/db/probe"
	"repro/internal/db/storage"
)

// B-tree with int64 keys (TPC-D primary and foreign keys are integers;
// dates are day numbers). Duplicates are allowed (multi-entry foreign
// key indices) and ordered by (key, TID).
//
// File layout:
//
//	page 0: meta — root(4) | height(4)
//	nodes:  kind(1) | nkeys(2) | right(4) | [leftmost child(4)] | entries
//	        leaf entry:     key(8) | tidPage(4) | tidSlot(2)  = 14 bytes
//	        internal entry: key(8) | child(4)                 = 12 bytes
const (
	btMetaRoot   = 0
	btMetaHeight = 4

	btKindOff  = 0
	btNKeysOff = 1
	btRightOff = 3
	btHdr      = 7

	btLeafEntry = 14
	btIntEntry  = 12

	btLeaf     = 1
	btInternal = 2

	btNoRight = 0xFFFFFFFF
)

// btLeafCap and btIntCap leave slack so splits always fit.
var (
	btLeafCap = (storage.PageBytes - btHdr) / btLeafEntry
	btIntCap  = (storage.PageBytes - btHdr - 4) / btIntEntry
)

// BTree is a page-based B-tree index.
type BTree struct {
	buf  *buffer.Manager
	file int
}

// CreateBTree initializes an empty B-tree in the given (empty) file.
func CreateBTree(buf *buffer.Manager, file int) (*BTree, error) {
	if buf.NumPages(file) != 0 {
		return nil, fmt.Errorf("access: btree file %d not empty", file)
	}
	meta, err := buf.NewPage(file)
	if err != nil {
		return nil, err
	}
	root, err := buf.NewPage(file)
	if err != nil {
		buf.Release(meta, false)
		return nil, err
	}
	initNode(root.Page, btLeaf)
	binary.LittleEndian.PutUint32(meta.Page[btMetaRoot:], uint32(root.PageNo))
	binary.LittleEndian.PutUint32(meta.Page[btMetaHeight:], 1)
	buf.Release(root, true)
	buf.Release(meta, true)
	return &BTree{buf: buf, file: file}, nil
}

// OpenBTree opens an existing B-tree file.
func OpenBTree(buf *buffer.Manager, file int) *BTree {
	return &BTree{buf: buf, file: file}
}

func initNode(p storage.Page, kind byte) {
	for i := range p[:btHdr] {
		p[i] = 0
	}
	p[btKindOff] = kind
	binary.LittleEndian.PutUint32(p[btRightOff:], btNoRight)
}

func nodeKind(p storage.Page) byte { return p[btKindOff] }
func nodeN(p storage.Page) int     { return int(binary.LittleEndian.Uint16(p[btNKeysOff:])) }
func setNodeN(p storage.Page, n int) {
	binary.LittleEndian.PutUint16(p[btNKeysOff:], uint16(n))
}
func nodeRight(p storage.Page) uint32 { return binary.LittleEndian.Uint32(p[btRightOff:]) }
func setNodeRight(p storage.Page, r uint32) {
	binary.LittleEndian.PutUint32(p[btRightOff:], r)
}

// Leaf entry accessors.
func leafOff(i int) int { return btHdr + i*btLeafEntry }
func leafKey(p storage.Page, i int) int64 {
	return int64(binary.LittleEndian.Uint64(p[leafOff(i):]))
}
func leafTID(p storage.Page, i int) storage.TID {
	o := leafOff(i)
	return storage.TID{
		Page: binary.LittleEndian.Uint32(p[o+8:]),
		Slot: binary.LittleEndian.Uint16(p[o+12:]),
	}
}
func putLeaf(p storage.Page, i int, k int64, tid storage.TID) {
	o := leafOff(i)
	binary.LittleEndian.PutUint64(p[o:], uint64(k))
	binary.LittleEndian.PutUint32(p[o+8:], tid.Page)
	binary.LittleEndian.PutUint16(p[o+12:], tid.Slot)
}

// Internal entry accessors. Children: child(-1) is the leftmost
// pointer stored right after the header; entry i holds (key_i,
// child_i) where child_i serves keys >= key_i.
func intOff(i int) int { return btHdr + 4 + i*btIntEntry }
func intKey(p storage.Page, i int) int64 {
	return int64(binary.LittleEndian.Uint64(p[intOff(i):]))
}
func intChild(p storage.Page, i int) uint32 {
	if i < 0 {
		return binary.LittleEndian.Uint32(p[btHdr:])
	}
	return binary.LittleEndian.Uint32(p[intOff(i)+8:])
}
func putIntChild(p storage.Page, i int, c uint32) {
	if i < 0 {
		binary.LittleEndian.PutUint32(p[btHdr:], c)
		return
	}
	binary.LittleEndian.PutUint32(p[intOff(i)+8:], c)
}
func putIntEntry(p storage.Page, i int, k int64, c uint32) {
	o := intOff(i)
	binary.LittleEndian.PutUint64(p[o:], uint64(k))
	binary.LittleEndian.PutUint32(p[o+8:], c)
}

func (t *BTree) meta() (root uint32, height int, err error) {
	b, err := t.buf.Get(nil, t.file, 0)
	if err != nil {
		return 0, 0, err
	}
	root = binary.LittleEndian.Uint32(b.Page[btMetaRoot:])
	height = int(binary.LittleEndian.Uint32(b.Page[btMetaHeight:]))
	t.buf.Release(b, false)
	return root, height, nil
}

func (t *BTree) setMeta(root uint32, height int) error {
	b, err := t.buf.GetForWrite(t.file, 0)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(b.Page[btMetaRoot:], root)
	binary.LittleEndian.PutUint32(b.Page[btMetaHeight:], uint32(height))
	t.buf.Release(b, true)
	return nil
}

// leafLowerBound returns the first slot whose (key,TID) >= (k,tid).
func leafLowerBound(p storage.Page, k int64, tid storage.TID) int {
	lo, hi := 0, nodeN(p)
	for lo < hi {
		mid := (lo + hi) / 2
		mk := leafKey(p, mid)
		if mk < k || (mk == k && leafTID(p, mid).Less(tid)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intChildFor returns the child index for inserting key k: the last
// entry with key <= k, or -1 for the leftmost child.
func intChildFor(p storage.Page, k int64) int {
	lo, hi := 0, nodeN(p)
	for lo < hi {
		mid := (lo + hi) / 2
		if intKey(p, mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// intChildForSeek returns the child index for locating the *first*
// entry with key >= k. Because duplicates of a separator key may
// remain in the child left of it, the descent must take the child
// before the first separator >= k; the leaf-chain walk skips any
// too-small entries.
func intChildForSeek(p storage.Page, k int64) int {
	lo, hi := 0, nodeN(p)
	for lo < hi {
		mid := (lo + hi) / 2
		if intKey(p, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

type splitResult struct {
	split    bool
	sepKey   int64
	newChild uint32
}

// Insert adds (key, tid) to the tree. Loads run untraced.
func (t *BTree) Insert(key int64, tid storage.TID) error {
	root, height, err := t.meta()
	if err != nil {
		return err
	}
	res, err := t.insertInto(root, height, key, tid)
	if err != nil {
		return err
	}
	if !res.split {
		return nil
	}
	// Root split: new root with two children.
	nb, err := t.buf.NewPage(t.file)
	if err != nil {
		return err
	}
	initNode(nb.Page, btInternal)
	putIntChild(nb.Page, -1, root)
	putIntEntry(nb.Page, 0, res.sepKey, res.newChild)
	setNodeN(nb.Page, 1)
	newRoot := uint32(nb.PageNo)
	t.buf.Release(nb, true)
	return t.setMeta(newRoot, height+1)
}

func (t *BTree) insertInto(page uint32, level int, key int64, tid storage.TID) (splitResult, error) {
	b, err := t.buf.GetForWrite(t.file, int(page))
	if err != nil {
		return splitResult{}, err
	}
	if nodeKind(b.Page) == btLeaf {
		res, err := t.insertLeaf(b, key, tid)
		return res, err
	}
	ci := intChildFor(b.Page, key)
	child := intChild(b.Page, ci)
	t.buf.Release(b, false)
	res, err := t.insertInto(child, level-1, key, tid)
	if err != nil || !res.split {
		return splitResult{}, err
	}
	// Child split: insert separator into this node (re-pin).
	b, err = t.buf.GetForWrite(t.file, int(page))
	if err != nil {
		return splitResult{}, err
	}
	return t.insertInternal(b, res.sepKey, res.newChild)
}

// insertLeaf inserts into a pinned leaf, splitting if full. Releases b.
func (t *BTree) insertLeaf(b buffer.Buf, key int64, tid storage.TID) (splitResult, error) {
	n := nodeN(b.Page)
	pos := leafLowerBound(b.Page, key, tid)
	if n < btLeafCap {
		copy(b.Page[leafOff(pos+1):leafOff(n+1)], b.Page[leafOff(pos):leafOff(n)])
		putLeaf(b.Page, pos, key, tid)
		setNodeN(b.Page, n+1)
		t.buf.Release(b, true)
		return splitResult{}, nil
	}
	// Split: right half moves to a new leaf.
	nb, err := t.buf.NewPage(t.file)
	if err != nil {
		t.buf.Release(b, false)
		return splitResult{}, err
	}
	initNode(nb.Page, btLeaf)
	mid := n / 2
	moved := n - mid
	copy(nb.Page[leafOff(0):leafOff(moved)], b.Page[leafOff(mid):leafOff(n)])
	setNodeN(nb.Page, moved)
	setNodeN(b.Page, mid)
	setNodeRight(nb.Page, nodeRight(b.Page))
	setNodeRight(b.Page, uint32(nb.PageNo))
	// Insert into the proper half.
	if pos <= mid {
		nn := nodeN(b.Page)
		copy(b.Page[leafOff(pos+1):leafOff(nn+1)], b.Page[leafOff(pos):leafOff(nn)])
		putLeaf(b.Page, pos, key, tid)
		setNodeN(b.Page, nn+1)
	} else {
		p2 := pos - mid
		nn := nodeN(nb.Page)
		copy(nb.Page[leafOff(p2+1):leafOff(nn+1)], nb.Page[leafOff(p2):leafOff(nn)])
		putLeaf(nb.Page, p2, key, tid)
		setNodeN(nb.Page, nn+1)
	}
	sep := leafKey(nb.Page, 0)
	newChild := uint32(nb.PageNo)
	t.buf.Release(nb, true)
	t.buf.Release(b, true)
	return splitResult{split: true, sepKey: sep, newChild: newChild}, nil
}

// insertInternal inserts (sepKey -> newChild) into a pinned internal
// node, splitting if full. Releases b.
func (t *BTree) insertInternal(b buffer.Buf, sepKey int64, newChild uint32) (splitResult, error) {
	n := nodeN(b.Page)
	// Position: first entry with key > sepKey.
	pos := intChildFor(b.Page, sepKey) + 1
	if n < btIntCap {
		copy(b.Page[intOff(pos+1):intOff(n+1)], b.Page[intOff(pos):intOff(n)])
		putIntEntry(b.Page, pos, sepKey, newChild)
		setNodeN(b.Page, n+1)
		t.buf.Release(b, true)
		return splitResult{}, nil
	}
	// Split internal node: middle key moves up.
	nb, err := t.buf.NewPage(t.file)
	if err != nil {
		t.buf.Release(b, false)
		return splitResult{}, err
	}
	initNode(nb.Page, btInternal)
	mid := n / 2
	upKey := intKey(b.Page, mid)
	// Right node: entries mid+1..n-1; leftmost child = child(mid).
	putIntChild(nb.Page, -1, intChild(b.Page, mid))
	moved := n - mid - 1
	copy(nb.Page[intOff(0):intOff(moved)], b.Page[intOff(mid+1):intOff(n)])
	setNodeN(nb.Page, moved)
	setNodeN(b.Page, mid)
	if sepKey < upKey {
		nn := nodeN(b.Page)
		p := intChildFor(b.Page, sepKey) + 1
		copy(b.Page[intOff(p+1):intOff(nn+1)], b.Page[intOff(p):intOff(nn)])
		putIntEntry(b.Page, p, sepKey, newChild)
		setNodeN(b.Page, nn+1)
	} else {
		nn := nodeN(nb.Page)
		p := intChildFor(nb.Page, sepKey) + 1
		copy(nb.Page[intOff(p+1):intOff(nn+1)], nb.Page[intOff(p):intOff(nn)])
		putIntEntry(nb.Page, p, sepKey, newChild)
		setNodeN(nb.Page, nn+1)
	}
	res := splitResult{split: true, sepKey: upKey, newChild: uint32(nb.PageNo)}
	t.buf.Release(nb, true)
	t.buf.Release(b, true)
	return res, nil
}

// btCursorLevels is how many tree levels a cursor pins separately. A
// tree of int64 keys on 8 KB pages is this tall only past 10^11
// entries; deeper levels would share the last pin (and so re-pin on
// every descent) rather than fail.
const btCursorLevels = 4

// BTreeScan is a cursor over the leaf entries in key order. It reads
// every page through a pin of its own — one for the meta page, one per
// tree level, the leaf level's doubling as the scan position's — so a
// request for a page the cursor already holds (the next entry of the
// same leaf, the same root on the next seek) is answered by the pin
// and never reaches the pool; see buffer.Pin. The page requests
// themselves, and the probe events they emit, are the same whether a
// pin answers them or the pool.
//
// A cursor from Cursor retains its pins across Next and across
// re-seeks — at most tree height + 1 pages — until Close, which its
// owner must call. The scan that the value-returning BTree.SeekGE
// hands out is the same cursor with retention off:
// every call on it releases what it pinned before returning, so it
// holds nothing between calls and needs no Close.
type BTreeScan struct {
	tree   *BTree
	page   uint32
	slot   int
	leaf   int // index in levels of the pin the leaf is read through
	done   bool
	retain bool
	meta   buffer.Pin
	levels [btCursorLevels]buffer.Pin
}

// Cursor returns an unpositioned cursor that retains its pins; seek it
// with its SeekGE or SeekFirst, as often as needed, and Close it.
func (t *BTree) Cursor() BTreeScan {
	return BTreeScan{tree: t, done: true, retain: true}
}

// SeekGE returns a scan positioned at the first entry with key >= k
// (bt_search). The scan holds no pins; it need not be closed.
func (t *BTree) SeekGE(tr probe.Tracer, k int64) (BTreeScan, error) {
	s := BTreeScan{tree: t}
	err := s.SeekGE(tr, k)
	return s, err
}

// SeekGE repositions the cursor at the first entry with key >= k
// (bt_search).
func (s *BTreeScan) SeekGE(tr probe.Tracer, k int64) error {
	return s.seek(tr, k, false)
}

// SeekFirst repositions the cursor at the smallest key.
func (s *BTreeScan) SeekFirst(tr probe.Tracer) error {
	return s.seek(tr, 0, true)
}

func (s *BTreeScan) seek(tr probe.Tracer, k int64, leftmost bool) error {
	err := s.descend(tr, k, leftmost)
	if !s.retain {
		s.release()
	}
	return err
}

func (s *BTreeScan) descend(tr probe.Tracer, k int64, leftmost bool) error {
	t := s.tree
	rec := probe.Resolve(tr)
	s.done = true // unpositioned unless the descent reaches a leaf
	probe.Emit(rec, probe.BtSearchEnter)
	meta, err := t.buf.Repin(tr, &s.meta, t.file, 0)
	if err != nil {
		return err
	}
	page := binary.LittleEndian.Uint32(meta[btMetaRoot:])
	probe.Emit(rec, probe.BtSearchMeta)
	for lvl := 0; ; lvl++ {
		probe.Emit(rec, probe.BtSearchLevel)
		pin := min(lvl, btCursorLevels-1)
		p, err := t.buf.Repin(tr, &s.levels[pin], t.file, int(page))
		if err != nil {
			return err
		}
		if nodeKind(p) == btLeaf {
			s.page, s.slot, s.leaf, s.done = page, 0, pin, false
			if !leftmost {
				s.slot = leafLowerBound(p, k, storage.TID{})
			}
			probe.Emit(rec, probe.BtSearchDone)
			return nil
		}
		if leftmost {
			page = intChild(p, -1)
		} else {
			page = intChild(p, intChildForSeek(p, k))
		}
		probe.Emit(rec, probe.BtSearchCont)
	}
}

// Next returns the next (key, TID) in order; ok=false at the end
// (bt_next).
func (s *BTreeScan) Next(tr probe.Tracer) (key int64, tid storage.TID, ok bool, err error) {
	key, tid, ok, err = s.next(tr)
	if !s.retain {
		s.release()
	}
	return key, tid, ok, err
}

func (s *BTreeScan) next(tr probe.Tracer) (key int64, tid storage.TID, ok bool, err error) {
	rec := probe.Resolve(tr)
	if s.done {
		probe.Emit(rec, probe.BtNextDone)
		return 0, storage.TID{}, false, nil
	}
	t := s.tree
	for {
		probe.Emit(rec, probe.BtNextEnter)
		p, err := t.buf.Repin(tr, &s.levels[s.leaf], t.file, int(s.page))
		if err != nil {
			return 0, storage.TID{}, false, err
		}
		if s.slot < nodeN(p) {
			key = leafKey(p, s.slot)
			tid = leafTID(p, s.slot)
			s.slot++
			probe.Emit(rec, probe.BtNextEmit)
			return key, tid, true, nil
		}
		right := nodeRight(p)
		if right == btNoRight {
			s.done = true
			probe.Emit(rec, probe.BtNextEOF)
			return 0, storage.TID{}, false, nil
		}
		probe.Emit(rec, probe.BtNextStep)
		s.page = right
		s.slot = 0
	}
}

// Close releases the cursor's pins and leaves it unpositioned; it may
// be seeked again. Closing a cursor that holds nothing is a no-op.
func (s *BTreeScan) Close() {
	s.release()
	s.done = true
}

func (s *BTreeScan) release() {
	s.meta.Release()
	for i := range s.levels {
		s.levels[i].Release()
	}
}
