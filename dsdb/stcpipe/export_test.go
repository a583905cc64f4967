package stcpipe

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/dsdb"
)

// profileSplit records w on db as Profile and Run do — after base's
// trace when base is not nil — but on n sessions sharing its steps
// whatever the database: n = 1 is the serial run, and n > 1 forces the
// split Profile makes only on a resident database without a result
// cache.
func (p *Pipeline) profileSplit(db *dsdb.DB, w Workload, base *Profile, n int) (*Profile, error) {
	steps, err := w.steps("")
	if err != nil {
		return nil, err
	}
	pr := &Profile{pipe: p, extends: true}
	if base != nil {
		pr.tr, pr.counts = base.tr, base.counts
	}
	tr, counts, err := p.record(db, plan{lanes: [][]step{steps}, split: n}, pr.tr)
	if err != nil {
		return nil, err
	}
	pr.tr, pr.counts = tr, append(pr.counts[:len(pr.counts):len(pr.counts)], counts...)
	return pr, nil
}

// BlockHash is an FNV-64a of the recorded block stream (little-endian
// 32-bit block IDs in trace order), for the external test package.
func (pr *Profile) BlockHash() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, b := range pr.tr.Blocks {
		binary.LittleEndian.PutUint32(buf[:], uint32(b))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// LayoutAddrs renders one line per (configuration, layout) — the
// headline configuration, then every Table 3 row, five layouts each —
// with an FNV-64a of the layout's block addresses (little-endian
// 64-bit, in block-ID order) and the layout's end (the end of its last
// block in address order), for the external test package.
func (r *Report) LayoutAddrs() string {
	var b strings.Builder
	for _, p := range append([]Params{headline}, paperConfigs...) {
		for _, l := range r.layouts(p) {
			h := fnv.New64a()
			var buf [8]byte
			for _, a := range l.l.Addr {
				binary.LittleEndian.PutUint64(buf[:], a)
				h.Write(buf[:])
			}
			last := l.l.Order[len(l.l.Order)-1]
			end := l.l.Addr[last] + r.train.pipe.img.Prog.Block(last).SizeBytes()
			fmt.Fprintf(&b, "%4d/%-4d %-4s addrs=%016x end=%d\n", p.CacheBytes, p.CFABytes, l.Name(), h.Sum64(), end)
		}
	}
	return b.String()
}
