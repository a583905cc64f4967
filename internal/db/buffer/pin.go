package buffer

import (
	"repro/internal/db/probe"
	"repro/internal/db/storage"
)

// Pin is a retained pin: a small caller-owned handle that keeps the
// page it was last asked for pinned until it is asked for another one
// or released. A scan that reads many entries from one page, or an
// index descent that passes the same root for every probe, asks its
// Pin each time exactly as it would ask the pool; when the Pin already
// holds that page the request costs a comparison and touches nothing
// shared.
//
// Such a request is still a request: it emits the ReadBuffer hit
// events and counts as a hit in Stats (the count is kept in the Pin
// and added to the frame's when the Pin lets go of the page), so
// traces, EXPLAIN ANALYZE buffer counts and the hit/miss totals are
// what they were when every request went to the pool.
//
// The zero Pin holds nothing. A Pin is not safe for concurrent use,
// pages read through it are read-only (there is no dirty release),
// and its owner must Release it: a held page is a frame the clock
// cannot reuse.
type Pin struct {
	m    *Manager
	f    *frame
	hits uint64 // requests answered from f, not yet in f.pinHits
}

// Repin makes p hold the given page and returns its contents, valid
// until p is repinned elsewhere or released. If p holds another page
// that one is released first, also when the request then fails.
func (m *Manager) Repin(tr probe.Tracer, p *Pin, file, page int) (storage.Page, error) {
	rec := probe.Resolve(tr)
	k := keyOf(file, page)
	if f := p.f; f != nil {
		// f.key is stable while pinned.
		if f.key == k && p.m == m {
			p.hits++
			probe.Emit(rec, probe.BufGetEnter)
			probe.Emit(rec, probe.BufTableLookup)
			probe.Emit(rec, probe.BufGetHit)
			return f.page.Load()[:], nil
		}
		p.Release()
	}
	f, err := m.pin(tr, rec, k)
	if err != nil {
		return nil, err
	}
	p.m, p.f = m, f
	return f.page.Load()[:], nil
}

// Release unpins the held page, if any. It takes no lock.
func (p *Pin) Release() {
	f := p.f
	if f == nil {
		return
	}
	if p.hits > 0 {
		f.pinHits.Add(p.hits)
		p.hits = 0
	}
	p.f = nil
	f.pins.Add(-1)
}
