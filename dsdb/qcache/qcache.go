// Package qcache is the query result cache of the dsdb family: a
// memory-bounded, LRU-evicting map from canonicalized SQL text to
// fully materialized result sets, kept consistent by per-table write
// epochs. The paper's premise is that decision-support workloads
// re-execute a small set of heavy queries; the cheapest instruction
// fetch is the one never issued, and a cache hit answers a repeated
// query without running the executor at all.
//
// Consistency model: every entry remembers the write epoch of each
// table its query reads, captured while the filling execution held the
// engine's shared latch (writers excluded, so the snapshot is
// consistent by construction). Get revalidates those epochs against
// the engine's current ones — any Insert or DDL on a referenced table
// bumps its epoch, so a stale entry can never be served; it is dropped
// on first touch and refilled by the next miss.
//
// The cache itself is storage-agnostic and engine-agnostic: keys are
// strings, validation is a callback, and byte accounting is the
// deterministic EntryBytes model — which is also what the eviction
// tests pin. Two optional policies refine what is kept: an admission
// threshold (Config.MinCost) refuses results whose first execution was
// cheaper than the threshold, so sub-millisecond queries cannot evict
// expensive ones, and a TTL (Config.TTL) expires entries by wall clock
// for workloads whose answers go stale even when no table changes.
// dsdb.Open(dsdb.WithResultCache(n)) owns the only instance most
// programs need; both the in-process and the served query paths share
// it.
//
// Aliases: the key is the canonical text, which a caller only has after
// lexing the query — on a hit that is most of the work left. So an entry
// also remembers up to maxAliases raw query texts that resolved to it
// (AddAlias, called by dsdb after a hit on the canonical key), and
// GetRaw answers a query by its raw text with one map lookup and no
// lexer. An alias is a second name for the entry, nothing more: GetRaw
// runs the same TTL and epoch validation as Get and counts the same
// single hit (or miss, invalidation, expiration); its bytes are charged
// to the entry under the same MaxBytes; it goes when the entry goes
// (evicted, invalidated, expired, replaced by a Put). A raw text that is
// no alias counts nothing — the caller canonicalises and calls Get, as
// it would have without aliases — so case and whitespace variants still
// share one entry, and variants beyond the per-entry cap still hit, the
// slow way.
package qcache

import (
	"container/list"
	"sync"
	"time"

	"repro/dsdb/obs"
	"repro/internal/db/value"
)

// Result is one materialized result set: output column names plus
// every row, in order. Entries are shared between the cache and all
// readers serving from it — treat a Result obtained from Get as
// immutable (dsdb's Rows copies on Values/Scan, never in place).
type Result struct {
	Columns []string
	Rows    [][]value.Value
}

// Footprint is the table set a query reads, with the write epoch of
// each table observed while the filling execution ran. Tables and
// Epochs are parallel slices.
type Footprint struct {
	Tables []string
	Epochs []uint64
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts Gets served from the cache.
	Hits uint64
	// Misses counts Gets that found nothing servable (absent or
	// invalidated).
	Misses uint64
	// Evictions counts entries dropped to fit the byte budget.
	Evictions uint64
	// Invalidations counts entries dropped because a referenced
	// table's epoch moved.
	Invalidations uint64
	// Expirations counts entries dropped because they outlived the
	// configured TTL (each also counted as a miss by the Get that
	// found it expired).
	Expirations uint64
	// AdmissionRejects counts Puts refused by the admission policy:
	// results whose first execution was cheaper than MinCost.
	AdmissionRejects uint64
	// Entries is the current number of cached result sets.
	Entries int
	// UsedBytes and MaxBytes are the accounted footprint and the
	// configured budget.
	UsedBytes, MaxBytes int64
}

// Section declares the cache's counters: SHOW cache, the cache_* stat
// pairs and the dsdb_result_cache_* series. enabled is false for a
// database opened without a result cache, whose zero Stats then render
// as zeros under SHOW and nowhere else.
func (s Stats) Section(enabled bool) obs.Section {
	sec := obs.Section{Name: "cache", Prom: "result_cache_", Optional: true, Disabled: !enabled}
	sec.Counter("hits", s.Hits)
	sec.Counter("misses", s.Misses)
	sec.Gauge("entries", int64(s.Entries))
	sec.Gauge("used_bytes", s.UsedBytes)
	sec.Gauge("max_bytes", s.MaxBytes)
	sec.Counter("evictions", s.Evictions)
	sec.Counter("invalidations", s.Invalidations)
	sec.Counter("expirations", s.Expirations)
	sec.Counter("admission_rejects", s.AdmissionRejects)
	return sec
}

// entry is one cached result set plus its LRU hook and accounting.
type entry struct {
	key     string
	fp      Footprint
	res     *Result
	size    int64     // EntryBytes plus the entry's aliases
	stored  time.Time // fill time, for TTL expiry
	elem    *list.Element
	aliases []string // raw query texts in Cache.aliases that name this entry
}

// maxAliases bounds the raw texts remembered per entry. Clients send a
// query as a handful of literal strings (a driver's, a dashboard's); the
// cap only keeps a client that formats every request differently from
// filling the budget with names for one result.
const maxAliases = 4

// Config selects the cache's budget and policies.
type Config struct {
	// MaxBytes bounds the accounted result data (see EntryBytes). A
	// non-positive budget yields a cache that stores nothing but still
	// counts misses.
	MaxBytes int64
	// TTL, when positive, expires entries this long after they were
	// filled: an expired entry is dropped on first touch and its Get
	// counts as a miss — for workloads whose answers go stale by wall
	// clock even though no tracked table changed.
	TTL time.Duration
	// MinCost, when positive, is the admission threshold: a result
	// whose first execution took less than this is not cached at all.
	// Sub-millisecond queries are cheaper to re-run than the cache
	// space they would steal from expensive ones.
	MinCost time.Duration
}

// Cache is a memory-bounded query result cache, safe for concurrent
// use.
type Cache struct {
	mu      sync.Mutex
	cfg     Config
	used    int64
	lru     *list.List // front = most recently used; values are *entry
	entries map[string]*entry
	aliases map[string]*entry // raw query text -> the entry it resolved to
	now     func() time.Time

	hits, misses, evictions, invalidations uint64
	expirations, admissionRejects          uint64
}

// New returns a cache bounded to maxBytes with no TTL and no admission
// threshold (every result is cacheable).
func New(maxBytes int64) *Cache {
	return NewWith(Config{MaxBytes: maxBytes})
}

// NewWith returns a cache with explicit policies.
func NewWith(cfg Config) *Cache {
	return &Cache{cfg: cfg, lru: list.New(), entries: make(map[string]*entry), aliases: make(map[string]*entry), now: time.Now}
}

// SetNowFunc replaces the cache's clock — the injectable time source
// TTL tests and simulations use. Call before concurrent use.
func (c *Cache) SetNowFunc(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// MaxBytes returns the configured byte budget.
func (c *Cache) MaxBytes() int64 { return c.cfg.MaxBytes }

// Get returns the cached result for key if one is present and still
// valid: the entry must be younger than the TTL (when one is set) and
// cur is consulted for every table of the entry's footprint, serving
// only if each epoch is unchanged. A stale or expired entry is removed
// (counted as an invalidation or expiration) and reported as a miss.
// The returned Result is shared — do not mutate it.
func (c *Cache) Get(key string, cur func(table string) uint64) (*Result, bool) {
	res, _, hit := c.get(key, false, cur)
	return res, hit
}

// GetRaw is Get by a query's raw text. known reports whether raw is an
// alias of some entry: if so the probe has been validated and counted
// exactly as a Get of that entry's key (res is nil when that was a
// miss) and the caller must not probe again; if not, nothing was
// counted and the caller falls back to canonicalising and Get.
func (c *Cache) GetRaw(raw string, cur func(table string) uint64) (res *Result, known bool) {
	res, known, _ = c.get(raw, true, cur)
	return res, known
}

// get is the one lookup behind Get and GetRaw: name is an alias or a
// key. found reports whether it named an entry — when it did not, a key
// counts a miss and an alias counts nothing.
func (c *Cache) get(name string, alias bool, cur func(table string) uint64) (res *Result, found, hit bool) {
	// cur and c.now are caller-supplied callbacks; running either under
	// c.mu invites deadlock if the callback re-enters the cache (the
	// PR 4 bug class, now enforced statically by dsdblint's tracerlock).
	// So the clock is sampled before locking and epoch validation runs
	// between two critical sections, with an identity recheck in the
	// second one to tolerate a racing remove.
	var start time.Time
	if c.cfg.TTL > 0 {
		start = c.now()
	}
	c.mu.Lock()
	index := c.entries
	if alias {
		index = c.aliases
	}
	e, ok := index[name]
	if !ok {
		if !alias {
			c.misses++
		}
		c.mu.Unlock()
		return nil, false, false
	}
	if c.cfg.TTL > 0 && start.Sub(e.stored) >= c.cfg.TTL {
		c.expirations++
		c.remove(e)
		c.misses++
		c.mu.Unlock()
		return nil, true, false
	}
	fp, res := e.fp, e.res
	c.mu.Unlock()

	stale := false
	for i, t := range fp.Tables {
		if cur(t) != fp.Epochs[i] {
			stale = true
			break
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if stale {
		if c.entries[e.key] == e {
			c.invalidations++
			c.remove(e)
		}
		c.misses++
		return nil, true, false
	}
	c.hits++
	if c.entries[e.key] == e {
		c.lru.MoveToFront(e.elem)
	}
	return res, true, true
}

// AddAlias records raw as another name for key's entry, so the next
// GetRaw(raw) finds it without canonicalising. It is a no-op when key
// has no entry, raw already names one, the entry holds maxAliases
// already, or the alias would not fit the budget even after evicting
// every other entry. The alias's bytes are charged to the entry.
func (c *Cache) AddAlias(key, raw string) {
	size := aliasOverhead + int64(len(raw))
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || len(e.aliases) >= maxAliases || c.aliases[raw] != nil {
		return
	}
	if !c.makeRoom(size, e) {
		return
	}
	e.aliases = append(e.aliases, raw)
	c.aliases[raw] = e
	e.size += size
	c.used += size
}

// makeRoom evicts least-recently-used entries, never keep, until size
// more bytes fit the budget; false if they cannot. The caller holds
// c.mu.
func (c *Cache) makeRoom(size int64, keep *entry) bool {
	for c.used+size > c.cfg.MaxBytes {
		back := c.lru.Back()
		if back == nil || back.Value.(*entry) == keep {
			return false
		}
		c.evictions++
		c.remove(back.Value.(*entry))
	}
	return true
}

// Put inserts (or replaces) the result for key, evicting
// least-recently-used entries until the budget holds. cost is the wall
// time the filling execution took: under an admission threshold
// (Config.MinCost), a result cheaper than the threshold is refused
// before it can evict anything — pass a negative cost to bypass the
// policy. An entry larger than the whole budget is likewise rejected
// (returns false): the cache never overcommits. len(fp.Tables) must
// equal len(fp.Epochs).
func (c *Cache) Put(key string, fp Footprint, res *Result, cost time.Duration) bool {
	size := EntryBytes(key, fp, res)
	// The injectable clock is user code: sample it before taking c.mu
	// (SetNowFunc's contract already requires it be set before
	// concurrent use).
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.MinCost > 0 && cost >= 0 && cost < c.cfg.MinCost {
		c.admissionRejects++
		return false
	}
	if size > c.cfg.MaxBytes {
		return false
	}
	if old, ok := c.entries[key]; ok {
		c.remove(old)
	}
	c.makeRoom(size, nil)
	e := &entry{key: key, fp: fp, res: res, size: size, stored: now}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.used += size
	return true
}

// Invalidate drops every entry whose footprint includes the table —
// a coarse hook for callers that mutate tables outside the epoch
// protocol. Returns the number of entries dropped.
func (c *Cache) Invalidate(table string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.entries {
		for _, t := range e.fp.Tables {
			if t == table {
				c.remove(e)
				c.invalidations++
				n++
				break
			}
		}
	}
	return n
}

// Clear drops every entry.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.entries = make(map[string]*entry)
	c.aliases = make(map[string]*entry)
	c.used = 0
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:             c.hits,
		Misses:           c.misses,
		Evictions:        c.evictions,
		Invalidations:    c.invalidations,
		Expirations:      c.expirations,
		AdmissionRejects: c.admissionRejects,
		Entries:          len(c.entries),
		UsedBytes:        c.used,
		MaxBytes:         c.cfg.MaxBytes,
	}
}

// remove unlinks an entry and its aliases; the caller holds c.mu.
func (c *Cache) remove(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	for _, raw := range e.aliases {
		delete(c.aliases, raw)
	}
	c.used -= e.size
}

// Accounting model: deliberately simple and deterministic, so tests
// can pin the budget exactly. Each value costs a fixed overhead plus
// its string payload; rows and the entry itself add slice/bookkeeping
// overheads. The constants approximate Go's in-memory cost (a
// value.Value is a 40-byte struct; slice headers are 24 bytes) — the
// point is a stable, slightly conservative bound, not byte-perfect
// heap measurement.
const (
	valueOverhead = 48
	sliceOverhead = 24
	entryOverhead = 160
	aliasOverhead = 48 // the alias map's slot and the entry's list element
)

// ValueBytes returns the accounted size of one datum.
func ValueBytes(v value.Value) int64 { return valueOverhead + int64(len(v.S)) }

// RowBytes returns the accounted size of one row.
func RowBytes(row []value.Value) int64 {
	n := int64(sliceOverhead)
	for _, v := range row {
		n += ValueBytes(v)
	}
	return n
}

// ResultBytes returns the accounted size of a result set (columns and
// rows, without the entry bookkeeping).
func ResultBytes(res *Result) int64 {
	n := int64(sliceOverhead)
	for _, col := range res.Columns {
		n += sliceOverhead + int64(len(col))
	}
	for _, row := range res.Rows {
		n += RowBytes(row)
	}
	return n
}

// EntryBytes returns the accounted size of a whole cache entry: key,
// footprint and result. This is the unit the budget is enforced in.
func EntryBytes(key string, fp Footprint, res *Result) int64 {
	n := entryOverhead + int64(len(key)) + ResultBytes(res)
	for _, t := range fp.Tables {
		n += 8 + sliceOverhead + int64(len(t))
	}
	return n
}
