package dsdb_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/dsdb"
	"repro/internal/db/probe"
)

const cacheBudget = 64 << 20

// TestResultCacheServesRepeatsByteIdentical is the acceptance check:
// with the cache enabled, every TPC-D query run twice is served from
// the cache the second time, byte-identical both to its own first
// (uncached) run and to an identically seeded database without a
// cache.
func TestResultCacheServesRepeatsByteIdentical(t *testing.T) {
	plain := openTPCD(t, 0.001)
	defer plain.Close()
	cached := openTPCD(t, 0.001, dsdb.WithResultCache(cacheBudget))
	defer cached.Close()
	ctx := context.Background()
	for _, n := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(n)
		base, err := plain.Exec(ctx, q)
		if err != nil {
			t.Fatalf("uncached Q%d: %v", n, err)
		}
		first, err := cached.Exec(ctx, q)
		if err != nil {
			t.Fatalf("fill Q%d: %v", n, err)
		}
		rows, err := cached.Query(ctx, q)
		if err != nil {
			t.Fatalf("repeat Q%d: %v", n, err)
		}
		if !rows.CacheHit() {
			t.Fatalf("Q%d repeat was not served from cache", n)
		}
		second := &dsdb.Result{Columns: rows.Columns()}
		for rows.Next() {
			second.Rows = append(second.Rows, rows.Values())
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("repeat Q%d: %v", n, err)
		}
		rows.Close()
		if !reflect.DeepEqual(first, base) {
			t.Fatalf("Q%d: cached DB's first run differs from uncached baseline", n)
		}
		if !reflect.DeepEqual(second, base) {
			t.Fatalf("Q%d: cache hit differs from uncached baseline", n)
		}
	}
	st, ok := cached.ResultCacheStats()
	if !ok {
		t.Fatal("ResultCacheStats reported no cache")
	}
	want := uint64(len(dsdb.TPCDQueryNumbers()))
	if st.Hits != want {
		t.Fatalf("cache hits = %d, want %d", st.Hits, want)
	}
	// Exactly one counted miss per executed query: the one-shot fast
	// path and the statement execution must not both count the same
	// miss (that would halve the reported hit ratio).
	if st.Misses != want {
		t.Fatalf("cache misses = %d, want %d (double-counted misses skew the hit ratio)", st.Misses, want)
	}
	if _, ok := plain.ResultCacheStats(); ok {
		t.Fatal("uncached DB reports a cache")
	}
}

// TestResultCacheHitRunsNoKernelWork proves the instruction-stream
// collapse at the probe level: a traced cache hit emits zero kernel
// instrumentation events and takes zero buffer pool traffic.
func TestResultCacheHitRunsNoKernelWork(t *testing.T) {
	db := openTPCD(t, 0.0005, dsdb.WithResultCache(cacheBudget))
	defer db.Close()
	ctx := context.Background()
	q, _ := dsdb.TPCDQuery(6)
	if _, err := db.Exec(ctx, q); err != nil {
		t.Fatal(err)
	}
	h0, m0 := db.Engine().Buf.Stats()
	tr := probe.NewCountingTracer()
	rows, err := db.QueryTraced(ctx, tr, q)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.CacheHit() {
		t.Fatal("repeat not served from cache")
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if n != 1 {
		t.Fatalf("Q6 returned %d rows, want 1", n)
	}
	if got := probeEvents(tr); got != 0 {
		t.Fatalf("cache hit emitted %d probe events, want 0", got)
	}
	h1, m1 := db.Engine().Buf.Stats()
	if h1 != h0 || m1 != m0 {
		t.Fatalf("cache hit touched the buffer pool: hits %d→%d misses %d→%d", h0, h1, m0, m1)
	}
}

// TestResultCacheCanonicalKey checks key canonicalization: different
// spellings (case, whitespace) of one query share an entry, while a
// different literal is a different query.
func TestResultCacheCanonicalKey(t *testing.T) {
	db := openTPCD(t, 0.0005, dsdb.WithResultCache(cacheBudget))
	defer db.Close()
	ctx := context.Background()
	if _, err := db.Exec(ctx, "select count(*) from orders where o_orderkey < 100"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(ctx, "SELECT   COUNT(*)\nFROM orders\n WHERE o_orderkey < 100")
	if err != nil {
		t.Fatal(err)
	}
	hit := func(r *dsdb.Rows, err error) bool {
		if err != nil {
			t.Fatal(err)
		}
		for r.Next() {
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		h := r.CacheHit()
		r.Close()
		return h
	}
	if !hit(rows, nil) {
		t.Fatal("respelled query missed the cache")
	}
	if hit(db.Query(ctx, "select count(*) from orders where o_orderkey < 101")) {
		t.Fatal("different literal must not share a cache entry")
	}
}

// TestResultCacheInvalidationOnInsert is the epoch-invalidation
// acceptance check: a cached query re-run after an insert into a
// referenced table reflects the new rows (and misses), while a query
// over untouched tables keeps hitting.
func TestResultCacheInvalidationOnInsert(t *testing.T) {
	db := openTPCD(t, 0.0005, dsdb.WithResultCache(cacheBudget))
	defer db.Close()
	ctx := context.Background()
	if err := db.CreateTable("audit", dsdb.Col("a_id", dsdb.Int)); err != nil {
		t.Fatal(err)
	}
	count := func() (int64, bool) {
		rows, err := db.Query(ctx, "select count(*) from audit")
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var n int64
		for rows.Next() {
			if err := rows.Scan(&n); err != nil {
				t.Fatal(err)
			}
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return n, rows.CacheHit()
	}
	if n, hit := count(); n != 0 || hit {
		t.Fatalf("first run: n=%d hit=%v, want 0/false", n, hit)
	}
	if n, hit := count(); n != 0 || !hit {
		t.Fatalf("repeat: n=%d hit=%v, want 0/true", n, hit)
	}
	if err := db.Insert("audit", dsdb.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if n, hit := count(); n != 1 || hit {
		t.Fatalf("post-insert: n=%d hit=%v, want 1/false (stale serve!)", n, hit)
	}
	if n, hit := count(); n != 1 || !hit {
		t.Fatalf("post-insert repeat: n=%d hit=%v, want 1/true", n, hit)
	}
	// An unrelated query's entry survives the audit writes.
	q, _ := dsdb.TPCDQuery(6)
	if _, err := db.Exec(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("audit", dsdb.NewInt(2)); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if !rows.CacheHit() {
		t.Fatal("unrelated table's write invalidated Q6's entry")
	}
	rows.Close()
}

// TestResultCacheConcurrentWriters is the -race suite of the
// invalidation satellite: N readers hammer one cached aggregate while
// a writer inserts rows with a deterministic pattern. Stale results
// must never be served — every observed (count, sum) pair must
// satisfy the writer's invariant, each reader's view must move
// forward only (a cache serving old state after newer state was
// observed is a staleness bug), and the final cached result must
// byte-compare against an uncached baseline holding the same rows.
func TestResultCacheConcurrentWriters(t *testing.T) {
	db := openTPCD(t, 0.0005, dsdb.WithResultCache(cacheBudget))
	defer db.Close()
	ctx := context.Background()
	if err := db.CreateTable("ledger", dsdb.Col("l_id", dsdb.Int)); err != nil {
		t.Fatal(err)
	}
	const rows, readers = 300, 4
	const query = "select count(*), sum(l_id) from ledger"

	var wg sync.WaitGroup
	errs := make([]error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Insert 0,1,2,...: after n inserts, sum = n(n-1)/2.
		for i := 0; i < rows; i++ {
			if err := db.Insert("ledger", dsdb.NewInt(int64(i))); err != nil {
				errs[readers] = err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := int64(-1)
			for i := 0; i < 100; i++ {
				res, err := db.Exec(ctx, query)
				if err != nil {
					errs[r] = err
					return
				}
				if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
					errs[r] = fmt.Errorf("reader %d: malformed result %+v", r, res)
					return
				}
				n := res.Rows[0][0].I
				var sum int64
				switch v := res.Rows[0][1]; v.T {
				case dsdb.Int:
					sum = v.I
				case dsdb.Float:
					sum = int64(v.F)
				}
				if want := n * (n - 1) / 2; sum != want {
					errs[r] = fmt.Errorf("reader %d: torn/stale result: count=%d sum=%d want %d", r, n, sum, want)
					return
				}
				if n < last {
					errs[r] = fmt.Errorf("reader %d: went backwards: saw count %d after %d (stale cache serve)", r, n, last)
					return
				}
				last = n
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Final state: the cached answer (fill + hit) must byte-compare
	// against an uncached baseline database holding identical rows.
	base := openTPCD(t, 0.0005)
	defer base.Close()
	if err := base.CreateTable("ledger", dsdb.Col("l_id", dsdb.Int)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := base.Insert("ledger", dsdb.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	want, err := base.Exec(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // pass 1 fills (or hits), pass 2 hits
		got, err := db.Exec(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: cached result differs from uncached baseline: %+v vs %+v", pass+1, got, want)
		}
	}
	if st, _ := db.ResultCacheStats(); st.Hits == 0 {
		t.Fatal("suite never exercised a cache hit")
	}
}

// TestResultCacheQueryRowFillsAndHits: QueryRow on a single-row
// result must drain to exhaustion so the cache publishes it —
// repeated point-aggregate traffic, the commonest DSS shape, has to
// hit like Query/Exec.
func TestResultCacheQueryRowFillsAndHits(t *testing.T) {
	db := openTPCD(t, 0.0005, dsdb.WithResultCache(cacheBudget))
	defer db.Close()
	ctx := context.Background()
	q, _ := dsdb.TPCDQuery(6)
	var first, second float64
	if err := db.QueryRow(ctx, q).Scan(&first); err != nil {
		t.Fatal(err)
	}
	st, _ := db.ResultCacheStats()
	if st.Entries != 1 {
		t.Fatalf("QueryRow did not fill the cache: %+v", st)
	}
	if err := db.QueryRow(ctx, q).Scan(&second); err != nil {
		t.Fatal(err)
	}
	st, _ = db.ResultCacheStats()
	if st.Hits != 1 || second != first {
		t.Fatalf("QueryRow repeat: hits=%d (want 1), values %v vs %v", st.Hits, second, first)
	}
}

// TestResultCachePartialConsumptionDoesNotFill: a Rows closed before
// exhaustion must not publish a truncated result.
func TestResultCachePartialConsumptionDoesNotFill(t *testing.T) {
	db := openTPCD(t, 0.0005, dsdb.WithResultCache(cacheBudget))
	defer db.Close()
	ctx := context.Background()
	const q = "select o_orderkey from orders"
	rows, err := db.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no rows")
	}
	rows.Close() // abandoned mid-stream
	full, err := db.Exec(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := db.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows2.Next() {
		n++
	}
	hit := rows2.CacheHit()
	rows2.Close()
	if !hit {
		t.Fatal("fully drained Exec should have filled the cache")
	}
	if n != len(full.Rows) {
		t.Fatalf("cache served %d rows, executor produced %d (truncated fill?)", n, len(full.Rows))
	}
}

// TestResultCacheAdmissionThreshold pins the WithResultCacheAdmission
// wiring: with an unreachably high threshold nothing is admitted (and
// the rejects are counted), with the policy off everything is.
func TestResultCacheAdmissionThreshold(t *testing.T) {
	ctx := context.Background()
	q, _ := dsdb.TPCDQuery(6)

	strict := openTPCD(t, 0.0005, dsdb.WithResultCache(cacheBudget),
		dsdb.WithResultCacheAdmission(time.Hour))
	defer strict.Close()
	for i := 0; i < 2; i++ {
		if _, err := strict.Exec(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := strict.ResultCacheStats()
	if st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("hour-threshold cache admitted entries: %+v", st)
	}
	if st.AdmissionRejects == 0 {
		t.Fatalf("admission rejects not counted: %+v", st)
	}

	open := openTPCD(t, 0.0005, dsdb.WithResultCache(cacheBudget))
	defer open.Close()
	if _, err := open.Exec(ctx, q); err != nil {
		t.Fatal(err)
	}
	rows, err := open.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	hit := rows.CacheHit()
	rows.Close()
	if !hit {
		t.Fatal("no-threshold cache did not serve the repeat")
	}
}

// TestResultCacheTTLExpiry pins the WithResultCacheTTL wiring with an
// injected clock: entries serve inside the TTL and expire (counted as
// misses) past it, after which a re-execution refills.
func TestResultCacheTTLExpiry(t *testing.T) {
	ctx := context.Background()
	q, _ := dsdb.TPCDQuery(6)
	db := openTPCD(t, 0.0005, dsdb.WithResultCache(cacheBudget),
		dsdb.WithResultCacheTTL(time.Minute))
	defer db.Close()

	base := time.Now()
	now := base
	db.ResultCache().SetNowFunc(func() time.Time { return now })

	if _, err := db.Exec(ctx, q); err != nil { // fill
		t.Fatal(err)
	}
	hitNow := func() bool {
		t.Helper()
		rows, err := db.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		for rows.Next() {
		}
		return rows.CacheHit()
	}
	now = base.Add(30 * time.Second)
	if !hitNow() {
		t.Fatal("entry expired inside its TTL")
	}
	before, _ := db.ResultCacheStats()
	now = base.Add(2 * time.Minute)
	if hitNow() { // expired: this execution is a miss and a refill
		t.Fatal("entry served past its TTL")
	}
	after, _ := db.ResultCacheStats()
	if after.Expirations != before.Expirations+1 {
		t.Fatalf("expirations %d -> %d, want +1", before.Expirations, after.Expirations)
	}
	if after.Misses != before.Misses+1 {
		t.Fatalf("expired Get not counted as a miss: %+v", after)
	}
	// The refill (stored at the new clock) serves again.
	now = now.Add(30 * time.Second)
	if !hitNow() {
		t.Fatal("refilled entry did not serve inside its new TTL")
	}
}

// TestResultCacheRawTextAlias pins what the raw-text fast path may not
// change. After its first hit a query text is answered by one alias
// lookup, without being parsed — and every counter, every invalidation
// and every row must be what the canonical lookup would have produced:
// one hit or one miss per execution; an Insert on a referenced table
// turns the next raw-text lookup into a miss and an invalidation whose
// re-execution byte-compares with an uncached database; the alias's
// bytes leave with the invalidated entry; and spellings beyond the
// per-entry alias cap still share the one entry and still hit.
func TestResultCacheRawTextAlias(t *testing.T) {
	ctx := context.Background()
	plain := openTPCD(t, 0.0005)
	defer plain.Close()
	db := openTPCD(t, 0.0005, dsdb.WithResultCache(cacheBudget))
	defer db.Close()
	for _, d := range []*dsdb.DB{plain, db} {
		if err := d.CreateTable("audit", dsdb.Col("a_id", dsdb.Int)); err != nil {
			t.Fatal(err)
		}
		if err := d.Insert("audit", dsdb.NewInt(7)); err != nil {
			t.Fatal(err)
		}
	}
	const q = "select count(*), sum(a_id) from audit"
	run := func(d *dsdb.DB, text string) (*dsdb.Result, bool) {
		t.Helper()
		rows, err := d.Query(ctx, text)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		res := &dsdb.Result{Columns: rows.Columns()}
		for rows.Next() {
			res.Rows = append(res.Rows, rows.Values())
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return res, rows.CacheHit()
	}
	stats := func() (st struct{ hits, misses, inval uint64 }, used int64) {
		s, _ := db.ResultCacheStats()
		st.hits, st.misses, st.inval = s.Hits, s.Misses, s.Invalidations
		return st, s.UsedBytes
	}

	if _, hit := run(db, q); hit {
		t.Fatal("fill was a hit")
	}
	_, filled := stats()
	const hits = 5 // the first by canonical key, the rest by raw text
	for i := 0; i < hits; i++ {
		if _, hit := run(db, q); !hit {
			t.Fatalf("repeat %d missed", i)
		}
	}
	st, aliased := stats()
	if st.hits != hits || st.misses != 1 || st.inval != 0 {
		t.Fatalf("after 1 fill and %d repeats: %+v, want %d hits and 1 miss", hits, st, hits)
	}
	if aliased <= filled {
		t.Fatalf("UsedBytes %d after the alias, %d before: the alias is not charged", aliased, filled)
	}

	for _, d := range []*dsdb.DB{plain, db} {
		if err := d.Insert("audit", dsdb.NewInt(35)); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := run(plain, q)
	got, hit := run(db, q)
	if hit {
		t.Fatal("raw-text lookup served a result from before the Insert")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("re-execution after the Insert = %v, uncached database says %v", got, want)
	}
	st, refilled := stats()
	if st.hits != hits || st.misses != 2 || st.inval != 1 {
		t.Fatalf("after the Insert: %+v, want one more miss and one invalidation", st)
	}
	if refilled != filled {
		t.Fatalf("UsedBytes %d after invalidation and refill, want the pre-alias %d", refilled, filled)
	}

	spellings := []string{
		"SELECT count(*), sum(a_id) FROM audit",
		"select  count(*),  sum(a_id)  from  audit",
		"select count(*), sum(a_id)\nfrom audit",
		"\tselect count(*), sum(a_id) from audit",
		"select count(*), sum(a_id) from audit ",
		"Select Count(*), Sum(a_id) From audit",
		"select count(*),sum(a_id) from audit",
	}
	for pass := 0; pass < 2; pass++ {
		for _, s := range spellings {
			got, hit := run(db, s)
			if !hit || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("pass %d, spelling %q: hit=%v rows=%v, want a hit with %v", pass, s, hit, got.Rows, want.Rows)
			}
		}
	}
	if s, _ := db.ResultCacheStats(); s.Entries != 1 || s.Hits != hits+uint64(2*len(spellings)) || s.Misses != 2 {
		t.Fatalf("after %d spellings twice: %+v, want one entry, every spelling a hit", len(spellings), s)
	}
}
