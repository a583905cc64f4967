package qcache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/db/value"
)

// res builds a result of n rows × (int, str) columns with a payload
// string of the given length, so entry sizes are easy to predict.
func res(n, strLen int) *Result {
	r := &Result{Columns: []string{"a", "b"}}
	for i := 0; i < n; i++ {
		r.Rows = append(r.Rows, []value.Value{
			value.NewInt(int64(i)),
			value.NewStr(string(make([]byte, strLen))),
		})
	}
	return r
}

func fp(epochs map[string]uint64, tables ...string) Footprint {
	f := Footprint{Tables: tables}
	for _, t := range tables {
		f.Epochs = append(f.Epochs, epochs[t])
	}
	return f
}

func epochFn(epochs map[string]uint64) func(string) uint64 {
	return func(t string) uint64 { return epochs[t] }
}

func TestGetPutHitMiss(t *testing.T) {
	epochs := map[string]uint64{"orders": 3}
	c := New(1 << 20)
	if _, ok := c.Get("q1", epochFn(epochs)); ok {
		t.Fatal("empty cache returned a hit")
	}
	r := res(5, 4)
	if !c.Put("q1", fp(epochs, "orders"), r, -1) {
		t.Fatal("Put rejected a small entry")
	}
	got, ok := c.Get("q1", epochFn(epochs))
	if !ok || got != r {
		t.Fatalf("Get = %v, %v; want the stored result", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.UsedBytes != EntryBytes("q1", fp(epochs, "orders"), r) {
		t.Fatalf("UsedBytes = %d, want EntryBytes = %d", st.UsedBytes,
			EntryBytes("q1", fp(epochs, "orders"), r))
	}
}

func TestEpochInvalidation(t *testing.T) {
	epochs := map[string]uint64{"orders": 3, "lineitem": 7}
	c := New(1 << 20)
	c.Put("q1", fp(epochs, "orders", "lineitem"), res(2, 0), -1)
	if _, ok := c.Get("q1", epochFn(epochs)); !ok {
		t.Fatal("fresh entry not served")
	}
	// A write to either referenced table kills the entry on next touch.
	epochs["lineitem"]++
	if _, ok := c.Get("q1", epochFn(epochs)); ok {
		t.Fatal("stale entry served after epoch bump")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Entries != 0 || st.UsedBytes != 0 {
		t.Fatalf("stats after invalidation = %+v", st)
	}
	// And it stays gone (miss, not resurrect).
	if _, ok := c.Get("q1", epochFn(epochs)); ok {
		t.Fatal("invalidated entry resurrected")
	}
}

// TestEvictionPinsByteBudget pins the accounting model: the cache
// never holds more than MaxBytes of accounted entries, UsedBytes is
// exactly the sum of the live entries' EntryBytes, and eviction is
// LRU order.
func TestEvictionPinsByteBudget(t *testing.T) {
	epochs := map[string]uint64{"t": 1}
	f := fp(epochs, "t")
	one := EntryBytes("k0", f, res(10, 8))
	// Room for exactly 3 entries (keys are the same length, so every
	// entry has identical accounted size).
	c := New(3 * one)
	for i := 0; i < 3; i++ {
		if !c.Put(fmt.Sprintf("k%d", i), f, res(10, 8), -1) {
			t.Fatalf("Put k%d rejected", i)
		}
	}
	st := c.Stats()
	if st.Entries != 3 || st.UsedBytes != 3*one {
		t.Fatalf("full cache: %+v, want 3 entries, %d bytes", st, 3*one)
	}
	// Touch k0 so k1 is the LRU victim.
	if _, ok := c.Get("k0", epochFn(epochs)); !ok {
		t.Fatal("k0 missing")
	}
	if !c.Put("k3", f, res(10, 8), -1) {
		t.Fatal("Put k3 rejected")
	}
	st = c.Stats()
	if st.Entries != 3 || st.UsedBytes != 3*one || st.Evictions != 1 {
		t.Fatalf("after overflow: %+v", st)
	}
	if st.UsedBytes > st.MaxBytes {
		t.Fatalf("budget exceeded: used %d > max %d", st.UsedBytes, st.MaxBytes)
	}
	if _, ok := c.Get("k1", epochFn(epochs)); ok {
		t.Fatal("k1 should have been the LRU victim")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k, epochFn(epochs)); !ok {
			t.Fatalf("%s unexpectedly evicted", k)
		}
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	epochs := map[string]uint64{"t": 1}
	f := fp(epochs, "t")
	big := res(100, 100)
	c := New(EntryBytes("k", f, big) - 1)
	if c.Put("k", f, big, -1) {
		t.Fatal("entry larger than the whole budget must be rejected")
	}
	if st := c.Stats(); st.Entries != 0 || st.UsedBytes != 0 {
		t.Fatalf("rejected Put left state: %+v", st)
	}
}

func TestPutReplaceAdjustsAccounting(t *testing.T) {
	epochs := map[string]uint64{"t": 1}
	f := fp(epochs, "t")
	c := New(1 << 20)
	c.Put("k", f, res(10, 8), -1)
	small := res(1, 0)
	c.Put("k", f, small, -1)
	st := c.Stats()
	if st.Entries != 1 || st.UsedBytes != EntryBytes("k", f, small) {
		t.Fatalf("replace accounting: %+v, want %d bytes", st, EntryBytes("k", f, small))
	}
	got, ok := c.Get("k", epochFn(epochs))
	if !ok || got != small {
		t.Fatal("replace did not take")
	}
}

func TestInvalidateByTable(t *testing.T) {
	epochs := map[string]uint64{"a": 1, "b": 1}
	c := New(1 << 20)
	c.Put("qa", fp(epochs, "a"), res(1, 0), -1)
	c.Put("qab", fp(epochs, "a", "b"), res(1, 0), -1)
	c.Put("qb", fp(epochs, "b"), res(1, 0), -1)
	if n := c.Invalidate("a"); n != 2 {
		t.Fatalf("Invalidate(a) dropped %d entries, want 2", n)
	}
	if _, ok := c.Get("qb", epochFn(epochs)); !ok {
		t.Fatal("qb should have survived")
	}
	c.Clear()
	if st := c.Stats(); st.Entries != 0 || st.UsedBytes != 0 {
		t.Fatalf("Clear left state: %+v", st)
	}
}

func TestZeroBudgetStoresNothing(t *testing.T) {
	epochs := map[string]uint64{"t": 1}
	c := New(0)
	if c.Put("k", fp(epochs, "t"), res(1, 0), -1) {
		t.Fatal("zero-budget cache accepted an entry")
	}
	if _, ok := c.Get("k", epochFn(epochs)); ok {
		t.Fatal("zero-budget cache served an entry")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestConcurrentAccess hammers one cache from many goroutines under
// -race: interleaved Get/Put/Invalidate must stay consistent (the
// budget never overshoots, counters never tear).
func TestConcurrentAccess(t *testing.T) {
	epochs := &sync.Map{}
	cur := func(table string) uint64 {
		v, _ := epochs.LoadOrStore(table, uint64(0))
		return v.(uint64)
	}
	c := New(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			table := fmt.Sprintf("t%d", g%3)
			f := Footprint{Tables: []string{table}, Epochs: []uint64{cur(table)}}
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("q%d", (g+i)%13)
				switch i % 3 {
				case 0:
					c.Put(key, f, res(2, 4), -1)
				case 1:
					c.Get(key, cur)
				default:
					if i%100 == 0 {
						c.Invalidate(table)
					} else {
						c.Get(key, cur)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.UsedBytes > st.MaxBytes || st.UsedBytes < 0 {
		t.Fatalf("budget violated: %+v", st)
	}
	if st.Entries != c.Len() {
		t.Fatalf("entry count mismatch: %+v vs %d", st, c.Len())
	}
}

// TestAdmissionPolicyCheapNeverEvictsExpensive pins the admission
// guarantee: with a MinCost threshold, results cheaper than the
// threshold are refused outright, so a stream of cheap queries can
// never push an expensive entry out of a full cache.
func TestAdmissionPolicyCheapNeverEvictsExpensive(t *testing.T) {
	epochs := map[string]uint64{"t": 1}
	f := fp(epochs, "t")
	one := EntryBytes("e0", f, res(10, 8))
	c := NewWith(Config{MaxBytes: 2 * one, MinCost: time.Millisecond})
	// Two expensive entries fill the budget exactly.
	for i := 0; i < 2; i++ {
		if !c.Put(fmt.Sprintf("e%d", i), f, res(10, 8), 5*time.Millisecond) {
			t.Fatalf("expensive e%d rejected", i)
		}
	}
	// A barrage of sub-threshold fills: every one refused, nothing
	// evicted, both expensive entries still served.
	for i := 0; i < 50; i++ {
		if c.Put(fmt.Sprintf("cheap%d", i), f, res(10, 8), 100*time.Microsecond) {
			t.Fatalf("cheap%d admitted below the threshold", i)
		}
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Fatalf("cheap fills evicted %d entries", st.Evictions)
	}
	if st.AdmissionRejects != 50 {
		t.Fatalf("AdmissionRejects = %d, want 50", st.AdmissionRejects)
	}
	for i := 0; i < 2; i++ {
		if _, ok := c.Get(fmt.Sprintf("e%d", i), epochFn(epochs)); !ok {
			t.Fatalf("expensive e%d gone after cheap traffic", i)
		}
	}
	// At or above the threshold, admission proceeds (and may evict).
	if !c.Put("borderline", f, res(10, 8), time.Millisecond) {
		t.Fatal("cost == MinCost must be admitted")
	}
	// A negative cost bypasses the policy (internal refills).
	if !c.Put("bypass", f, res(10, 8), -1) {
		t.Fatal("negative cost must bypass admission")
	}
}

// TestTTLExpiryCountsAsMiss drives expiry with an injected clock.
func TestTTLExpiryCountsAsMiss(t *testing.T) {
	epochs := map[string]uint64{"t": 1}
	f := fp(epochs, "t")
	base := time.Unix(1_000_000, 0)
	now := base
	c := NewWith(Config{MaxBytes: 1 << 20, TTL: time.Minute})
	c.SetNowFunc(func() time.Time { return now })
	if !c.Put("k", f, res(3, 2), -1) {
		t.Fatal("Put rejected")
	}
	// Just inside the TTL: a hit.
	now = base.Add(time.Minute - time.Nanosecond)
	if _, ok := c.Get("k", epochFn(epochs)); !ok {
		t.Fatal("entry expired before its TTL")
	}
	// At the TTL boundary: expired, dropped, counted as a miss.
	now = base.Add(time.Minute)
	if _, ok := c.Get("k", epochFn(epochs)); ok {
		t.Fatal("entry served at/after its TTL")
	}
	st := c.Stats()
	if st.Expirations != 1 || st.Misses != 1 || st.Hits != 1 || st.Entries != 0 {
		t.Fatalf("after expiry: %+v", st)
	}
	// A refill restarts the clock from the new store time.
	if !c.Put("k", f, res(3, 2), -1) {
		t.Fatal("refill rejected")
	}
	now = now.Add(30 * time.Second)
	if _, ok := c.Get("k", epochFn(epochs)); !ok {
		t.Fatal("refilled entry expired early")
	}
}
