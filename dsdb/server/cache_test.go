package server_test

import (
	"context"
	"net"
	"reflect"
	"testing"

	"repro/dsdb"
	"repro/dsdb/client"
	"repro/dsdb/server"
)

// TestServedCacheHitAttribution runs the served acceptance slice of
// the result-cache tentpole: against a server whose DB carries a
// result cache, a repeated query is answered byte-identical to its
// first run, the Done frame carries the cache-hit flag (surfaced as
// client Rows.CacheHit), a hit from a *different* connection shares
// the same cache, and a write to a referenced table turns the next
// run back into an attributed miss with fresh data.
func TestServedCacheHitAttribution(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005), dsdb.WithSeed(42), dsdb.WithResultCache(64<<20))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := server.New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	addr := ln.Addr().String()

	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	ctx := context.Background()
	q, _ := dsdb.TPCDQuery(6)

	fetch := func(c *client.DB) (*dsdb.Result, bool) {
		t.Helper()
		rows, err := c.Query(ctx, q)
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

	first, hit := fetch(c1)
	if hit {
		t.Fatal("first execution reported a cache hit")
	}
	second, hit := fetch(c1)
	if !hit {
		t.Fatal("repeat execution not attributed as a cache hit")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cache hit not byte-identical to the first run")
	}

	// A different connection shares the DB-wide cache.
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	third, hit := fetch(c2)
	if !hit || !reflect.DeepEqual(first, third) {
		t.Fatalf("second connection: hit=%v, identical=%v; want true/true", hit, reflect.DeepEqual(first, third))
	}

	// Writing to lineitem (Q6's only table) invalidates the entry:
	// the next served run misses and reflects the new row.
	row := append([]dsdb.Value(nil), mkLineitemRow(t, db)...)
	if err := db.Insert("lineitem", row...); err != nil {
		t.Fatal(err)
	}
	fourth, hit := fetch(c1)
	if hit {
		t.Fatal("post-insert run still served from cache (stale!)")
	}
	if reflect.DeepEqual(fourth, first) {
		t.Fatal("post-insert run did not reflect the inserted row")
	}
	fifth, hit := fetch(c2)
	if !hit || !reflect.DeepEqual(fourth, fifth) {
		t.Fatalf("post-insert repeat: hit=%v identical=%v; want true/true", hit, reflect.DeepEqual(fourth, fifth))
	}

	// One probe counted per execution, each through the text's pooled
	// plan: three hits, the fill and the post-insert miss, one
	// invalidation.
	if st, _ := db.ResultCacheStats(); st.Hits != 3 || st.Misses != 2 || st.Invalidations != 1 {
		t.Fatalf("cache counters after 5 served executions: %+v, want 3 hits, 2 misses, 1 invalidation", st)
	}
	if got := srv.Stats().CacheHits; got != 3 {
		t.Fatalf("server counted %d cache hits, want 3", got)
	}
}

// mkLineitemRow builds one lineitem row that passes Q6's filters
// (shipdate in 1994, discount ~0.06, quantity < 24), so inserting it
// must change Q6's aggregate.
func mkLineitemRow(t *testing.T, db *dsdb.DB) []dsdb.Value {
	t.Helper()
	tbl, ok := db.Engine().Cat.Table("lineitem")
	if !ok {
		t.Fatal("no lineitem table")
	}
	row := make([]dsdb.Value, tbl.Schema.Len())
	for i, col := range tbl.Schema.Columns {
		switch col.Type {
		case dsdb.Int:
			row[i] = dsdb.NewInt(1)
		case dsdb.Float:
			row[i] = dsdb.NewFloat(1000)
		case dsdb.Str:
			row[i] = dsdb.NewStr("x")
		case dsdb.Date:
			row[i] = dsdb.NewDate(dsdb.MakeDate(1994, 6, 1))
		default:
			row[i] = dsdb.NewNull()
		}
		switch col.Name {
		case "l_quantity":
			row[i] = dsdb.NewFloat(10)
		case "l_discount":
			row[i] = dsdb.NewFloat(0.06)
		case "l_extendedprice":
			row[i] = dsdb.NewFloat(1000)
		}
	}
	return row
}
