package dsdb_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/dsdb"
)

// TestQueryPoolLookups pins, per TPC-D query, how many pages the plan
// asks for and how many of those requests reach the buffer pool's
// lookup table — two counts that are exact for a seed, so they can
// gate where a latency cannot.
//
// page_requests (pool hits + misses) is a property of the plan and the
// data: it was generated on the code before scans kept their pages
// pinned and must not move when they do. pool_lookups is what is left
// after the cursors and heap pins have answered the requests for pages
// they already hold; a scan that stops retaining its page shows up
// here as a jump. Each query runs single-session at SF 0.01 on a warm
// pool that holds the whole database (the tpcd_served set-up). After
// an intentional change regenerate with
//
//	go test ./dsdb -run TestQueryPoolLookups -update
func TestQueryPoolLookups(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.01), dsdb.WithSeed(42))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	pool := db.Engine().Buf
	var got strings.Builder
	for _, qn := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(qn)
		h0, m0 := pool.Stats()
		l0 := pool.Lookups()
		if _, err := db.Exec(context.Background(), q); err != nil {
			t.Fatalf("Q%d: %v", qn, err)
		}
		h1, m1 := pool.Stats()
		fmt.Fprintf(&got, "Q%d page_requests %d pool_lookups %d\n", qn, h1-h0+m1-m0, pool.Lookups()-l0)
	}
	path := filepath.Join("testdata", "pool_lookups.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("got  %q\nwant %q", g, w)
		}
	}
}
