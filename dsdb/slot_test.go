package dsdb

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/db/executor/exectest"
)

// TestSlotContractTPCD holds the compiled plans of the 12 TPC-D
// queries, on the B-tree and the hash database, to the executor's
// tuple-slot rule: with every edge of the plan poisoned (a tuple and
// the bytes of its strings turn to garbage as soon as its producer is
// called again), the streamed rows kept through Rows.Values, and the
// rows the result-cache fill kept of them, must equal the plain plan's
// on an uncached twin database.
// An operator, the fill or Values that keeps a tuple or a string
// without copying it fails here.
func TestSlotContractTPCD(t *testing.T) {
	ctx := context.Background()
	collect := func(rows *Rows, err error) [][]Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out [][]Value
		for rows.Next() {
			out = append(out, rows.Values())
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for name, kind := range map[string]IndexKind{"btree": BTree, "hash": Hash} {
		t.Run(name, func(t *testing.T) {
			db, err := Open(WithTPCD(0.001), WithIndexKind(kind), WithResultCache(64<<20))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			twin, err := Open(WithTPCD(0.001), WithIndexKind(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()
			for _, n := range TPCDQueryNumbers() {
				q, _ := TPCDQuery(n)
				stmt, err := db.Prepare(q)
				if err != nil {
					t.Fatalf("Q%d: %v", n, err)
				}
				stmt.plan = exectest.Poison(stmt.plan)
				poisoned := collect(stmt.Query(ctx)) // a miss: streams, and fills the cache
				rows, err := db.Query(ctx, q)
				if err == nil && !rows.CacheHit() {
					t.Fatalf("Q%d: the poisoned run did not fill the cache", n)
				}
				filled := collect(rows, err)
				want := collect(twin.Query(ctx, q))
				if len(want) == 0 {
					t.Fatalf("Q%d returned nothing; the test needs rows", n)
				}
				for what, got := range map[string][][]Value{"streamed": poisoned, "left in the result cache": filled} {
					if len(got) != len(want) {
						t.Errorf("Q%d: poisoned plan %s %d rows, plain plan returns %d", n, what, len(got), len(want))
						continue
					}
					for i := range want {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Errorf("Q%d row %d: poisoned plan %s %q, plain plan returns %q", n, i, what, got[i], want[i])
							break
						}
					}
				}
			}
		})
	}
}
