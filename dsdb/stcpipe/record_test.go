package stcpipe

import (
	"slices"
	"testing"

	"repro/dsdb"
)

// TestFixedStoreRecordsTheValidatedTrace: a non-validating pipeline
// records each probe with one fixed-size store, a validating one block
// by block against the CFG. Over all 12 TPC-D queries both must record
// the same events, marks and instruction count.
func TestFixedStoreRecordsTheValidatedTrace(t *testing.T) {
	db, err := dsdb.Open(dsdb.WithTPCD(0.0005), dsdb.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	w, err := TPCD("all", 2, 3, 4, 5, 6, 9, 11, 12, 13, 14, 15, 17)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := New().Profile(db, w)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := New(Validate()).Profile(db, w)
	if err != nil {
		t.Fatal(err)
	}
	got, want := fast.tr, checked.tr
	if len(want.Marks) != len(w.Queries) || want.Len() == 0 {
		t.Fatalf("validated trace: %d marks, %d events", len(want.Marks), want.Len())
	}
	if got.Instrs != want.Instrs || !slices.Equal(got.Blocks, want.Blocks) || !slices.Equal(got.Marks, want.Marks) {
		t.Fatalf("non-validating: %d events / %d instrs / %d marks, validating: %d / %d / %d (or contents differ)",
			got.Len(), got.Instrs, len(got.Marks), want.Len(), want.Instrs, len(want.Marks))
	}
}
