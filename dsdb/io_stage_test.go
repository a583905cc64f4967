package dsdb_test

import (
	"context"
	"testing"

	"repro/dsdb"
	"repro/dsdb/obs"
	"repro/internal/db/probe"
)

// TestIOStageAttributed: buffer-pool IO waits reach the query's
// observability record whether or not the query is traced. An
// untraced query records no probe events, but the span still has to
// travel down to the pool's miss path; a 64-frame pool makes Q6 miss.
func TestIOStageAttributed(t *testing.T) {
	db := openTPCD(t, 0.001, dsdb.WithBufferFrames(64))
	defer db.Close()
	q6, _ := dsdb.TPCDQuery(6)
	for _, tc := range []struct {
		name string
		tr   dsdb.Tracer
	}{{"untraced", nil}, {"traced", probe.NewCountingTracer()}} {
		rows, err := db.QueryObserved(context.Background(), tc.tr, tc.name, q6)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rec := db.Obs().Recent()[0] // newest first
		if rec.Label != tc.name {
			t.Fatalf("newest record is %q, want %q", rec.Label, tc.name)
		}
		if rec.Stages[obs.StageIO] <= 0 {
			t.Errorf("%s Q6 on a 64-frame pool: io stage %v, want > 0", tc.name, rec.Stages[obs.StageIO])
		}
	}
	if hits, misses := db.Engine().Buf.Stats(); misses == 0 {
		t.Fatalf("no buffer misses (%d hits): the pool holds the data, nothing to attribute", hits)
	}
}
