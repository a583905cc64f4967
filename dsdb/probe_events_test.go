package dsdb_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/dsdb"
	"repro/internal/db/probe"
)

// TestQueryProbeEvents pins, per TPC-D query and index kind, how many
// probe events a traced execution emits and how many of them are
// executor dispatches (ExecProcEnter). Both are exact for a seed: they
// are what the kernel image turns into the paper's instruction trace,
// so a change to how the kernel decides whether to emit — or a moved,
// dropped or doubled Emit — shows up here as a changed line. Each query
// runs single-session at SF 0.01 on a warm pool that holds the whole
// database. After an intentional change regenerate with
//
//	go test ./dsdb -run TestQueryProbeEvents -update
func TestQueryProbeEvents(t *testing.T) {
	var got strings.Builder
	for _, kind := range []struct {
		name string
		k    dsdb.IndexKind
	}{{"btree", dsdb.BTree}, {"hash", dsdb.Hash}} {
		db, err := dsdb.Open(dsdb.WithTPCD(0.01), dsdb.WithSeed(42), dsdb.WithIndexKind(kind.k))
		if err != nil {
			t.Fatalf("Open %s: %v", kind.name, err)
		}
		for _, qn := range dsdb.TPCDQueryNumbers() {
			q, _ := dsdb.TPCDQuery(qn)
			tr := probe.NewCountingTracer()
			rows, err := db.QueryObserved(context.Background(), tr, "", q)
			if err != nil {
				t.Fatalf("%s Q%d: %v", kind.name, qn, err)
			}
			for rows.Next() {
			}
			if err := rows.Err(); err != nil {
				t.Fatalf("%s Q%d: %v", kind.name, qn, err)
			}
			fmt.Fprintf(&got, "%s Q%d events %d exec_proc %d\n", kind.name, qn, probeEvents(tr), tr.Count(probe.ExecProcEnter))
		}
		db.Close()
	}
	path := filepath.Join("testdata", "probe_events.golden")
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

// probeEvents is the number of events tr counted across all probes.
func probeEvents(tr *probe.CountingTracer) (n uint64) {
	for id := probe.ID(0); id < probe.NumProbes; id++ {
		n += tr.Count(id)
	}
	return n
}
