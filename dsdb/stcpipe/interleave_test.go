package stcpipe

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/db/probe"
	"repro/internal/kernel"
	"repro/internal/profile/profiletest"
	"repro/internal/trace"
)

// TestInterleaveLongSessions: sessions recording into chunks of one
// storage, each across many chunks (> 256K events), merge round-robin
// into what a plain loop over the marked regions of the same probes
// recorded into plain traces gives — blocks, instruction count and
// rebased marks — ragged sessions included, behind a base trace too, at
// the merged length exactly; and the sessions' probe-pair counts
// assemble the merged trace's profile. A second round records into the
// chunks the first one released.
func TestInterleaveLongSessions(t *testing.T) {
	p := New()
	rng := rand.New(rand.NewSource(20))
	const queries = 3
	for round := 0; round < 2; round++ {
		recs := make([]*trace.Recorder, 3)
		sess := make([]*kernel.Session, 3)
		flat := make([]*trace.Trace, 3)
		for i := range sess {
			// Not validated: the probes are drawn at random, which no
			// execution would emit; the recorder stores them all the same.
			recs[i] = p.store.Recorder(p.img.Prog, false)
			flat[i] = trace.New(p.img.Prog)
			ses, ref := p.img.NewSession(recs[i]), p.img.NewSession(trace.NewRecorder(flat[i], false))
			for q := 0; q < queries-i%2; q++ { // the second session is one query short
				label := fmt.Sprintf("s%d-w-%d", i+1, q+1)
				ses.Mark(label)
				ref.Mark(label)
				for end := recs[i].Len() + 135_000 + rng.Intn(20_000); recs[i].Len() < end; {
					id := probe.ID(rng.Intn(int(probe.NumProbes)))
					ses.Emit(id)
					ref.Emit(id)
				}
			}
			if recs[i].Len() <= 256<<10 || recs[i].Len() != flat[i].Len() {
				t.Fatalf("session %d recorded %d events, its plain twin %d", i, recs[i].Len(), flat[i].Len())
			}
			sess[i] = ses
		}

		want := trace.New(p.img.Prog)
		var order []at
		for q := 0; q < queries; q++ {
			for i, tr := range flat {
				if q >= len(tr.Marks) {
					continue
				}
				order = append(order, at{i, q})
				end := tr.Len()
				if q+1 < len(tr.Marks) {
					end = tr.Marks[q+1].Pos
				}
				want.Marks = append(want.Marks, trace.Mark{Pos: want.Len(), Label: tr.Marks[q].Label})
				for _, b := range tr.Blocks[tr.Marks[q].Pos:end] {
					want.Blocks = append(want.Blocks, b)
					want.Instrs += uint64(p.img.Prog.Block(b).Size)
				}
			}
		}
		got := merge(p.img.Prog, nil, recs, order)
		if cap(got.Blocks) != got.Len() {
			t.Fatalf("merged %d events into an array of %d", got.Len(), cap(got.Blocks))
		}
		if got.Instrs != want.Instrs || !slices.Equal(got.Blocks, want.Blocks) || !slices.Equal(got.Marks, want.Marks) {
			t.Fatalf("interleaved %d events / %d instrs / %d marks, want %d / %d / %d (or contents differ)",
				got.Len(), got.Instrs, len(got.Marks), want.Len(), want.Instrs, len(want.Marks))
		}
		if len(got.Marks) != 3*queries-1 {
			t.Fatalf("interleaved %d marks, want %d", len(got.Marks), 3*queries-1)
		}
		var counts []*kernel.Counts
		for _, s := range sess {
			counts = append(counts, s.Counts())
		}
		if d := profiletest.Diff(p.img.Profile(got, counts...), profiletest.FromTrace(got)); d != "" {
			t.Fatalf("the sessions' counts assemble another profile than the interleaved trace's: %s", d)
		}

		// Behind a base, as Run extends a profile: the base's events and
		// marks first, the segments' marks rebased past them.
		first := flat[0]
		ext := merge(p.img.Prog, got, recs[:1], []at{{0, 0}, {0, 1}, {0, 2}})
		wantExt := got.Len() + first.Len()
		if ext.Len() != wantExt || cap(ext.Blocks) != wantExt || ext.Instrs != got.Instrs+first.Instrs ||
			!slices.Equal(ext.Blocks[:got.Len()], got.Blocks) || !slices.Equal(ext.Blocks[got.Len():], first.Blocks) ||
			!slices.Equal(ext.Marks[:len(got.Marks)], got.Marks) || ext.Marks[len(got.Marks)].Pos != got.Len() {
			t.Fatalf("merged behind a base: %d events (cap %d) / %d marks, want %d / %d", ext.Len(), cap(ext.Blocks), len(ext.Marks), wantExt, len(got.Marks)+len(first.Marks))
		}
		for _, r := range recs {
			r.Release()
		}
	}
}
