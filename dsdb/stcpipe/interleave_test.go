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

// TestInterleaveLongSessions: session traces long enough to have been
// grown several times by the recorder (> 256K events each) interleave
// into what a plain loop over the marked regions gives — blocks,
// instruction count and rebased marks — ragged sessions included; and
// the sessions' probe-pair counts assemble the merged trace's profile.
func TestInterleaveLongSessions(t *testing.T) {
	p := New()
	rng := rand.New(rand.NewSource(20))
	const queries = 3
	sess := make([]*kernel.Session, 3)
	for i := range sess {
		// Not validated: the probes are drawn at random, which no
		// execution would emit; the recorder stores them all the same.
		ses := p.img.NewSession(false)
		for q := 0; q < queries-i%2; q++ { // the second session is one query short
			ses.Mark(fmt.Sprintf("s%d-w-%d", i+1, q+1))
			for end := ses.Trace().Len() + 135_000 + rng.Intn(20_000); ses.Trace().Len() < end; {
				ses.Emit(probe.ID(rng.Intn(int(probe.NumProbes))))
			}
		}
		if ses.Trace().Len() <= 256<<10 {
			t.Fatalf("session %d recorded only %d events", i, ses.Trace().Len())
		}
		sess[i] = ses
	}

	want := trace.New(p.img.Prog)
	for q := 0; q < queries; q++ {
		for _, s := range sess {
			tr := s.Trace()
			if q >= len(tr.Marks) {
				continue
			}
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

	got := interleave(p.img.Prog, sess)
	if got.Instrs != want.Instrs || !slices.Equal(got.Blocks, want.Blocks) || !slices.Equal(got.Marks, want.Marks) {
		t.Fatalf("interleaved %d events / %d instrs / %d marks, want %d / %d / %d (or contents differ)",
			got.Len(), got.Instrs, len(got.Marks), want.Len(), want.Instrs, len(want.Marks))
	}
	var total uint64
	for _, s := range sess {
		total += s.Trace().Instrs
	}
	if got.Instrs != total || len(got.Marks) != 3*queries-1 {
		t.Fatalf("interleaved %d instrs / %d marks, sessions recorded %d / %d", got.Instrs, len(got.Marks), total, 3*queries-1)
	}
	var counts []*kernel.Counts
	for _, s := range sess {
		counts = append(counts, s.Counts())
	}
	if d := profiletest.Diff(p.img.Profile(got, counts...), profiletest.FromTrace(got)); d != "" {
		t.Fatalf("the sessions' counts assemble another profile than the interleaved trace's: %s", d)
	}
}
