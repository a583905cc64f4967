package kernel

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/db/probe"
	"repro/internal/profile/profiletest"
	"repro/internal/trace"
)

// traced is a session and the plain trace it records into.
type traced struct {
	*Session
	tr *trace.Trace
}

// Trace returns the session's trace.
func (s traced) Trace() *trace.Trace { return s.tr }

// newTraced starts a session recording into a new plain trace.
func newTraced(img *Image, validate bool) traced {
	t := trace.New(img.Prog)
	return traced{img.NewSession(trace.NewRecorder(t, validate)), t}
}

// mark in a script marks the session instead of emitting a probe.
const mark = probe.ID(-1)

// play runs a script through a new session: every probe emitted, every
// mark a query boundary.
func play(img *Image, validate bool, script []probe.ID) traced {
	s := newTraced(img, validate)
	for i, id := range script {
		if id == mark {
			s.Mark(fmt.Sprintf("m%d", i))
		} else {
			s.Emit(id)
		}
	}
	return s
}

// merge interleaves the sessions' traces round-robin at their marks,
// each segment whole from a mark to the session's next mark or its
// end, as stcpipe does; events before a session's first mark are left
// out.
func merge(img *Image, sess []traced) *trace.Trace {
	out := trace.New(img.Prog)
	for q, more := 0, true; more; q++ {
		more = false
		for _, s := range sess {
			t := s.Trace()
			if q >= len(t.Marks) {
				continue
			}
			more = true
			end := t.Len()
			if q+1 < len(t.Marks) {
				end = t.Marks[q+1].Pos
			}
			out.Marks = append(out.Marks, trace.Mark{Pos: out.Len(), Label: t.Marks[q].Label})
			out.Blocks = append(out.Blocks, t.Blocks[t.Marks[q].Pos:end]...)
		}
	}
	return out
}

// TestProfileFromCountsEqualsReference: the profile assembled from a
// session's probe-pair counts is the one a walk over its trace counts,
// for hand-built emit sequences with empty-path probes (which record
// and count nothing) anywhere, a probe right after a mark, marks with
// no events between them, and marks at the start and the end; and so
// is the profile of several sessions' traces merged at their marks,
// empty segments included, assembled from all their counts.
func TestProfileFromCountsEqualsReference(t *testing.T) {
	img := New()
	enter, hit, miss := probe.BufGetEnter, probe.BufGetHit, probe.BufGetMiss
	lookup, deform, hash := probe.BufTableLookup, probe.HeapDeform, probe.HashFunc
	for _, id := range []probe.ID{lookup, deform, hash} {
		if len(img.paths[id]) != 0 {
			t.Fatalf("probe %d has a path; the cases need it empty", id)
		}
	}
	var every []probe.ID
	for id := probe.ID(0); id < probe.NumProbes; id++ {
		if every = append(every, id); id%7 == 6 {
			every = append(every, mark)
		}
	}
	cases := []struct {
		name   string
		script []probe.ID
	}{
		{"no events", nil},
		{"empty-path probes only", []probe.ID{lookup, deform, hash}},
		{"empty-path probes first, between and last", []probe.ID{lookup, enter, lookup, hit, deform, hash, enter, miss, hash}},
		{"a probe right after a mark", []probe.ID{enter, hit, mark, enter, miss}},
		{"an empty-path probe right after a mark", []probe.ID{enter, mark, lookup, hit, enter}},
		{"a mark and nothing else", []probe.ID{mark}},
		{"a mark at the start", []probe.ID{mark, enter, hit}},
		{"a mark with no events after it", []probe.ID{enter, mark, mark, hit}},
		{"consecutive marks", []probe.ID{enter, hit, mark, mark, mark, enter, hit}},
		{"a mark with only empty-path probes after it", []probe.ID{enter, mark, deform, hash, mark, hit}},
		{"a trailing mark", []probe.ID{enter, hit, mark}},
		{"every probe", every},
	}
	for _, validate := range []bool{false, true} {
		for _, c := range cases {
			s := play(img, validate, c.script)
			got, want := img.Profile(s.Trace(), s.Counts()), profiletest.FromTrace(s.Trace())
			if d := profiletest.Diff(got, want); d != "" {
				t.Errorf("%s (validate %v): %s", c.name, validate, d)
			}
		}
	}

	// Three sessions, each starting with a mark: ragged, with empty
	// segments in the middle and at the end, and one empty session.
	scripts := [][]probe.ID{
		{mark, enter, hit, mark, enter, miss, mark, mark, lookup, hit},
		{mark, mark, enter, hit, mark, enter, hit, enter, mark},
		{mark, lookup, mark, deform},
	}
	var sess []traced
	var counts []*Counts
	for _, sc := range scripts {
		s := play(img, false, sc)
		sess, counts = append(sess, s), append(counts, s.Counts())
	}
	merged := merge(img, sess)
	if d := profiletest.Diff(img.Profile(merged, counts...), profiletest.FromTrace(merged)); d != "" {
		t.Errorf("merged sessions: %s", d)
	}
}

// TestProfileRefusesAnotherTrace: counts assembled against a trace
// that is not the one they were taken over — here a merge that leaves
// out the probes a session emitted before its first mark — panic,
// naming both block-event totals.
func TestProfileRefusesAnotherTrace(t *testing.T) {
	img := New()
	s := play(img, false, []probe.ID{probe.BufGetEnter, probe.BufGetHit, mark, probe.BufGetEnter, probe.BufGetHit})
	merged := merge(img, []traced{s})
	counted := len(img.paths[probe.BufGetEnter]) + len(img.paths[probe.BufGetHit])
	defer func() {
		msg := fmt.Sprint(recover())
		want := fmt.Sprintf("give %d block events, the trace holds %d", 2*counted, counted)
		if !strings.Contains(msg, want) {
			t.Fatalf("Profile over another trace: panic %q, want one saying %q", msg, want)
		}
	}()
	img.Profile(merged, s.Counts())
}
