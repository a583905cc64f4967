package load

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dsdb/wcap"
)

// replayRecs builds a capture of `sessions` recorded sessions, each
// with `per` queries in recorded start order, labelled by session and
// rank so tests can reconstruct the order the replay ran them in.
func replayRecs(sessions, per int) []wcap.Record {
	var recs []wcap.Record
	for s := 1; s <= sessions; s++ {
		for q := 0; q < per; q++ {
			recs = append(recs, wcap.Record{
				Offset:  time.Duration(q) * 10 * time.Millisecond,
				Session: uint32(s),
				Label:   "Q",
				SQL:     "select " + string(rune('a'+s-1)) + string(rune('0'+q)),
				Latency: time.Millisecond,
			})
		}
	}
	return recs
}

// orderRunner records every SQL it sees, in call order, concurrently.
type orderRunner struct {
	mu   sync.Mutex
	seen []string
}

func (o *orderRunner) run(_ context.Context, _, sql string) (int64, bool, error) {
	o.mu.Lock()
	o.seen = append(o.seen, sql)
	o.mu.Unlock()
	return 1, false, nil
}

func TestReplayValidatesTargets(t *testing.T) {
	recs := replayRecs(1, 1)
	if _, err := Replay(context.Background(), ReplayParams{Records: recs}); err == nil {
		t.Fatal("no target: want error")
	}
	if _, err := Replay(context.Background(), ReplayParams{Records: recs, Addr: "x"}); err == nil {
		t.Fatal("bogus addr with WaitReady=0 should fail to dial")
	}
	if _, err := Replay(context.Background(), ReplayParams{Runner: (&orderRunner{}).run}); err == nil {
		t.Fatal("empty capture: want error")
	}
}

func TestReplayPreservesSessionOrder(t *testing.T) {
	recs := replayRecs(3, 4)
	// Shuffle the input: Replay must re-sort by recorded offset.
	for i, j := range []int{7, 2, 11, 0, 5, 9, 1, 10, 4, 8, 3, 6} {
		recs[i], recs[j] = recs[j], recs[i]
	}
	o := &orderRunner{}
	sum, err := Replay(context.Background(), ReplayParams{Records: recs, Runner: o.run})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Queries != 12 || sum.Sessions != 3 || sum.Clients != 3 || sum.Skipped != 0 {
		t.Fatalf("summary: %+v", sum)
	}
	if sum.Rows != 12 {
		t.Fatalf("rows = %d, want 12 (one per query)", sum.Rows)
	}
	// Within each recorded session, replay order must be recorded
	// order: for session prefix p, the digits must appear ascending.
	for _, prefix := range []string{"select a", "select b", "select c"} {
		last := -1
		for _, sql := range o.seen {
			if !strings.HasPrefix(sql, prefix) {
				continue
			}
			d := int(sql[len(sql)-1] - '0')
			if d <= last {
				t.Fatalf("session %q out of order: saw %d after %d (%v)", prefix, d, last, o.seen)
			}
			last = d
		}
		if last != 3 {
			t.Fatalf("session %q incomplete: last rank %d", prefix, last)
		}
	}
}

func TestReplayFoldsSessionsOntoFewerWorkers(t *testing.T) {
	recs := replayRecs(4, 3)
	o := &orderRunner{}
	sum, err := Replay(context.Background(), ReplayParams{Records: recs, Runner: o.run, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Clients != 2 || sum.Sessions != 4 || sum.Queries != 12 {
		t.Fatalf("summary: %+v", sum)
	}
	// Folding still preserves per-session internal order.
	for _, prefix := range []string{"select a", "select b", "select c", "select d"} {
		last := -1
		for _, sql := range o.seen {
			if strings.HasPrefix(sql, prefix) {
				d := int(sql[len(sql)-1] - '0')
				if d <= last {
					t.Fatalf("session %q out of order after folding: %v", prefix, o.seen)
				}
				last = d
			}
		}
	}
}

func TestReplaySkipsErrorsAndShow(t *testing.T) {
	recs := replayRecs(2, 2)
	recs = append(recs,
		wcap.Record{Session: 1, Offset: time.Second, Label: "bad", SQL: "select nope", Err: wcap.ErrQuery},
		wcap.Record{Session: 1, Offset: 2 * time.Second, Label: "mon", SQL: "SHOW stats"},
		wcap.Record{Session: 2, Offset: time.Second, Label: "dead", SQL: "select gone", Err: wcap.ErrCancelled},
	)
	o := &orderRunner{}
	sum, err := Replay(context.Background(), ReplayParams{Records: recs, Runner: o.run})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Queries != 4 || sum.Skipped != 3 {
		t.Fatalf("queries=%d skipped=%d, want 4/3", sum.Queries, sum.Skipped)
	}
	for _, sql := range o.seen {
		if strings.Contains(sql, "nope") || strings.Contains(sql, "gone") || strings.HasPrefix(strings.ToLower(sql), "show") {
			t.Fatalf("replayed a record that must be skipped: %q", sql)
		}
	}
	// All-skipped captures error instead of reporting an empty run.
	if _, err := Replay(context.Background(), ReplayParams{
		Records: []wcap.Record{{Session: 1, SQL: "select x", Err: wcap.ErrQuery}},
		Runner:  o.run,
	}); err == nil {
		t.Fatal("all-skipped capture: want error")
	}
}

func TestReplayPacedHonoursSchedule(t *testing.T) {
	// Two sessions, offsets 0 and 60ms; at Timescale 2 the second
	// query fires ~30ms in, so the whole run takes at least that.
	recs := []wcap.Record{
		{Session: 1, Offset: 0, Label: "Q", SQL: "one", Latency: time.Millisecond},
		{Session: 1, Offset: 60 * time.Millisecond, Label: "Q", SQL: "two", Latency: time.Millisecond},
	}
	o := &orderRunner{}
	sum, err := Replay(context.Background(), ReplayParams{
		Records: recs, Runner: o.run, Paced: true, Timescale: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Paced || sum.Timescale != 2 {
		t.Fatalf("summary mode: %+v", sum)
	}
	if sum.Elapsed < 25*time.Millisecond {
		t.Fatalf("paced replay finished in %s; schedule says ≥ ~30ms", sum.Elapsed)
	}
	if sum.RecordedLat.P50 != time.Millisecond {
		t.Fatalf("recorded p50 = %s, want 1ms from the capture", sum.RecordedLat.P50)
	}
}

// TestReplayFailsFast: the first failure cancels the other lane, and
// the replay reports it — not the cancellation it induced in a lane
// that happened to be waiting, whichever lane that is.
func TestReplayFailsFast(t *testing.T) {
	cases := []struct {
		name  string
		fail  string // the query that returns boom
		block string // a query that waits for the run to be cancelled
	}{
		{name: "lane 1 fails", fail: "select a5"},
		{name: "lane 2 fails while lane 1 waits", fail: "select b0", block: "select a0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := replayRecs(2, 50)
			boom := errors.New("boom")
			var n int
			var mu sync.Mutex
			runner := func(ctx context.Context, _, sql string) (int64, bool, error) {
				mu.Lock()
				n++
				mu.Unlock()
				switch sql {
				case tc.fail:
					return 0, false, boom
				case tc.block:
					<-ctx.Done()
					return 0, false, ctx.Err()
				}
				return 0, false, nil
			}
			_, err := Replay(context.Background(), ReplayParams{Records: recs, Runner: runner})
			if err == nil || !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			mu.Lock()
			ran := n
			mu.Unlock()
			if ran >= 100 {
				t.Fatalf("failure did not cancel the other lane: %d queries ran", ran)
			}
		})
	}
}

func TestReplaySummaryAndJSONReport(t *testing.T) {
	recs := []wcap.Record{
		{Session: 1, Offset: 0, Label: "train-Q3", SQL: "a", Rows: 7, Latency: 2 * time.Millisecond},
		{Session: 1, Offset: time.Millisecond, Label: "train-Q6", SQL: "b", Rows: 1, Latency: time.Millisecond},
		{Session: 2, Offset: 0, Label: "train-Q3", SQL: "a", Rows: 7, Latency: 4 * time.Millisecond},
	}
	runner := func(_ context.Context, label, _ string) (int64, bool, error) {
		if label == "train-Q3" {
			return 7, true, nil
		}
		return 1, false, nil
	}
	sum, err := Replay(context.Background(), ReplayParams{Records: recs, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rows != 15 || sum.CacheHits != 2 {
		t.Fatalf("rows=%d hits=%d, want 15/2", sum.Rows, sum.CacheHits)
	}
	if len(sum.PerQuery) != 2 || sum.PerQuery[0].Label != "train-Q3" || sum.PerQuery[1].Label != "train-Q6" {
		t.Fatalf("per-query: %+v", sum.PerQuery)
	}
	q3 := sum.PerQuery[0]
	if q3.Count != 2 || q3.Rows != 14 {
		t.Fatalf("train-Q3 stat: %+v", q3)
	}
	// Recorded side comes straight from the capture.
	if q3.RecordedLat.Max != 4*time.Millisecond {
		t.Fatalf("train-Q3 recorded max = %s, want 4ms", q3.RecordedLat.Max)
	}
	if got := sum.Report(); !strings.Contains(got, "replayed 3 queries") || !strings.Contains(got, "train-Q6") {
		t.Fatalf("Report output:\n%s", got)
	}

	r := BuildReplayJSONReport(sum, nil)
	if r.Queries != 3 || r.Sessions != 2 || r.Rows != 15 || r.CacheHits != 2 {
		t.Fatalf("json report: %+v", r)
	}
	if len(r.PerQuery) != 2 || r.PerQuery[0].Label != "train-Q3" ||
		r.PerQuery[0].RecordedLat.MaxNs != (4*time.Millisecond).Nanoseconds() {
		t.Fatalf("json per-query: %+v", r.PerQuery)
	}
	if r.ServerStats != nil {
		t.Fatal("no stats snapshot given, ServerStats must be omitted")
	}
}
