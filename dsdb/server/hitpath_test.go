package server_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dsdb"
	"repro/dsdb/client"
	"repro/dsdb/server"
	"repro/dsdb/wire"
	"repro/internal/db/probe"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/ of the tests selected with -run")

// recConn is the server's side of one connection with everything the
// server writes to it recorded, and the Write calls counted: one call
// is one write(2) on a real socket.
type recConn struct {
	net.Conn
	mu     sync.Mutex
	out    bytes.Buffer
	writes int
}

func (c *recConn) Write(p []byte) (int, error) {
	// Recorded before the bytes can reach the client, so a client that
	// has read a response finds all of it here.
	c.mu.Lock()
	c.out.Write(p)
	c.writes++
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// take returns what was written since the last take, and in how many
// Write calls.
func (c *recConn) take() ([]byte, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, n := append([]byte(nil), c.out.Bytes()...), c.writes
	c.out.Reset()
	c.writes = 0
	return data, n
}

// recListener hands the server recConns and the test the same ones.
type recListener struct {
	net.Listener
	conns chan *recConn
}

func (l *recListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	rc := &recConn{Conn: nc}
	l.conns <- rc
	return rc, nil
}

// recServer is testServer over a recording listener, with one client
// dialed: it returns the client and the server's end of the client's
// one connection. The HelloOK frame is still in the recording.
func recServer(t *testing.T, dbOpts []dsdb.Option, opts ...server.Option) (*dsdb.DB, *server.Server, *client.DB, *recConn) {
	t.Helper()
	db, err := dsdb.Open(append([]dsdb.Option{dsdb.WithTPCD(0.0005), dsdb.WithSeed(42)}, dbOpts...)...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := server.New(db, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rl := &recListener{Listener: ln, conns: make(chan *recConn, 4)} // more than the one connection the test dials
	go srv.Serve(rl)
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return db, srv, c, <-rl.conns
}

// drain runs one query to the end of its stream and returns the rows
// read and the error that ended it, if any.
func drain(c *client.DB, ctx context.Context, label, q string) (int, error) {
	rows, err := c.QueryLabeled(ctx, label, q)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	return n, rows.Err()
}

// splitFrames cuts a recorded byte stream into its frames.
func splitFrames(t *testing.T, stream []byte) []wire.Frame {
	t.Helper()
	var frames []wire.Frame
	r := bytes.NewReader(stream)
	for {
		fr, err := wire.ReadFrame(r)
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatalf("recorded stream is not whole frames: %v", err)
		}
		frames = append(frames, fr)
	}
}

// renderFrames prints a response one frame a line, with the query id —
// the one field that depends on what ran before — zeroed in Done.
func renderFrames(t *testing.T, name string, stream []byte) string {
	t.Helper()
	var b strings.Builder
	for _, fr := range splitFrames(t, stream) {
		p := fr.Payload
		if fr.Kind == wire.KindDone {
			dn, err := wire.DecodeDone(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			dn.QueryID = 0
			p = wire.EncodeDone(dn)
		}
		fmt.Fprintf(&b, "%s\t%s\t%x\n", name, fr.Kind, p)
	}
	return b.String()
}

// longQuery returns 1,000 rows: sixteen batches, the last one partial.
const longQuery = "select l_orderkey, l_linenumber from lineitem order by l_orderkey, l_linenumber limit 1000"

// TestWireBytesIdentical pins every byte the server sends for the 12
// TPC-D results — streamed from the executor (miss), served from the
// result cache by canonical key (hit) and by raw text (hit again; Q13
// spans two batches) — a SHOW table and a compile error. The golden was
// written by the commit before results were written through the
// buffered resultWriter (one frame, one flush); how frames are grouped
// into socket writes must not change a byte of the stream. Regenerate
// only for a deliberate protocol change:
//
//	go test ./dsdb/server -run TestWireBytesIdentical -update
func TestWireBytesIdentical(t *testing.T) {
	_, _, c, rc := recServer(t, []dsdb.Option{dsdb.WithResultCache(8 << 20)})
	hello, _ := rc.take()
	got := renderFrames(t, "hello", hello)
	run := func(name, q string) {
		t.Helper()
		_, err := drain(c, context.Background(), name, q)
		var ef wire.ErrorFrame
		if err != nil && !errors.As(err, &ef) {
			t.Fatalf("%s: %v", name, err)
		}
		stream, _ := rc.take()
		got += renderFrames(t, name, stream)
	}
	for _, qn := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(qn)
		for _, pass := range []string{"miss", "hit", "hit2"} {
			run(fmt.Sprintf("Q%d.%s", qn, pass), q)
		}
	}
	run("show", "SHOW tables")
	run("error", "select x from nosuchtable")

	path := filepath.Join("testdata", "wire_stream.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("server byte stream differs from %s at line %d:\n got %.200s\nwant %.200s", path, i+1, gl[i], strings.Join(wl[i:min(i+1, len(wl))], ""))
			}
		}
		t.Fatalf("server byte stream is a prefix of %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestCancelMidStreamShape checks the one stream whose bytes depend on
// timing, by shape: however far the stream got when the Cancel landed,
// the client was sent the header, whole batches only — the unsent tail
// is dropped, never flushed short — and exactly one cancelled Error;
// and the connection carries the next query.
func TestCancelMidStreamShape(t *testing.T) {
	_, srv, c, rc := recServer(t, nil)
	rc.take()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := c.Query(ctx, bigCrossJoin)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("stream ended with %v, want context.Canceled", err)
	}
	rows.Close()
	stream, _ := rc.take()
	frames := splitFrames(t, stream)
	if len(frames) < 3 || frames[0].Kind != wire.KindRowHeader {
		t.Fatalf("stream of %d frames does not open with a RowHeader and a batch", len(frames))
	}
	for i, fr := range frames[1 : len(frames)-1] {
		if fr.Kind != wire.KindRowBatch {
			t.Fatalf("frame %d is %s, want RowBatch", i+1, fr.Kind)
		}
		b, err := wire.DecodeRowBatch(fr.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Rows) != wire.BatchRows {
			t.Fatalf("batch %d carries %d rows: a cancelled stream sends whole batches only", i+1, len(b.Rows))
		}
	}
	last := frames[len(frames)-1]
	if last.Kind != wire.KindError {
		t.Fatalf("stream ends with %s, want Error", last.Kind)
	}
	if ef, err := wire.DecodeError(last.Payload); err != nil || ef.Code != wire.CodeCancelled {
		t.Fatalf("terminal frame %+v (%v), want code %q", ef, err, wire.CodeCancelled)
	}
	if n, err := drain(c, context.Background(), "", "select count(*) from region"); err != nil || n != 1 {
		t.Fatalf("query after the cancel: %d rows, %v", n, err)
	}
	if st := srv.Stats(); st.TotalConns != 1 {
		t.Fatalf("%d connections accepted, want the one reused", st.TotalConns)
	}
}

// TestResultWriteCounts pins the flush rule by counting socket writes:
// a result of n rows is n/BatchRows + 1 of them — one for every result
// that fits a batch, header and rows and Done together — whether the
// rows come from the executor or the cache; an error is one.
func TestResultWriteCounts(t *testing.T) {
	_, _, c, rc := recServer(t, []dsdb.Option{dsdb.WithResultCache(8 << 20)})
	rc.take()
	check := func(name, q string, rows int) int {
		t.Helper()
		n, err := drain(c, context.Background(), name, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, writes := rc.take()
		if rows >= 0 && n != rows {
			t.Fatalf("%s: %d rows, want %d", name, n, rows)
		}
		if want := n/wire.BatchRows + 1; writes != want {
			t.Errorf("%s: %d rows took %d socket writes, want %d", name, n, writes, want)
		}
		return n
	}
	multi := 0
	for _, qn := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(qn)
		for _, pass := range []string{"miss", "hit"} {
			if check(fmt.Sprintf("Q%d.%s", qn, pass), q, -1) > wire.BatchRows {
				multi++
			}
		}
	}
	if multi == 0 {
		t.Error("no TPC-D result spans two batches: the two-write case went untested")
	}
	check("long.miss", longQuery, 1000) // 15 full batches, then 40 rows with the Done
	check("long.hit", longQuery, 1000)
	check("show", "show tables", -1)

	if _, err := drain(c, context.Background(), "", "select x from nosuchtable"); err == nil {
		t.Fatal("compile error expected")
	}
	if _, writes := rc.take(); writes != 1 {
		t.Errorf("a compile error took %d socket writes, want 1", writes)
	}
}

// gateTracer lets a query's first events through and then holds the
// executor at the gate until it is opened.
type gateTracer struct {
	events atomic.Int64
	closed atomic.Int64 // hold every event past this many; 0 = never
	open   chan struct{}
}

func (g *gateTracer) Emit(probe.ID) {
	if n, at := g.events.Add(1), g.closed.Load(); at > 0 && n > at {
		<-g.open
	}
}

// TestFirstBatchBeforeLastRow is the other half of the flush rule: a
// full batch is not held back for the rest of the result. The producer
// is stopped half-way through a 1,000-row scan (a tracer that blocks
// the executor); the client must get the first 64 rows while it is
// stopped — while the last row does not exist yet.
func TestFirstBatchBeforeLastRow(t *testing.T) {
	gate := &gateTracer{open: make(chan struct{})}
	_, _, c, _ := recServer(t, nil, server.WithSessionHooks(func(int) server.SessionHooks {
		return server.SessionHooks{Tracer: gate}
	}))
	const q = "select l_orderkey, l_linenumber from lineitem"
	total, err := drain(c, context.Background(), "", q)
	if err != nil {
		t.Fatal(err)
	}
	perQuery := gate.events.Load()
	if total < 4*wire.BatchRows || perQuery < int64(total) {
		t.Fatalf("calibration run: %d rows, %d probe events", total, perQuery)
	}
	gate.events.Store(0)
	gate.closed.Store(perQuery / 2)

	rows, err := c.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	first := make(chan int, 1)
	go func() {
		n := 0
		for n < wire.BatchRows && rows.Next() {
			n++
		}
		first <- n
	}()
	select {
	case n := <-first:
		if n != wire.BatchRows {
			t.Fatalf("read %d rows, then the stream ended: %v", n, rows.Err())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the first batch did not arrive while the producer was held: full batches are being buffered")
	}
	if seen := gate.events.Load(); seen > perQuery/2+1 {
		t.Fatalf("producer ran %d of %d events: it was not held", seen, perQuery)
	}
	close(gate.open)
	n := wire.BatchRows
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil || n != total {
		t.Fatalf("stream finished with %d of %d rows, %v", n, total, err)
	}
}

// servedHitSlack and servedHitStale bound a served hit's allocation
// count against its golden, like the executor's budget in package dsdb:
// over by 5 % fails, and so does under by 10 % (a win the budget has not
// locked in is slack the next regression hides in).
const (
	servedHitSlack = 1.05
	servedHitStale = 0.90
)

// TestServedHitAllocBudget pins the heap allocations of one served
// result-cache hit — client and server in this process, both sides
// counted — per TPC-D query: what is left is per query (the client's
// Rows, the decoded column names and batch, the query text) and per
// string value, not per row, per frame or per hit of lexing. After an
// intentional change regenerate with
//
//	go test ./dsdb/server -run TestServedHitAllocBudget -update
func TestServedHitAllocBudget(t *testing.T) {
	_, _, c, _ := recServer(t, []dsdb.Option{dsdb.WithResultCache(8 << 20)})
	path := filepath.Join("testdata", "served_hit_allocs.golden")
	budget := map[string]float64{}
	if !*update {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden (regenerate with -update): %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var name string
			var n float64
			if _, err := fmt.Sscanf(line, "%s %f", &name, &n); err != nil {
				t.Fatalf("bad golden line %q: %v", line, err)
			}
			budget[name] = n
		}
	}
	var golden strings.Builder
	for _, qn := range dsdb.TPCDQueryNumbers() {
		q, _ := dsdb.TPCDQuery(qn)
		name := fmt.Sprintf("Q%d", qn)
		hit := func() {
			if _, err := drain(c, context.Background(), name, q); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		// Fill, hit by canonical key (which records the alias), hit by
		// raw text: from here every run is the steady state.
		for i := 0; i < 3; i++ {
			hit()
		}
		allocs := testing.AllocsPerRun(20, hit)
		fmt.Fprintf(&golden, "%s %.0f\n", name, allocs)
		if *update {
			continue
		}
		want, ok := budget[name]
		switch {
		case !ok:
			t.Errorf("%s: no budget in %s (regenerate with -update)", name, path)
		case allocs > want*servedHitSlack:
			t.Errorf("%s: %.0f allocations per served hit, budget %.0f (+%.0f%% slack): the hit path allocates more than it did",
				name, allocs, want, 100*(servedHitSlack-1))
		case allocs < want*servedHitStale:
			t.Errorf("%s: %.0f allocations per served hit, budget %.0f: stale budget, rerun with -update to lock the win in",
				name, allocs, want)
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
