package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/dsdb"
	"repro/dsdb/obs"
	"repro/dsdb/wcap"
	"repro/dsdb/wire"
	"repro/internal/db/sql"
)

// conn is one served connection: one session over the shared DB.
type conn struct {
	srv   *Server
	id    int
	nc    net.Conn
	hooks SessionHooks

	// out holds the frames built but not yet written: whole frames, laid
	// out end to end, handed to the socket in one write by flush. Handler
	// goroutine only; empty between requests, because every response
	// ends in a frame that flushes.
	out wire.Encoder

	// frames is fed by readLoop; closed when the socket dies. Its
	// buffer is what lets a Cancel frame arrive while the handler is
	// busy streaming rows. done tells readLoop the handler is gone, so
	// it never blocks forever sending to a channel nobody reads.
	// readErr and idleKilled are written by readLoop before it closes
	// frames and read by the handler only after the close, so the
	// channel close is the happens-before edge that makes the plain
	// fields safe.
	frames     chan wire.Frame
	done       chan struct{}
	readErr    error
	idleKilled bool

	// quit is set by streamRows when a Quit frame overtakes the result
	// stream: the stream is cancelled in place and the session ends
	// right after the handler returns (handler goroutine only).
	quit bool

	// qmu guards the query-cancellation state below. qseen counts
	// Query/QueryStmt frames as readLoop decodes them; qcur counts
	// them as the handler starts executing them, and qdone as it
	// finishes them (qseen > qdone is what tells readLoop's idle
	// timeout that a silent client is mid-query, not idle). A Cancel
	// frame aims at query #qseen: if that query is running
	// (qcur == qseen) its context is cancelled on the spot; if the
	// handler has not reached it yet, pendingCancel arms so queryCtx
	// starts it pre-cancelled. Attributing cancels by sequence number
	// is what keeps a stray Cancel — one that raced with the query's
	// own completion — from ever cancelling the next query.
	qmu           sync.Mutex
	qcancel       context.CancelFunc
	qseen         uint64
	qcur          uint64
	qdone         uint64
	pendingCancel uint64

	// stats is this connection's counter block (stats.go); surfaced by
	// SHOW CONNS.
	stats connStats

	stmts      map[uint32]*dsdb.Stmt
	stmtCols   map[uint32][]string
	stmtSQL    map[uint32]string
	nextStmtID uint32
}

// capture records one finished query to the server's workload capture
// log. With capture disabled (the default) this is a single nil check.
// bytes is the result-stream frame bytes; class classifies the
// outcome. Must run before sp.End() — the span's stage counters are
// read live — which the call sites guarantee by capturing inside the
// stream function bodies, before their deferred End fires.
func (c *conn) capture(label, sql string, start time.Time, sp *obs.Span, rows, bytes uint64, hit bool, class wcap.ErrClass) {
	w := c.srv.cfg.capture
	if w == nil {
		return
	}
	rec := wcap.Record{
		Offset:   start.Sub(w.Start()),
		Session:  uint32(c.id),
		QueryID:  sp.ID(),
		Label:    label,
		SQL:      sql,
		Rows:     rows,
		Bytes:    bytes,
		Latency:  time.Since(start),
		CacheHit: hit,
		Err:      class,
	}
	if sp != nil {
		st := sp.StageNanos()
		rec.NumStages = uint8(copy(rec.StageArr[:], st[:]))
	}
	w.Capture(rec)
}

// captureClass maps a query failure onto its capture error class.
func captureClass(err error) wcap.ErrClass {
	if err == nil {
		return wcap.OK
	}
	if queryErrCode(err) == wire.CodeCancelled {
		return wcap.ErrCancelled
	}
	return wcap.ErrQuery
}

// readLoop decodes frames off the socket into c.frames until the
// connection dies or the handler exits. Cancel frames additionally
// fire (or arm, via pendingCancel) the target query's context right
// here, before enqueueing: the handler may be blocked deep inside
// rows.Next() — a single-row aggregate does all its work there —
// where it cannot poll the frame channel, but the executor's
// Interrupt hook reacts to the context. The Cancel frame is still
// enqueued so the handler consumes it in order and stray cancels
// stay harmless no-ops.
// readLoop also owns the connection's read deadline: the Hello frame
// must arrive within handshakeTimeout, and after that each read waits
// at most the idle timeout (when one is configured). A deadline that
// cannot be set means the socket is already dead, and the session
// fails rather than being admitted with no deadline at all.
func (c *conn) readLoop() {
	first := true
	for {
		var dl time.Time
		if first {
			dl = time.Now().Add(handshakeTimeout)
		} else if d := c.srv.cfg.idleTimeout; d > 0 {
			dl = time.Now().Add(d)
		}
		if err := c.nc.SetReadDeadline(dl); err != nil {
			c.readErr = err
			close(c.frames)
			return
		}
		fr, err := wire.ReadFrame(c.nc)
		if err != nil {
			if !first && isTimeout(err) {
				// Idle deadline fired. A session mid-query is busy, not
				// idle — the client is legitimately silent while its
				// result stream is served — so re-arm and keep reading.
				c.qmu.Lock()
				busy := c.qseen > c.qdone
				c.qmu.Unlock()
				if busy {
					continue
				}
				c.idleKilled = true
			}
			c.readErr = err
			close(c.frames)
			return
		}
		first = false
		switch fr.Kind {
		case wire.KindQuery, wire.KindQueryStmt:
			c.qmu.Lock()
			c.qseen++
			c.qmu.Unlock()
		case wire.KindCancel:
			c.qmu.Lock()
			c.pendingCancel = c.qseen
			if c.qcancel != nil && c.qcur == c.qseen {
				c.qcancel()
			}
			c.qmu.Unlock()
		}
		select {
		case c.frames <- fr:
		case <-c.done:
			return
		}
	}
}

// errSlowClient marks a frame write that timed out: the client
// stopped reading long enough for the kernel buffers to fill. serve()
// tears the connection down without attempting another write.
var errSlowClient = errors.New("server: slow client (write timeout)")

// isTimeout reports whether err is a network timeout.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// send buffers one frame and flushes: for the frames that are a whole
// response (HelloOK, PrepareOK, StatsResult) or that end one (Error).
func (c *conn) send(k wire.Kind, payload []byte) error {
	mark := c.out.Len()
	if err := c.out.Frame(k, payload); err != nil {
		return err
	}
	c.countFrame(mark)
	return c.flush()
}

// endFrame closes the frame opened at mark in c.out and counts its
// bytes. Counting here, not at the write, keeps two properties of the
// per-frame writes this replaced: a frame is in Stats before the flush
// that lets the client read it — a client holding a Done frame finds it
// counted — and a frame that is built but dropped unsent (the open
// batch of a stream that fails) never is.
func (c *conn) endFrame(mark int) error {
	if err := c.out.EndFrame(mark); err != nil {
		return err
	}
	c.countFrame(mark)
	return nil
}

// countFrame counts the bytes of the closed frame that begins at mark
// and ends the buffer.
func (c *conn) countFrame(mark int) {
	n := uint64(c.out.Len() - mark)
	c.srv.counters.bytesWritten.Add(n)
	c.stats.bytesOut.Add(n)
}

// maxRetainedOut is the largest output buffer a connection keeps for
// its next response; a flush bigger than this (a batch of very wide
// rows) gives its buffer back to the collector.
const maxRetainedOut = 256 << 10

// flush hands the socket every buffered frame in one write, bounded by
// the write timeout. A client that stops reading makes the write block
// once the kernel buffers fill; the deadline caps that, and the timeout
// path cancels the in-flight query so its open Rows — and with it the
// engine's shared read latch — is released on the way out. This is the
// fix for the stalled-reader-wedges-writers liveness bug.
func (c *conn) flush() error {
	n := c.out.Len()
	if n == 0 {
		return nil
	}
	var err error
	if d := c.srv.cfg.writeTimeout; d > 0 {
		err = c.nc.SetWriteDeadline(time.Now().Add(d))
	}
	if err == nil {
		if _, err = c.nc.Write(c.out.Bytes()); err != nil {
			err = c.writeFailed(err)
		}
	}
	if n > maxRetainedOut {
		c.out = wire.Encoder{}
	} else {
		c.out.Reset()
	}
	return err
}

// rowTally is one result stream's row count: n rows taken from the
// executor so far, counted of them already in the server's counters.
type rowTally struct{ n, counted uint64 }

// countRows adds the stream's not yet counted rows to the server and
// session counters. A stream calls it before it flushes the frame
// that completes the query (Done, or the error marker), so a client
// that holds its complete answer finds it in Stats, and once more on
// the way out for the streams that end early.
func (c *conn) countRows(t *rowTally) {
	c.srv.counters.rowsStreamed.Add(t.n - t.counted)
	c.stats.rows.Add(t.n - t.counted)
	t.counted = t.n
}

// writeFailed classifies a frame-write failure. A timeout is the slow
// client case: count the kill and cancel the in-flight query right
// here — streamRows may still be iterating, and the cancel is what
// stops the executor and frees the latch promptly.
func (c *conn) writeFailed(err error) error {
	if isTimeout(err) {
		c.srv.counters.slowClientKills.Add(1)
		c.cancelQuery()
		return fmt.Errorf("%w: %v", errSlowClient, err)
	}
	return err
}

// farewell best-effort writes one terminal error frame under a short
// explicit deadline. Used when the session is already being torn down
// (idle kill), where blocking on a dead peer would be absurd.
func (c *conn) farewell(code, msg string) {
	if c.nc.SetWriteDeadline(time.Now().Add(refuseTimeout)) != nil {
		return
	}
	var e wire.Encoder
	if e.Frame(wire.KindError, wire.EncodeError(wire.ErrorFrame{Code: code, Message: msg})) == nil {
		c.nc.Write(e.Bytes())
	}
}

// sendError reports a query-level failure; the connection survives.
func (c *conn) sendError(code, msg string) error {
	return c.send(wire.KindError, wire.EncodeError(wire.ErrorFrame{Code: code, Message: msg}))
}

// serve runs the session: handshake, then one request at a time until
// the client quits, the socket dies, a protocol violation occurs, or
// the server drains.
func (c *conn) serve() {
	defer close(c.done)
	defer c.nc.Close()
	defer func() {
		if c.hooks.OnClose != nil {
			c.hooks.OnClose()
		}
	}()
	if err := c.handshake(); err != nil {
		return
	}
	for {
		var fr wire.Frame
		var ok bool
		select {
		case fr, ok = <-c.frames:
			if !ok {
				if c.idleKilled {
					// readLoop gave up on an idle session; tell the
					// client why (it may well still be reading) and go.
					c.srv.counters.idleKills.Add(1)
					c.farewell(wire.CodeIdle, "session idle timeout")
				}
				return // socket closed, client gone
			}
		case <-c.srv.drainCh:
			return // Shutdown: exit at the frame boundary
		}
		var err error
		switch fr.Kind {
		case wire.KindQuery:
			var q wire.Query
			if q, err = wire.DecodeQuery(fr.Payload); err == nil {
				err = c.handleQuery(q)
			}
		case wire.KindPrepare:
			var p wire.Prepare
			if p, err = wire.DecodePrepare(fr.Payload); err == nil {
				err = c.handlePrepare(p)
			}
		case wire.KindQueryStmt:
			var q wire.QueryStmt
			if q, err = wire.DecodeQueryStmt(fr.Payload); err == nil {
				err = c.handleQueryStmt(q)
			}
		case wire.KindCloseStmt:
			var cl wire.CloseStmt
			if cl, err = wire.DecodeCloseStmt(fr.Payload); err == nil {
				delete(c.stmts, cl.StmtID)
				delete(c.stmtCols, cl.StmtID)
				delete(c.stmtSQL, cl.StmtID)
			}
		case wire.KindStats:
			err = c.send(wire.KindStatsResult, wire.EncodeStats(wire.Stats{Pairs: c.srv.statPairs()}))
		case wire.KindCancel:
			// Stray cancel: the query it aimed at already finished.
		case wire.KindQuit:
			return
		default:
			err = fmt.Errorf("unexpected %s frame", fr.Kind)
		}
		if err != nil {
			// A slow-client kill already cancelled the query and is past
			// writing to this socket; anything else gets a last protocol
			// error before the connection closes.
			if !errors.Is(err, errSlowClient) {
				c.sendError(wire.CodeProto, err.Error())
			}
			return
		}
		if c.quit {
			return // Quit overtook the last result stream
		}
		// Drain at the query boundary once the server is shutting
		// down (the blocking select above covers the idle case).
		select {
		case <-c.srv.drainCh:
			return
		default:
		}
	}
}

// handshake consumes the Hello frame and acknowledges the session.
func (c *conn) handshake() error {
	var fr wire.Frame
	var ok bool
	select {
	case fr, ok = <-c.frames:
		if !ok {
			return c.readErr
		}
	case <-c.srv.drainCh:
		return errors.New("server: draining")
	}

	if fr.Kind != wire.KindHello {
		c.sendError(wire.CodeProto, fmt.Sprintf("expected Hello, got %s", fr.Kind))
		return errors.New("server: bad handshake")
	}
	h, err := wire.DecodeHello(fr.Payload)
	if err != nil {
		c.sendError(wire.CodeProto, err.Error())
		return err
	}
	if h.Version != wire.ProtocolVersion {
		c.sendError(wire.CodeProto, fmt.Sprintf("protocol version %d unsupported (want %d)", h.Version, wire.ProtocolVersion))
		return errors.New("server: version mismatch")
	}
	// Session established. readLoop owns the read deadline and has
	// already swapped the handshake bound for the idle policy.
	return c.send(wire.KindHelloOK, wire.EncodeHelloOK(wire.HelloOK{
		Version:   wire.ProtocolVersion,
		SessionID: uint32(c.id),
	}))
}

// queryCtx builds the per-query context (server-side deadline, if
// configured) and registers its cancel for readLoop's Cancel handling
// and Shutdown's force path. A Cancel frame that arrived before the
// handler got here (pendingCancel armed for this sequence number)
// starts the query already cancelled.
func (c *conn) queryCtx() (context.Context, context.CancelFunc) {
	ctx := context.Background() //lint:allow ctxflow per-query session root: the wire protocol carries no inbound context
	var cancel context.CancelFunc
	if d := c.srv.cfg.queryTimeout; d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	c.qmu.Lock()
	c.qcur++
	c.qcancel = cancel
	if c.pendingCancel == c.qcur {
		c.pendingCancel = 0
		cancel()
	}
	c.qmu.Unlock()
	return ctx, func() {
		c.qmu.Lock()
		c.qcancel = nil
		c.qdone++
		c.qmu.Unlock()
		cancel()
	}
}

// beginQuery opens the per-query accounting window; endQuery closes
// it and records the latency bucket.
func (c *conn) beginQuery() time.Time {
	c.srv.counters.queries.Add(1)
	c.srv.counters.inFlight.Add(1)
	c.stats.queries.Add(1)
	c.stats.inFlight.Add(1)
	return time.Now()
}

func (c *conn) endQuery(start time.Time) {
	c.srv.counters.inFlight.Add(-1)
	c.stats.inFlight.Add(-1)
	c.srv.counters.observe(time.Since(start))
}

// reportQueryError counts and reports a query-level failure; the
// connection survives (unless the report itself cannot be written).
func (c *conn) reportQueryError(err error) error {
	code := queryErrCode(err)
	if code == wire.CodeCancelled {
		c.srv.counters.cancelledQueries.Add(1)
	} else {
		c.srv.counters.queryErrors.Add(1)
	}
	return c.sendError(code, err.Error())
}

// cancelQuery cancels the in-flight query, if any (Shutdown force
// path).
func (c *conn) cancelQuery() {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if c.qcancel != nil {
		c.qcancel()
	}
}

// handleQuery executes one-shot SQL. Sessions run with their own
// tracer (possibly nil, i.e. untraced): a tracer is single-threaded,
// so one shared by connections would race.
func (c *conn) handleQuery(q wire.Query) error {
	if target, ok := sql.SplitShow(q.SQL); ok {
		return c.handleShow(target, q.Label)
	}
	ctx, done := c.queryCtx()
	defer done()
	start := c.beginQuery()
	defer c.endQuery(start)
	if c.hooks.OnQuery != nil {
		c.hooks.OnQuery(q.Label)
	}
	rows, err := c.srv.db.QueryObserved(ctx, c.hooks.Tracer, q.Label, q.SQL)
	if err != nil {
		c.capture(q.Label, q.SQL, start, nil, 0, 0, false, captureClass(err))
		return c.reportQueryError(err)
	}
	return c.streamRows(rows, q.Label, q.SQL, start)
}

// handleShow serves a SHOW virtual table. It still runs the full
// query protocol — queryCtx consumes this Query frame's sequence
// number (readLoop counted it) and honors a Cancel that raced ahead —
// but the rows come from the server's own introspection, not the
// engine.
func (c *conn) handleShow(target, label string) error {
	ctx, done := c.queryCtx()
	defer done()
	start := c.beginQuery()
	defer c.endQuery(start)
	if c.hooks.OnQuery != nil {
		c.hooks.OnQuery(label)
	}
	// SHOW runs under a span too (it is a served query), but builds its
	// rows before the ring is snapshotted below — an in-flight SHOW has
	// not Ended yet, so it never lists itself.
	sp := c.srv.db.Obs().Begin(label, "show "+target)
	defer sp.End()
	if err := ctx.Err(); err != nil {
		sp.SetErr(err)
		c.capture(label, "show "+target, start, sp, 0, 0, false, captureClass(err))
		return c.reportQueryError(err)
	}
	cols, rows, err := c.srv.showRows(target)
	if err != nil {
		sp.SetErr(err)
		c.srv.counters.queryErrors.Add(1)
		c.capture(label, "show "+target, start, sp, 0, 0, false, wcap.ErrQuery)
		return c.sendError(wire.CodeQuery, err.Error())
	}
	return c.streamStatic(cols, rows, sp, label, "show "+target, start)
}

// queryErrCode classifies a query failure: cancellations (client
// Cancel frame, server deadline) get their own code so clients can
// map them back onto their context's error.
func queryErrCode(err error) string {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return wire.CodeCancelled
	}
	return wire.CodeQuery
}

// handlePrepare compiles a server-side statement.
func (c *conn) handlePrepare(p wire.Prepare) error {
	stmt, err := c.srv.db.PrepareTraced(c.hooks.Tracer, p.SQL)
	if err != nil {
		return c.sendError(wire.CodeQuery, err.Error())
	}
	if c.stmts == nil {
		c.stmts = make(map[uint32]*dsdb.Stmt)
		c.stmtCols = make(map[uint32][]string)
		c.stmtSQL = make(map[uint32]string)
	}
	c.nextStmtID++
	id := c.nextStmtID
	c.stmts[id] = stmt
	c.stmtCols[id] = stmt.Columns()
	c.stmtSQL[id] = p.SQL
	return c.send(wire.KindPrepareOK, wire.EncodePrepareOK(wire.PrepareOK{
		StmtID:  id,
		Columns: c.stmtCols[id],
	}))
}

// handleQueryStmt executes a prepared statement.
func (c *conn) handleQueryStmt(q wire.QueryStmt) error {
	stmt, ok := c.stmts[q.StmtID]
	if !ok {
		// readLoop counted this frame in qseen; consume its sequence
		// number (and any cancel aimed at it) even though nothing runs.
		c.qmu.Lock()
		c.qcur++
		c.qdone++
		if c.pendingCancel == c.qcur {
			c.pendingCancel = 0
		}
		c.qmu.Unlock()
		c.srv.counters.queryErrors.Add(1)
		return c.sendError(wire.CodeQuery, fmt.Sprintf("unknown statement %d", q.StmtID))
	}
	ctx, done := c.queryCtx()
	defer done()
	start := c.beginQuery()
	defer c.endQuery(start)
	if c.hooks.OnQuery != nil {
		c.hooks.OnQuery(q.Label)
	}
	rows, err := stmt.QueryLabeled(ctx, q.Label)
	if err != nil {
		c.capture(q.Label, c.stmtSQL[q.StmtID], start, nil, 0, 0, false, captureClass(err))
		return c.reportQueryError(err)
	}
	return c.streamRows(rows, q.Label, c.stmtSQL[q.StmtID], start)
}

// resultWriter lays one result stream — RowHeader, RowBatch*, then Done
// or Error — out in the connection's output buffer; streamRows and
// streamStatic both write through it. The flush rule: the RowHeader and
// a partial RowBatch wait in the buffer, a full RowBatch (BatchRows
// rows) is written at once together with whatever waits before it, and
// the terminal frame always flushes. So a result of n rows costs
// n/BatchRows + 1 socket writes — one, for the short results that are
// most of a decision-support mix — while a long one still reaches the
// client a batch at a time, as soon as each batch exists.
type resultWriter struct {
	c  *conn
	sp *obs.Span // nil when unobserved

	batch int // mark of the open RowBatch in c.out, -1 when there is none
	n     int // rows encoded into the open batch

	tally  rowTally
	bytes0 uint64 // c.stats.bytesOut when the stream began

	// netStart and exec0 time the span's net stage: the stream's wall
	// time less what the executor's pulls booked as exec meanwhile — the
	// encoding, the socket writes and the loop around them — read off two
	// clock readings per stream rather than two per frame. netStart is
	// zero once the stage is closed (or was never open: no span).
	netStart time.Time
	exec0    time.Duration
}

// beginResult opens a result stream with its RowHeader (buffered).
func (c *conn) beginResult(sp *obs.Span, cols []string) (resultWriter, error) {
	w := resultWriter{c: c, sp: sp, batch: -1, bytes0: c.stats.bytesOut.Load()}
	if sp != nil {
		w.netStart, w.exec0 = time.Now(), sp.Stage(obs.StageExec)
	}
	mark := c.out.BeginFrame(wire.KindRowHeader)
	c.out.RowHeader(wire.RowHeader{Columns: cols})
	return w, c.endFrame(mark)
}

// row encodes one row into the open batch — straight from the caller's
// view of it, which need not outlive the call — and writes the batch
// out when it is full.
func (w *resultWriter) row(vals []dsdb.Value) error {
	if w.batch < 0 {
		w.batch = w.c.out.BeginRowBatch()
	}
	w.c.out.Row(vals)
	w.n++
	w.tally.n++
	if w.n < wire.BatchRows {
		return nil
	}
	if err := w.endBatch(); err != nil {
		return err
	}
	return w.c.flush()
}

// endBatch closes the open batch, if any, leaving it buffered.
func (w *resultWriter) endBatch() error {
	if w.batch < 0 {
		return nil
	}
	mark, n := w.batch, w.n
	w.batch, w.n = -1, 0
	if err := w.c.out.EndRowBatch(mark, n); err != nil {
		return err
	}
	return w.c.endFrame(mark)
}

// abandon ends the stream short of Done: the open batch is discarded
// unsent — a stream that fails ends with its error marker, not with the
// rows before it — and the net stage is closed. A no-op after done.
func (w *resultWriter) abandon() {
	if w.batch >= 0 {
		w.c.out.Truncate(w.batch)
		w.batch, w.n = -1, 0
	}
	w.endNet()
}

// done completes the stream: the tail batch and the Done frame go out
// in one write, with the rows counted first (see countRows).
func (w *resultWriter) done(flags uint8) error {
	if err := w.endBatch(); err != nil {
		return err
	}
	w.c.countRows(&w.tally)
	mark := w.c.out.BeginFrame(wire.KindDone)
	w.c.out.Done(wire.Done{RowCount: w.tally.n, Flags: flags, QueryID: w.sp.ID()})
	if err := w.c.endFrame(mark); err != nil {
		return err
	}
	err := w.c.flush()
	w.endNet()
	return err
}

// endNet books the stream's net stage, once.
func (w *resultWriter) endNet() {
	if w.netStart.IsZero() {
		return
	}
	w.sp.Add(obs.StageNet, time.Since(w.netStart)-(w.sp.Stage(obs.StageExec)-w.exec0))
	w.netStart = time.Time{}
}

// bytes is the frame bytes the stream has produced so far.
func (w *resultWriter) bytes() uint64 { return w.c.stats.bytesOut.Load() - w.bytes0 }

// finish is every stream's deferred last step, however it ended: an
// unsent batch is dropped, the rows and the net time land on the span
// and in the counters (no-ops where done already did it).
func (w *resultWriter) finish() {
	w.abandon()
	w.c.countRows(&w.tally)
	w.sp.AddRows(int64(w.tally.n))
}

// streamRows sends RowHeader + RowBatch* + (Done | Error) for one
// result set, polling for a client Cancel between rows. A non-nil
// return means the connection itself is unusable (write failure or
// protocol violation); query-level failures are reported in-stream
// and return nil. Terminal outcomes — the Done frame out, or the
// query-level error reported — are recorded to the workload capture;
// a connection-fatal failure mid-stream is not (the outcome the
// client saw is a half-stream, which no replay should repeat).
func (c *conn) streamRows(rows *dsdb.Rows, label, sql string, start time.Time) error {
	// The query's observability span outlives the Rows: frame encoding
	// and flushing are part of serving the query, so the stream
	// detaches the span, attributes its sends to the net stage, and
	// ends it only after the Done frame is out (Close's own end then
	// no-ops). The defer order (LIFO) is what makes it sound: the row
	// count lands on the span, then the span ends, then the Rows
	// closes.
	sp := rows.DetachSpan()
	defer rows.Close()
	defer sp.End()
	cancel := c.cancelQuery
	w, err := c.beginResult(sp, rows.Columns())
	defer w.finish()
	if err != nil {
		return err
	}
	for rows.Next() {
		// A Cancel (or premature Quit) may overtake the stream: the
		// reader goroutine keeps decoding while we emit, so poll
		// without blocking.
		select {
		case fr, ok := <-c.frames:
			if !ok {
				cancel() // client vanished mid-stream: stop the query
				return c.readErr
			}
			switch fr.Kind {
			case wire.KindCancel:
				cancel()
			case wire.KindQuit:
				// Quit mid-stream: cancel like a Cancel, and flag the
				// session to end once the stream's error marker is out.
				cancel()
				c.quit = true
			default:
				cancel()
				return fmt.Errorf("unexpected %s frame during result stream", fr.Kind)
			}
		default:
		}
		if err := w.row(rows.BorrowValues()); err != nil {
			cancel()
			return err
		}
	}
	if err := rows.Err(); err != nil {
		// Drop the unsent tail: the stream ends with the error marker.
		sp.SetErr(err)
		w.abandon()
		c.capture(label, sql, start, sp, w.tally.n, w.bytes(), false, captureClass(err))
		c.countRows(&w.tally)
		return c.reportQueryError(err)
	}
	// Attribute the execution in the terminal frame: a cache-hit serve
	// never touched the executor, and the client (dsload in
	// particular) splits its latency percentiles on this flag. The
	// span's id rides along so the client can correlate this result
	// with SHOW queries / SHOW slow.
	var flags uint8
	if rows.CacheHit() {
		flags |= wire.DoneFlagCacheHit
		c.srv.counters.cacheHits.Add(1)
	}
	if err := w.done(flags); err != nil {
		return err
	}
	c.capture(label, sql, start, sp, w.tally.n, w.bytes(), rows.CacheHit(), wcap.OK)
	return nil
}

// streamStatic streams a pre-materialized (virtual-table) result set
// with the same RowHeader/RowBatch/Done framing as an engine query.
// The caller's span (nil when observability is disabled) gets the
// row count and the send time as net-stage work; ending it stays with
// the caller. Like any served query the completed stream is recorded
// to the workload capture.
func (c *conn) streamStatic(cols []string, rows [][]dsdb.Value, sp *obs.Span, label, sql string, start time.Time) error {
	w, err := c.beginResult(sp, cols)
	defer w.finish()
	if err != nil {
		return err
	}
	for _, row := range rows {
		if err := w.row(row); err != nil {
			return err
		}
	}
	if err := w.done(0); err != nil {
		return err
	}
	c.capture(label, sql, start, sp, w.tally.n, w.bytes(), false, wcap.OK)
	return nil
}
