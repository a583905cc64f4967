package client

import (
	"bufio"
	"context"
	"net"
	"sync"
	"time"

	"repro/dsdb"
	"repro/dsdb/wire"
)

// conn is one protocol connection: synchronous request/response with
// at most one result stream in flight. The write side is guarded by
// wmu because a cancellation watcher may inject a Cancel frame while
// the owning goroutine reads the stream.
type conn struct {
	nc        net.Conn
	r         *bufio.Reader
	w         *bufio.Writer
	sessionID uint32
	wmu       sync.Mutex

	// rbuf is the one buffer every frame is read into: a frame returned
	// by read is valid until the next read. That is safe because each
	// frame is decoded before the next is read and the decoders copy
	// every string out of the payload.
	rbuf []byte
}

// send writes and flushes one frame.
func (c *conn) send(k wire.Kind, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := wire.WriteFrame(c.w, k, payload); err != nil {
		return err
	}
	return c.w.Flush()
}

// read decodes the next server frame into the connection's reused
// buffer; the frame is valid until the next read.
func (c *conn) read() (wire.Frame, error) {
	return wire.ReadFrameInto(c.r, &c.rbuf)
}

// close tears the connection down, telling the server first when
// possible.
func (c *conn) close() {
	c.send(wire.KindQuit, nil)
	c.nc.Close()
}

// Rows is a streaming remote result set with the same iteration
// surface as dsdb.Rows: Next/Scan/Values/Columns/Err/Close. Row
// batches are decoded as they arrive; nothing beyond one batch is
// buffered client-side.
type Rows struct {
	db        *DB // pool to return the conn to; nil when a Stmt owns it
	c         *conn
	ctx       context.Context
	onRelease func()

	cols      []string
	batch     [][]dsdb.Value
	idx       int
	cur       []dsdb.Value
	err       error
	done      bool   // terminal frame (Done or Error) received
	doneFlags uint8  // execution flags from the Done frame
	queryID   uint64 // server-assigned query id from the Done frame
	released  bool

	// cancelMu serializes the context callback against stream
	// completion: exactly one of "query finished" / "Cancel sent" wins.
	// stopWatch unregisters the callback (nil for a context that can
	// never be done); grace is the sever timer armed once a Cancel has
	// gone out.
	cancelMu   sync.Mutex
	finished   bool
	cancelSent bool
	stopWatch  func() bool
	grace      *time.Timer
}

// cancelGrace is how long a cancelled query waits for the server to
// acknowledge the Cancel frame before the connection is severed — the
// bound that keeps cancellation meaningful against a hung or
// partitioned server.
const cancelGrace = 5 * time.Second

// newRows consumes the response header for a just-submitted query.
// The cancellation callback is registered before the header read, so a
// context that expires while the server is still compiling (or
// queued behind a writer latch) interrupts the query too. A
// query-level error frame surfaces as the returned error with the
// connection still healthy.
func newRows(db *DB, c *conn, ctx context.Context) (*Rows, error) {
	r := &Rows{db: db, c: c, ctx: ctx}
	if ctx.Done() != nil {
		// No goroutine exists for this unless the context is actually
		// cancelled; a context that cannot be (Background) costs nothing.
		r.stopWatch = context.AfterFunc(ctx, r.cancelled)
	}
	fr, err := c.read()
	if err != nil {
		r.release(false)
		return nil, err
	}
	switch fr.Kind {
	case wire.KindRowHeader:
		h, err := wire.DecodeRowHeader(fr.Payload)
		if err != nil {
			r.release(false)
			return nil, err
		}
		r.cols = h.Columns
		return r, nil
	case wire.KindError:
		ef, derr := wire.DecodeError(fr.Payload)
		r.release(true) // the session survives query-level failures
		if derr != nil {
			return nil, derr
		}
		if ef.Code == wire.CodeCancelled && ctx.Err() != nil {
			// Cancellation that landed before the first frame must look
			// exactly like cancellation mid-stream: the context's error.
			return nil, ctx.Err()
		}
		return nil, ef
	default:
		r.release(false)
		return nil, wire.ErrorFrame{Code: wire.CodeProto, Message: "unexpected " + fr.Kind.String() + " frame"}
	}
}

// cancelled runs (on its own goroutine, via context.AfterFunc) the
// moment the query's context is done: it sends one Cancel frame, unless
// the stream already finished — this is what lets a client blocked
// mid-stream interrupt the server — and arms the grace timer that
// severs the connection if the server does not end the stream in time,
// unblocking any reader.
func (r *Rows) cancelled() {
	r.cancelMu.Lock()
	defer r.cancelMu.Unlock()
	if r.finished {
		return
	}
	if !r.cancelSent {
		r.cancelSent = true
		r.c.send(wire.KindCancel, nil)
	}
	r.grace = time.AfterFunc(cancelGrace, r.sever)
}

// sever closes the socket of a stream whose Cancel went unacknowledged
// for cancelGrace: the server is hung or unreachable. Closing fails the
// pending read, which releases the Rows with the connection discarded.
func (r *Rows) sever() {
	r.cancelMu.Lock()
	defer r.cancelMu.Unlock()
	if !r.finished {
		r.c.nc.Close()
	}
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next row; false at end of stream, on error, or
// when the context is cancelled (consult Err).
func (r *Rows) Next() bool {
	if r.released || r.err != nil {
		return false
	}
	for {
		if r.idx < len(r.batch) {
			r.cur = r.batch[r.idx]
			r.idx++
			return true
		}
		if r.done {
			r.release(true)
			return false
		}
		if err := r.ctx.Err(); err != nil {
			r.err = err
			r.abort()
			return false
		}
		fr, err := r.c.read()
		if err != nil {
			r.err = err
			r.release(false)
			return false
		}
		switch fr.Kind {
		case wire.KindRowBatch:
			b, err := wire.DecodeRowBatch(fr.Payload)
			if err != nil {
				r.err = err
				r.release(false)
				return false
			}
			r.batch = b.Rows
			r.idx = 0
		case wire.KindDone:
			r.done = true
			if dn, err := wire.DecodeDone(fr.Payload); err != nil {
				r.err = err
				r.release(false)
				return false
			} else {
				r.doneFlags = dn.Flags
				r.queryID = dn.QueryID
			}
		case wire.KindError:
			r.done = true
			ef, derr := wire.DecodeError(fr.Payload)
			switch {
			case derr != nil:
				r.err = derr
			case ef.Code == wire.CodeCancelled && r.ctx.Err() != nil:
				// The server confirms the cancellation we asked for;
				// surface the context's own error, like dsdb.Rows.
				r.err = r.ctx.Err()
			default:
				r.err = ef
			}
		default:
			r.err = wire.ErrorFrame{Code: wire.CodeProto, Message: "unexpected " + fr.Kind.String() + " frame in stream"}
			r.release(false)
			return false
		}
	}
}

// Values returns a copy of the current row.
func (r *Rows) Values() []dsdb.Value {
	return append([]dsdb.Value(nil), r.cur...)
}

// Scan copies the current row into dest with dsdb.Rows.Scan
// semantics.
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return wire.ErrorFrame{Code: wire.CodeProto, Message: "Scan called without a successful Next"}
	}
	return dsdb.ScanRow(r.cur, r.cols, dest...)
}

// Err returns the error, if any, that ended iteration. Context
// cancellation surfaces here as the context's error.
func (r *Rows) Err() error { return r.err }

// CacheHit reports whether the server answered this query from its
// result cache (the DoneFlagCacheHit attribution on the terminal
// frame). It is meaningful only after the stream completed — i.e.
// once Next has returned false with a nil Err.
func (r *Rows) CacheHit() bool { return r.doneFlags&wire.DoneFlagCacheHit != 0 }

// QueryID returns the server-assigned id for this execution — the
// correlation handle for the server's SHOW queries / SHOW slow
// virtual tables and slow-query log. Like CacheHit it is meaningful
// only after the stream completed (Next returned false, nil Err).
func (r *Rows) QueryID() uint64 { return r.queryID }

// Close releases the result set, cancelling the server-side query if
// the stream was not fully consumed. Idempotent and safe to defer.
func (r *Rows) Close() error {
	if r.released {
		return nil
	}
	if r.done {
		r.release(true)
		return nil
	}
	r.abort()
	return nil
}

// abort interrupts an unfinished stream: ensure one Cancel frame went
// out, then drain to the terminal frame so the connection is
// frame-aligned for its next query.
func (r *Rows) abort() {
	r.cancelMu.Lock()
	if !r.cancelSent {
		r.cancelSent = true
		if err := r.c.send(wire.KindCancel, nil); err != nil {
			r.cancelMu.Unlock()
			r.release(false)
			return
		}
	}
	r.cancelMu.Unlock()
	for {
		fr, err := r.c.read()
		if err != nil {
			r.release(false)
			return
		}
		switch fr.Kind {
		case wire.KindDone, wire.KindError:
			r.done = true
			r.release(true)
			return
		case wire.KindRowBatch, wire.KindRowHeader:
			// discard
		default:
			r.release(false)
			return
		}
	}
}

// release ends the stream exactly once: unregisters the context
// callback and the grace timer, drops the row state, and hands the
// connection back (to the pool, the owning statement, or the void when
// unhealthy).
func (r *Rows) release(healthy bool) {
	if r.released {
		return
	}
	r.released = true
	if r.stopWatch != nil {
		r.stopWatch()
	}
	r.cancelMu.Lock()
	r.finished = true
	if r.grace != nil {
		r.grace.Stop()
	}
	r.cancelMu.Unlock()
	r.cur = nil
	r.batch = nil
	r.idx = 0
	if r.db != nil {
		if healthy {
			r.db.put(r.c)
		} else {
			r.c.close()
		}
	} else if !healthy {
		r.c.close()
	}
	if r.onRelease != nil {
		r.onRelease()
	}
}
