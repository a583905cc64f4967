// Package client is the network twin of package dsdb: Dial a
// dsdb/server address and you get a DB with the same Query, QueryRow,
// Exec and Prepare surface as dsdb.DB — streaming Rows with context
// cancellation, single-row QueryRow, materialized Exec — so call
// sites written against the in-process API work over the wire
// unchanged. Values round-trip the wire protocol bit-exactly: a
// remote result set is byte-identical to the local one.
//
//	db, err := client.Dial("127.0.0.1:5454")
//	rows, err := db.Query(ctx, "select sum(l_extendedprice) from lineitem")
//	for rows.Next() { ... rows.Scan(&v) ... }
//
// A DB multiplexes any number of concurrent queries over a small pool
// of connections (one in-flight query per connection, the protocol
// being synchronous); Rows and Stmt values are single-threaded, like
// their dsdb counterparts.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/dsdb"
	"repro/dsdb/wire"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("client: connection closed")

// dialTimeout bounds each TCP connect and its handshake. maxIdleConns
// bounds the pooled idle connections: more concurrent queries than
// this still work, each extra query dialing its own connection and
// closing it when done.
const (
	dialTimeout  = 5 * time.Second
	maxIdleConns = 4
)

// DB is a remote database handle, safe for concurrent use.
type DB struct {
	addr string

	mu     sync.Mutex
	idle   []*conn
	closed bool
}

// Dial connects to a dsdb server and performs the protocol handshake
// on the first connection (so a bad address or incompatible server
// fails here, not at the first query).
func Dial(addr string) (*DB, error) {
	db := &DB{addr: addr}
	c, err := db.dial()
	if err != nil {
		return nil, err
	}
	db.put(c)
	return db, nil
}

// dial opens and handshakes one connection. The dial timeout bounds
// the whole exchange — a server that accepts but never answers Hello
// cannot hang the caller.
func (db *DB) dial() (*conn, error) {
	nc, err := net.DialTimeout("tcp", db.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(dialTimeout))
	defer nc.SetDeadline(time.Time{})
	c := &conn{nc: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
	if err := c.send(wire.KindHello, wire.EncodeHello(wire.Hello{Version: wire.ProtocolVersion})); err != nil {
		nc.Close()
		return nil, err
	}
	fr, err := c.read()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	switch fr.Kind {
	case wire.KindHelloOK:
		ok, err := wire.DecodeHelloOK(fr.Payload)
		if err != nil {
			nc.Close()
			return nil, err
		}
		c.sessionID = ok.SessionID
		return c, nil
	case wire.KindError:
		ef, derr := wire.DecodeError(fr.Payload)
		nc.Close()
		if derr != nil {
			return nil, derr
		}
		return nil, ef
	default:
		nc.Close()
		return nil, fmt.Errorf("client: handshake: unexpected %s frame", fr.Kind)
	}
}

// get returns a pooled connection (pooled=true) or dials a fresh one.
// Pooled connections may have gone stale — a restarted or drained
// server closed them while they sat idle — which callers handle by
// retrying once on a fresh dial.
func (db *DB) get() (c *conn, pooled bool, err error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, false, ErrClosed
	}
	if n := len(db.idle); n > 0 {
		c := db.idle[n-1]
		db.idle = db.idle[:n-1]
		db.mu.Unlock()
		return c, true, nil
	}
	db.mu.Unlock()
	c, err = db.dial()
	return c, false, err
}

// put returns a healthy connection to the pool (or closes it when the
// pool is full or the DB closed).
func (db *DB) put(c *conn) {
	db.mu.Lock()
	if !db.closed && len(db.idle) < maxIdleConns {
		db.idle = append(db.idle, c)
		db.mu.Unlock()
		return
	}
	db.mu.Unlock()
	c.close()
}

// Close releases every pooled connection. In-flight queries on
// checked-out connections finish; their connections are closed on
// release.
func (db *DB) Close() error {
	db.mu.Lock()
	idle := db.idle
	db.idle = nil
	db.closed = true
	db.mu.Unlock()
	for _, c := range idle {
		c.close()
	}
	return nil
}

// SessionID returns the server-assigned id of one pooled session
// (diagnostics; 0 when no connection is pooled).
func (db *DB) SessionID() uint32 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.idle) == 0 {
		return 0
	}
	return db.idle[len(db.idle)-1].sessionID
}

// statsTimeout bounds the whole ServerStats exchange.
const statsTimeout = 10 * time.Second

// ServerStats asks the server for its counter snapshot via the wire
// Stats frame and returns the raw name/value pairs. The exchange runs
// under a fixed socket deadline, like the handshake, so a wedged
// server cannot hang the caller.
func (db *DB) ServerStats() (wire.Stats, error) {
	c, pooled, err := db.get()
	if err != nil {
		return wire.Stats{}, err
	}
	st, err := db.statsOn(c)
	if err != nil && pooled && !isServerError(err) {
		// Stale pooled connection: one retry on a fresh dial.
		c, derr := db.dial()
		if derr != nil {
			return wire.Stats{}, err
		}
		return db.statsOn(c)
	}
	return st, err
}

// statsOn runs the Stats exchange on one connection.
func (db *DB) statsOn(c *conn) (wire.Stats, error) {
	c.nc.SetDeadline(time.Now().Add(statsTimeout))
	defer c.nc.SetDeadline(time.Time{})
	if err := c.send(wire.KindStats, nil); err != nil {
		c.close()
		return wire.Stats{}, err
	}
	fr, err := c.read()
	if err != nil {
		c.close()
		return wire.Stats{}, err
	}
	switch fr.Kind {
	case wire.KindStatsResult:
		st, err := wire.DecodeStats(fr.Payload)
		if err != nil {
			c.close()
			return wire.Stats{}, err
		}
		db.put(c)
		return st, nil
	case wire.KindError:
		ef, derr := wire.DecodeError(fr.Payload)
		c.close()
		if derr != nil {
			return wire.Stats{}, derr
		}
		return wire.Stats{}, ef
	default:
		c.close()
		return wire.Stats{}, fmt.Errorf("client: ServerStats: unexpected %s frame", fr.Kind)
	}
}

// Query executes SQL on the server and streams the result.
func (db *DB) Query(ctx context.Context, query string) (*Rows, error) {
	return db.QueryLabeled(ctx, "", query)
}

// QueryLabeled is Query with an execution label the server hands to
// its per-session instrumentation hooks (dsload tags each query with
// its TPC-D name; an stcpipe.Served profile uses labels as trace marks).
func (db *DB) QueryLabeled(ctx context.Context, label, query string) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c, pooled, err := db.get()
	if err != nil {
		return nil, err
	}
	rows, err := db.queryOn(c, ctx, label, query)
	if err != nil && pooled && !isServerError(err) && ctx.Err() == nil {
		// The pooled connection was stale (server restarted or drained
		// while it sat idle). One retry on a freshly dialed connection,
		// like database/sql's bad-conn handling.
		c, derr := db.dial()
		if derr != nil {
			return nil, err
		}
		return db.queryOn(c, ctx, label, query)
	}
	return rows, err
}

// queryOn submits one query on the given connection. Transport
// failures close the connection; query-level failures return it to
// the pool (inside newRows).
func (db *DB) queryOn(c *conn, ctx context.Context, label, query string) (*Rows, error) {
	if err := c.send(wire.KindQuery, wire.EncodeQuery(wire.Query{Label: label, SQL: query})); err != nil {
		c.close()
		return nil, err
	}
	return newRows(db, c, ctx)
}

// isServerError reports whether err is a server-reported failure (an
// error frame) — i.e. the connection itself worked, so retrying on a
// fresh one cannot help.
func isServerError(err error) bool {
	var ef wire.ErrorFrame
	return errors.As(err, &ef)
}

// QueryRow executes a query expected to return at most one row; the
// error (including dsdb.ErrNoRows) is deferred until Scan.
func (db *DB) QueryRow(ctx context.Context, query string) *dsdb.Row {
	rows, err := db.Query(ctx, query)
	if err != nil {
		return dsdb.NewErrRow(err)
	}
	defer rows.Close()
	if !rows.Next() {
		if err := rows.Err(); err != nil {
			return dsdb.NewErrRow(err)
		}
		return dsdb.NewErrRow(dsdb.ErrNoRows)
	}
	return dsdb.NewRow(rows.Values(), rows.Columns())
}

// Exec executes and materializes a query in one call.
func (db *DB) Exec(ctx context.Context, query string) (*dsdb.Result, error) {
	rows, err := db.Query(ctx, query)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	res := &dsdb.Result{Columns: rows.Columns()}
	for rows.Next() {
		res.Rows = append(res.Rows, rows.Values())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Stmt is a server-side prepared statement. Like dsdb.Stmt it holds
// one execution at a time and must not be shared across goroutines;
// it owns one connection until closed.
type Stmt struct {
	db     *DB
	c      *conn
	id     uint32
	cols   []string
	busy   bool
	closed bool
}

// Prepare compiles a statement on the server. The statement pins a
// connection until Close.
func (db *DB) Prepare(query string) (*Stmt, error) {
	c, pooled, err := db.get()
	if err != nil {
		return nil, err
	}
	st, err := db.prepareOn(c, query)
	if err != nil && pooled && !isServerError(err) {
		// Stale pooled connection: one retry on a fresh dial.
		c, derr := db.dial()
		if derr != nil {
			return nil, err
		}
		return db.prepareOn(c, query)
	}
	return st, err
}

// prepareOn compiles a statement over the given connection.
func (db *DB) prepareOn(c *conn, query string) (*Stmt, error) {
	if err := c.send(wire.KindPrepare, wire.EncodePrepare(wire.Prepare{SQL: query})); err != nil {
		c.close()
		return nil, err
	}
	fr, err := c.read()
	if err != nil {
		c.close()
		return nil, err
	}
	switch fr.Kind {
	case wire.KindPrepareOK:
		ok, err := wire.DecodePrepareOK(fr.Payload)
		if err != nil {
			c.close()
			return nil, err
		}
		return &Stmt{db: db, c: c, id: ok.StmtID, cols: ok.Columns}, nil
	case wire.KindError:
		ef, derr := wire.DecodeError(fr.Payload)
		db.put(c) // query-level failure: the connection is fine
		if derr != nil {
			return nil, derr
		}
		return nil, ef
	default:
		c.close()
		return nil, fmt.Errorf("client: Prepare: unexpected %s frame", fr.Kind)
	}
}

// Columns returns the statement's output column names.
func (s *Stmt) Columns() []string { return append([]string(nil), s.cols...) }

// Query executes the prepared statement.
func (s *Stmt) Query(ctx context.Context) (*Rows, error) {
	return s.QueryLabeled(ctx, "")
}

// QueryLabeled is Query with an instrumentation label (see
// DB.QueryLabeled).
func (s *Stmt) QueryLabeled(ctx context.Context, label string) (*Rows, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if s.busy {
		return nil, dsdb.ErrStmtBusy
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.c.send(wire.KindQueryStmt, wire.EncodeQueryStmt(wire.QueryStmt{StmtID: s.id, Label: label})); err != nil {
		// A partial frame may be on the wire: the connection is no
		// longer frame-aligned and must not be written to again.
		s.c.close()
		s.closed = true
		return nil, err
	}
	rows, err := newRows(nil, s.c, ctx) // conn stays with the statement
	if err != nil {
		return nil, err
	}
	s.busy = true
	rows.onRelease = func() { s.busy = false }
	return rows, nil
}

// Close releases the statement and returns its connection to the
// pool.
func (s *Stmt) Close() error {
	if s.closed {
		return nil
	}
	if s.busy {
		return dsdb.ErrStmtBusy
	}
	s.closed = true
	if err := s.c.send(wire.KindCloseStmt, wire.EncodeCloseStmt(wire.CloseStmt{StmtID: s.id})); err != nil {
		s.c.close()
		return err
	}
	s.db.put(s.c)
	return nil
}
