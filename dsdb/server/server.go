// Package server serves a dsdb database over the wire protocol
// (dsdb/wire): a TCP listener maps every accepted connection onto one
// per-session dsdb context — its own statements, its own per-query
// deadline, and optionally its own instrumentation tracer — so the
// concurrency model is exactly PR 2's "one DB, N sessions", stretched
// across the network.
//
//	db, _ := dsdb.Open(dsdb.WithTPCD(0.001))
//	srv := server.New(db)
//	go srv.ListenAndServe("127.0.0.1:5454")
//	...
//	srv.Shutdown(ctx) // drain at query boundaries, then close
//
// Each connection is handled by two goroutines: a reader that decodes
// frames into a channel and a handler that executes them, which is
// what lets a Cancel frame overtake an in-flight result stream. One
// query runs at a time per connection (the wire protocol is
// synchronous); concurrency comes from many connections, bounded by
// WithMaxConns.
//
// A result is written in as few socket writes as its size allows: the
// RowHeader and a partial RowBatch wait in the connection's output
// buffer, a full RowBatch (wire.BatchRows rows) goes out as soon as it
// exists, and the terminal frame flushes — one write for a result that
// fits a batch, n/64 + 1 for n rows.
//
// The serving path is liveness-safe against hostile or broken
// clients. Every socket write carries a deadline (WithWriteTimeout,
// on by default): a client that stops reading its result stream is
// disconnected when the kernel buffers fill and the write times out,
// which cancels the in-flight query and releases the engine's shared
// read latch — a stalled reader can no longer wedge writers. A
// distinguishable wire error code (CodeSlowClient) names the kill.
// WithIdleTimeout bounds sessions parked between queries, and
// over-limit connections are refused off the accept goroutine so a
// slow refusal cannot stall admission.
//
// Everything the server does is counted: Server.Stats returns a
// snapshot (connections accepted/refused/slow-killed/idle-killed,
// queries, rows, bytes, a log-spaced latency histogram plus per-stage
// histograms from the DB's observability tracer). Its counters and
// those of the buffer pool, plan pool, result cache, WAL and capture
// are declared once each, as obs.Sections (Server.Sections), and every
// rendering is a loop over that list: the wire Stats frame
// (client.DB.ServerStats), the SHOW virtual tables — "show stats",
// "show pool", "show plans", "show cache", "show wal", "show capture",
// beside "show conns", "show tables", "show queries", "show slow" —
// streamed over the normal query protocol, and NewMetricsMux's
// Prometheus text endpoint, served alongside net/http/pprof.
// WithSlowQueryThreshold routes slow
// executions into the tracer's slow ring and structured slow-query log.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/dsdb"
	"repro/dsdb/wcap"
	"repro/dsdb/wire"
)

// SessionHooks instruments one server-side session (one connection).
// The zero value is a plain uninstrumented session.
type SessionHooks struct {
	// Tracer, when non-nil, records this session's kernel
	// instrumentation events: every query on the connection runs via
	// QueryObserved/PrepareTraced. The tracer is only ever used from the
	// connection's handler goroutine, so a single-threaded tracer
	// (kernel session recorders included) is safe.
	Tracer dsdb.Tracer
	// OnQuery, when non-nil, is called just before each query starts
	// executing, with the client-supplied label (stcpipe uses it to
	// mark query boundaries in the session trace).
	OnQuery func(label string)
	// OnClose, when non-nil, runs when the session ends.
	OnClose func()
}

// config collects the server options.
type config struct {
	maxConns     int
	queryTimeout time.Duration
	writeTimeout time.Duration
	idleTimeout  time.Duration
	slowQuery    time.Duration
	newSession   func(id int) SessionHooks
	capture      *wcap.Writer
}

// Option configures New.
type Option func(*config)

// WithMaxConns bounds concurrently served connections (default 64).
// Excess connections are refused with a conn_limit error frame.
func WithMaxConns(n int) Option {
	return func(c *config) { c.maxConns = n }
}

// WithQueryTimeout sets the per-query context deadline (default none).
// A query that exceeds it is cancelled server-side and its stream ends
// with a cancelled error frame.
func WithQueryTimeout(d time.Duration) Option {
	return func(c *config) { c.queryTimeout = d }
}

// WithWriteTimeout bounds every socket write on every connection
// (default DefaultWriteTimeout; 0 disables). A write that exceeds it —
// a client that stopped reading while the kernel buffers filled —
// cancels the in-flight query, releases its engine latch, and closes
// the connection with a slow_client error. This is the serving path's
// liveness guarantee: one stalled reader can no longer wedge every
// writer behind the engine's shared read latch.
func WithWriteTimeout(d time.Duration) Option {
	return func(c *config) { c.writeTimeout = d }
}

// WithIdleTimeout closes sessions that sit idle between queries for
// longer than d (default none). A session whose result stream is
// still being served is busy, not idle, and is never killed by this.
func WithIdleTimeout(d time.Duration) Option {
	return func(c *config) { c.idleTimeout = d }
}

// WithSlowQueryThreshold marks queries slower than d as slow on the
// DB's observability tracer: they enter the slow-query ring (SHOW
// SLOW) and, when a slow logger is installed (obs.Tracer.SetSlowLogger
// — dsdbd's -slow-query-log flag does this), each one is logged as a
// structured line with its per-stage breakdown. 0 (the default)
// disables the threshold.
func WithSlowQueryThreshold(d time.Duration) Option {
	return func(c *config) { c.slowQuery = d }
}

// WithCapture records every served query to w, the workload-capture
// log (dsdb/wcap): SQL, session, outcome, latency and per-stage
// breakdown, replayable later by dsreplay or an stcpipe.Replayed profile.
// The per-query cost is one nil check when absent and one non-blocking
// channel send when present — capture never takes a lock or does IO on
// the serving path, and a slow capture disk sheds records (counted in
// Stats as Capture.Dropped) instead of blocking queries. The caller
// owns w's lifecycle: close it after the server has shut down.
func WithCapture(w *wcap.Writer) Option {
	return func(c *config) { c.capture = w }
}

// WithSessionHooks installs a per-session instrumentation factory,
// called once per accepted connection with a session id that counts up
// from 1 in accept order.
func WithSessionHooks(f func(id int) SessionHooks) Option {
	return func(c *config) { c.newSession = f }
}

// Server serves one dsdb.DB over TCP.
type Server struct {
	db      *dsdb.DB
	cfg     config
	started time.Time

	// drainCh is closed by Shutdown; connection handlers select on it
	// at every frame boundary, so draining never interrupts an
	// in-flight query but stops everything between queries.
	drainCh chan struct{}

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	nextID   int
	draining bool
	wg       sync.WaitGroup

	// counters is the server-wide stats block (stats.go). All fields
	// are atomic; no lock is involved on the serving hot paths.
	counters serverStats
}

// New wraps db in a server. The db stays usable directly (in-process
// queries and served queries share the engine, per PR 2's model).
func New(db *dsdb.DB, opts ...Option) *Server {
	cfg := config{maxConns: 64, writeTimeout: DefaultWriteTimeout}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.slowQuery > 0 {
		db.Obs().SetSlowThreshold(cfg.slowQuery)
	}
	return &Server{db: db, cfg: cfg, started: time.Now(), conns: make(map[*conn]struct{}), drainCh: make(chan struct{})}
}

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// ErrAlreadyServing is returned by a second concurrent Serve call:
// the server owns one listener at a time, and letting another Serve
// displace it would silently detach Addr() and Shutdown from the
// first listener.
var ErrAlreadyServing = errors.New("server: already serving")

// DefaultWriteTimeout is the write bound applied when New is not
// given WithWriteTimeout. It is deliberately non-zero: an unbounded
// socket write is the liveness bug this server exists to not have.
const DefaultWriteTimeout = 30 * time.Second

// handshakeTimeout bounds how long an accepted connection may sit
// without completing the Hello exchange.
const handshakeTimeout = 10 * time.Second

// refuseTimeout bounds the refusal error frame's write.
const refuseTimeout = 2 * time.Second

// ListenAndServe listens on addr and serves until Shutdown/Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown or Close. It always
// returns a non-nil error; after a clean shutdown, ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return ErrAlreadyServing
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		s.startConn(nc)
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Ready reports whether the server is accepting queries: it has a
// live listener and is not draining. This is the /readyz predicate —
// false before Serve, and false from the moment Shutdown begins even
// though in-flight queries are still completing.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ln != nil && !s.draining
}

// startConn admits or refuses a fresh connection.
func (s *Server) startConn(nc net.Conn) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.refuse(nc, wire.CodeShutdown, "server is shutting down")
		return
	}
	if len(s.conns) >= s.cfg.maxConns {
		s.mu.Unlock()
		s.refuse(nc, wire.CodeConnLimit, fmt.Sprintf("connection limit %d reached", s.cfg.maxConns))
		return
	}
	s.nextID++
	c := &conn{
		srv:    s,
		id:     s.nextID,
		nc:     nc,
		frames: make(chan wire.Frame, 4),
		done:   make(chan struct{}),
	}
	if s.cfg.newSession != nil {
		c.hooks = s.cfg.newSession(c.id)
	}
	s.conns[c] = struct{}{}
	s.counters.totalConns.Add(1)
	s.wg.Add(1)
	s.mu.Unlock()
	go c.readLoop()
	go func() {
		defer s.wg.Done()
		c.serve()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
}

// refuse turns a connection away with one error frame. The write
// happens on its own goroutine under a short deadline, so a refused
// client that never reads can neither stall the accept loop nor hold
// it hostage. The goroutine is deliberately not tracked by s.wg:
// Shutdown may already be inside wg.Wait when the draining-path
// refusal fires (Add after Wait is a WaitGroup misuse), and the
// deadline guarantees self-termination within refuseTimeout anyway.
func (s *Server) refuse(nc net.Conn, code, msg string) {
	s.counters.refusedConns.Add(1)
	go func() {
		if nc.SetWriteDeadline(time.Now().Add(refuseTimeout)) == nil {
			w := bufio.NewWriter(nc)
			if wire.WriteFrame(w, wire.KindError, wire.EncodeError(wire.ErrorFrame{Code: code, Message: msg})) == nil {
				w.Flush()
			}
		}
		nc.Close()
	}()
}

// Shutdown stops accepting connections and drains the served ones:
// each connection finishes its in-flight query (result stream
// completes), then closes at the next frame boundary — idle handlers
// see the drain signal immediately, busy ones right after their
// current query. When ctx expires first, remaining queries are
// cancelled and their connections force-closed. Returns nil on a
// clean drain, ctx.Err() after a forced one.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if !already {
		close(s.drainCh)
	}
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.cancelQuery()
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close force-closes the listener and every connection without
// draining.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background()) //lint:allow ctxflow deliberately pre-cancelled context selects Shutdown's force path
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
