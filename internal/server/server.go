// Package server implements the networked query server: a TCP front
// end that parses each statement with sqlmini, executes it against a
// shared spatialtf database, and streams SELECT row sources to remote
// clients through the same start–fetch–close cursor pipeline local
// consumers use. Results flow in bounded fetch batches pulled by the
// client, so the server never materialises a full result set; a join
// bigger than memory streams just as it does in-process (PAPER §4).
//
// The server enforces a connection limit, per-connection cursor limit,
// and per-query row and time limits, and drains in-flight cursors on
// graceful shutdown.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spatialtf"
	"spatialtf/internal/sqlmini"
	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
	"spatialtf/internal/wire"
)

// Config tunes a Server. Zero values select the defaults.
type Config struct {
	// MaxConns bounds concurrent client connections (default 64).
	MaxConns int
	// MaxCursorsPerConn bounds open cursors per connection (default 8).
	MaxCursorsPerConn int
	// DefaultBatch is the fetch batch size when a client asks for 0
	// rows (default 256).
	DefaultBatch int
	// MaxBatch caps the batch size a client may request (default 4096).
	MaxBatch int
	// MaxRowsPerQuery aborts a cursor after streaming this many rows
	// (0 = unlimited).
	MaxRowsPerQuery int64
	// QueryTimeout aborts a cursor this long after its query started
	// (0 = no limit). An aborted cursor reports an error on the next
	// fetch.
	QueryTimeout time.Duration
	// Telemetry is the metrics registry the server registers its
	// counters and histograms on — share one registry between the
	// server and DB.EnableTelemetry so a single /metrics scrape covers
	// both. Nil gets the server a private registry (the server is a
	// network daemon, so its stats are always live; only embedded DB
	// use defaults to telemetry.Nop).
	Telemetry *telemetry.Registry
	// SlowQuery emits a span trace on the server log for any query
	// whose cursor lives at least this long (0 disables the slow log).
	SlowQuery time.Duration
	// SlowLogf overrides the slow-log sink (default log.Printf).
	SlowLogf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.MaxCursorsPerConn <= 0 {
		c.MaxCursorsPerConn = 8
	}
	if c.DefaultBatch <= 0 {
		c.DefaultBatch = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	return c
}

// Backend supplies the server's statement execution: one Session per
// connection. The stock backend wraps a *spatialtf.DB (see New); the
// cluster router wraps a coordinator instead, so the same front end —
// limits, cursor accounting, drain — serves both a single node and a
// whole shard cluster.
type Backend interface {
	// NewSession returns the execution session of one connection.
	NewSession() Session
}

// Session executes statements for one connection. Sessions are used by
// a single goroutine (the protocol is strict request/response).
type Session interface {
	// ExecuteStream parses and runs one statement, streaming SELECT row
	// sources (see sqlmini.ExecuteStream).
	ExecuteStream(sql string) (*sqlmini.Stream, error)
	// Close releases session resources when the connection ends.
	Close() error
}

// ScopedSession is implemented by sessions that can evaluate a query
// under a cluster scope (the shard side of scatter-gather routing). A
// FrameScopedQuery against a session without this interface reports an
// error.
type ScopedSession interface {
	ExecuteStreamScoped(sql string, sc wire.Scope) (*sqlmini.Stream, error)
}

// GeomCacheStatser is implemented by backends that expose a decoded-
// geometry cache; its numbers fill the cache fields of the Stats frame.
type GeomCacheStatser interface {
	GeomCacheStats() spatialtf.CacheStats
}

// MetricsSnapshotter is implemented by backends with metrics beyond the
// server registry (the cluster router aggregates per-shard series);
// its points are appended to the Metrics frame reply.
type MetricsSnapshotter interface {
	MetricsSnapshot() []telemetry.Point
}

// Server serves the wire protocol over a Backend.
type Server struct {
	backend Backend
	cfg     Config
	reg     *telemetry.Registry
	stats   *Stats
	tracer  *telemetry.Tracer

	mu         sync.Mutex
	ln         net.Listener
	conns      map[*conn]struct{}
	rejects    map[net.Conn]struct{}
	inShutdown atomic.Bool

	// wg counts every goroutine Serve spawns — connection handlers and
	// reject handshakes — so Shutdown can join them all instead of
	// returning while handlers still run their cleanup.
	wg sync.WaitGroup
}

// dbBackend is the stock backend: sqlmini engines over one shared
// database.
type dbBackend struct{ db *spatialtf.DB }

func (b dbBackend) NewSession() Session { return dbSession{eng: sqlmini.NewEngineOn(b.db)} }

func (b dbBackend) GeomCacheStats() spatialtf.CacheStats { return b.db.GeomCacheStats() }

// dbSession adapts a sqlmini engine to the Session interface, including
// the shard-side scoped execution path.
type dbSession struct{ eng *sqlmini.Engine }

func (s dbSession) ExecuteStream(sql string) (*sqlmini.Stream, error) {
	return s.eng.ExecuteStream(sql)
}

func (s dbSession) ExecuteStreamScoped(sql string, sc wire.Scope) (*sqlmini.Stream, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	scope := spatialtf.NewClusterScope(
		spatialtf.MBR{MinX: sc.MinX, MinY: sc.MinY, MaxX: sc.MaxX, MaxY: sc.MaxY},
		sc.Cols, sc.Rows, sc.NShards, sc.Shard)
	return s.eng.ExecuteStreamScoped(sql, scope)
}

func (s dbSession) Close() error { return nil }

// New returns a server over db.
func New(db *spatialtf.DB, cfg Config) *Server {
	return NewWith(dbBackend{db: db}, cfg)
}

// NewWith returns a server over an arbitrary backend.
func NewWith(backend Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	// The tracer threshold: 0 in the config means "no slow log", which
	// the tracer spells as a negative threshold (0 there logs every
	// query — useful for \trace on, wrong as a server default).
	thr := cfg.SlowQuery
	if thr <= 0 {
		thr = -1
	}
	return &Server{
		backend: backend,
		cfg:     cfg,
		reg:     reg,
		stats:   newStats(reg),
		tracer:  telemetry.NewTracer(reg, thr, cfg.SlowLogf),
		conns:   make(map[*conn]struct{}),
		rejects: make(map[net.Conn]struct{}),
	}
}

// Stats returns the server's live counters.
func (s *Server) Stats() *Stats { return s.stats }

// Telemetry returns the registry the server's metrics live on (never
// nil) — mount its Handler on /metrics to expose them.
func (s *Server) Telemetry() *telemetry.Registry { return s.reg }

// Tracer returns the server's query tracer (never nil).
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// Addr returns the listening address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown (or a fatal listener
// error). Each connection runs on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	// A Shutdown that ran before ln was registered found no listener to
	// close; it set inShutdown first, so it is visible here.
	if s.inShutdown.Load() {
		ln.Close()
		return ErrServerClosed
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.inShutdown.Load() {
				return ErrServerClosed
			}
			return err
		}
		if s.inShutdown.Load() {
			nc.Close()
			continue
		}
		s.stats.ConnsAccepted.Add(1)
		if int(s.stats.ConnsActive.Value()) >= s.cfg.MaxConns {
			s.stats.ConnsRejected.Add(1)
			s.mu.Lock()
			s.rejects[nc] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				rejectConn(nc)
				s.mu.Lock()
				delete(s.rejects, nc)
				s.mu.Unlock()
			}()
			continue
		}
		c := &conn{srv: s, nc: nc}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.stats.ConnsActive.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
		}()
	}
}

// rejectConn completes the handshake so the client can read a proper
// error frame, then closes.
func rejectConn(nc net.Conn) {
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	bw := bufio.NewWriter(nc)
	if err := wire.WriteMagic(bw); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	if err := wire.ExpectMagic(nc); err != nil {
		return
	}
	if err := wire.WriteFrame(bw, wire.FrameError, wire.AppendError(nil, "connection limit reached")); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
}

// Shutdown gracefully stops the server: the listener closes, new
// queries are rejected, and connections drain — a connection with open
// cursors keeps serving fetches until its cursors are exhausted or
// closed; idle connections close immediately. When ctx expires,
// remaining connections are closed forcibly.
func (s *Server) Shutdown(ctx context.Context) error {
	s.inShutdown.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Kick in-flight reject handshakes: their next read/write fails
	// immediately instead of running out the courtesy deadline.
	for nc := range s.rejects {
		nc.SetDeadline(time.Now())
	}
	s.mu.Unlock()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		n := len(s.conns)
		for c := range s.conns {
			if c.cursorCount.Load() == 0 {
				// Kick idle readers; their next Read fails and the
				// handler exits cleanly.
				c.nc.SetReadDeadline(time.Now())
			}
		}
		s.mu.Unlock()
		if n == 0 {
			s.wg.Wait()
			return nil
		}
		select {
		case <-ctx.Done():
			s.mu.Lock()
			for c := range s.conns {
				c.nc.Close()
			}
			for nc := range s.rejects {
				nc.Close()
			}
			s.mu.Unlock()
			s.wg.Wait()
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// serverCursor is the per-cursor state: the engine's pull cursor plus
// the enforcement bookkeeping.
type serverCursor struct {
	id       uint64
	schema   []storage.Column
	cur      storage.Cursor
	streamed int64
	deadline time.Time // zero = no limit
	// pendingErr defers a cursor error that arrived mid-batch: the rows
	// already assembled are delivered first, and the error answers the
	// NEXT fetch, so an error late in a stream cannot swallow results
	// the engine already produced (a cluster partial-result error is the
	// canonical case).
	pendingErr error
	// trace spans the cursor's lifetime — query to final fetch — and
	// feeds the slow log when it outlives the threshold.
	trace *telemetry.Trace
	// batch is the fetch batch the cursor fills and the frame encoder
	// drains, reused from fetch to fetch and dropped with the cursor.
	batch storage.Batch
}

// conn handles one client connection. The protocol is strict
// request/response, so a single goroutine owns the connection and no
// locking is needed beyond the shared Server state.
type conn struct {
	srv         *Server
	nc          net.Conn
	sess        Session
	cursors     map[uint64]*serverCursor
	nextCursor  uint64
	cursorCount atomic.Int64
}

func (c *conn) serve() {
	defer func() {
		for _, sc := range c.cursors {
			sc.cur.Close()
			c.srv.stats.CursorsOpen.Add(-1)
		}
		c.cursorCount.Store(0)
		c.sess.Close()
		c.nc.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		c.srv.stats.ConnsActive.Add(-1)
	}()
	c.sess = c.srv.backend.NewSession()
	c.cursors = make(map[uint64]*serverCursor)
	bw := bufio.NewWriter(c.nc)
	br := bufio.NewReader(c.nc)
	if err := wire.WriteMagic(bw); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	if err := wire.ExpectMagic(br); err != nil {
		return
	}
	for {
		t, payload, err := wire.ReadFrame(br)
		if err != nil {
			// EOF, client close, or a shutdown kick.
			return
		}
		var reply func() error
		switch t {
		case wire.FrameQuery, wire.FrameScopedQuery, wire.FrameQueryFirst:
			reply = c.handleQuery(bw, t, payload)
		case wire.FrameFetch:
			reply = c.handleFetch(bw, payload)
		case wire.FrameCloseCursor:
			reply = c.handleClose(bw, payload)
		case wire.FrameStats:
			reply = func() error {
				snap := c.srv.stats.Snapshot()
				if gc, ok := c.srv.backend.(GeomCacheStatser); ok {
					cs := gc.GeomCacheStats()
					snap.GeomCacheHits, snap.GeomCacheMisses = cs.Hits, cs.Misses
					snap.GeomCacheBytes, snap.GeomCacheEntries = cs.Bytes, cs.Entries
				}
				return wire.WriteFrame(bw, wire.FrameStatsReply,
					wire.AppendStats(nil, snap))
			}
		case wire.FrameMetricsReq:
			reply = func() error {
				points := c.srv.reg.Snapshot()
				if ms, ok := c.srv.backend.(MetricsSnapshotter); ok {
					points = append(points, ms.MetricsSnapshot()...)
				}
				return wire.WriteFrame(bw, wire.FrameMetricsReply,
					wire.AppendMetrics(nil, points))
			}
		default:
			reply = c.sendError(bw, fmt.Sprintf("unknown frame type 0x%02x", byte(t)))
		}
		if err := reply(); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if c.srv.inShutdown.Load() && c.cursorCount.Load() == 0 {
			// Drained: this connection has nothing left to serve.
			return
		}
	}
}

// handleQuery executes one Query, ScopedQuery or QueryFirst frame and
// replies with an immediate result or a cursor's Describe. QueryFirst
// follows the Describe with the cursor's first batch at the default
// size, and a result that ends inside it never enters c.cursors: the
// client sends no Fetch or CloseCursor for it.
func (c *conn) handleQuery(bw *bufio.Writer, t wire.FrameType, payload []byte) func() error {
	var scope *wire.Scope
	var sql string
	var err error
	switch t {
	case wire.FrameQuery:
		sql, err = wire.ParseQuery(payload)
	case wire.FrameScopedQuery:
		var s wire.Scope
		s, sql, err = wire.ParseScopedQuery(payload)
		scope = &s
	default:
		scope, sql, err = wire.ParseQueryFirst(payload)
	}
	if err != nil {
		return c.sendError(bw, err.Error())
	}
	ss, canScope := c.sess.(ScopedSession)
	if scope != nil && !canScope {
		return c.sendError(bw, "this server does not support scoped queries")
	}
	if c.srv.inShutdown.Load() {
		return c.sendError(bw, "server is shutting down")
	}
	c.srv.stats.Queries.Add(1)
	var stream *sqlmini.Stream
	if scope == nil {
		stream, err = c.sess.ExecuteStream(sql)
	} else {
		stream, err = ss.ExecuteStreamScoped(sql, *scope)
	}
	if err != nil {
		return c.sendError(bw, err.Error())
	}
	if stream.Result != nil {
		r := stream.Result
		return func() error {
			return wire.WriteFrame(bw, wire.FrameResult, wire.AppendResult(nil, wire.Result{
				Message:  r.Message,
				HasCount: len(r.Columns) == 1 && r.Columns[0] == "COUNT(*)",
				Count:    int64(r.Count),
				Columns:  r.Columns,
				Rows:     r.Rows,
			}))
		}
	}
	c.nextCursor++
	sc := &serverCursor{id: c.nextCursor, schema: stream.Schema, cur: stream.Cursor,
		trace: c.srv.tracer.Begin(truncateSQL(sql))}
	if c.srv.cfg.QueryTimeout > 0 {
		sc.deadline = time.Now().Add(c.srv.cfg.QueryTimeout)
	}
	var img *[]byte
	done := false
	if t == wire.FrameQueryFirst {
		img, done, err = c.nextBatch(sc, c.srv.cfg.DefaultBatch)
	}
	if err == nil && !done {
		if err = c.register(sc); err != nil && img != nil {
			framePool.Put(img)
		}
	}
	if err != nil {
		sc.close()
		return c.sendError(bw, err.Error())
	}
	if done {
		sc.close()
	}
	return func() error {
		err := wire.WriteFrame(bw, wire.FrameDescribe, wire.AppendDescribe(nil, sc.id, sc.schema))
		if img != nil {
			if err == nil {
				err = wire.WriteFrame(bw, wire.FrameBatch, *img)
			}
			framePool.Put(img)
		}
		return err
	}
}

// register enters sc in the connection's cursor table, within the
// per-connection cursor limit.
func (c *conn) register(sc *serverCursor) error {
	if len(c.cursors) >= c.srv.cfg.MaxCursorsPerConn {
		return fmt.Errorf("cursor limit reached (%d per connection)", c.srv.cfg.MaxCursorsPerConn)
	}
	c.cursors[sc.id] = sc
	c.cursorCount.Add(1)
	c.srv.stats.CursorsOpened.Add(1)
	c.srv.stats.CursorsOpen.Add(1)
	return nil
}

// framePool recycles encoded batch payloads, so a steady fetch stream
// does not allocate the (large) frame image per batch.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

func (c *conn) handleFetch(bw *bufio.Writer, payload []byte) func() error {
	id, maxRows, err := wire.ParseFetch(payload)
	if err != nil {
		return c.sendError(bw, err.Error())
	}
	sc, ok := c.cursors[id]
	if !ok {
		return c.sendError(bw, fmt.Sprintf("no such cursor %d", id))
	}
	if !sc.deadline.IsZero() && time.Now().After(sc.deadline) {
		c.dropCursor(sc)
		return c.sendError(bw, fmt.Sprintf("query timeout after %s", c.srv.cfg.QueryTimeout))
	}
	batch := int(maxRows)
	if batch <= 0 {
		batch = c.srv.cfg.DefaultBatch
	}
	if batch > c.srv.cfg.MaxBatch {
		batch = c.srv.cfg.MaxBatch
	}
	if sc.pendingErr != nil {
		err := sc.pendingErr
		c.dropCursor(sc)
		return c.sendError(bw, err.Error())
	}
	img, done, err := c.nextBatch(sc, batch)
	if err != nil {
		c.dropCursor(sc)
		return c.sendError(bw, err.Error())
	}
	if done {
		c.dropCursor(sc)
	}
	return func() error {
		err := wire.WriteFrame(bw, wire.FrameBatch, *img)
		framePool.Put(img)
		return err
	}
}

// nextBatch produces the cursor's next batch of up to max rows and
// encodes it as a Batch frame into a pooled image; done reports the end
// of the stream. A cursor error after some rows is deferred to the next
// fetch (pendingErr). On error nothing is encoded, and the caller
// closes the cursor and reports the error.
func (c *conn) nextBatch(sc *serverCursor, max int) (img *[]byte, done bool, err error) {
	start := time.Now()
	// One NextBatch usually fills the frame. A short batch (the tail of
	// a parallel instance, what a scope filter left) is topped up, so
	// the client pays a round trip per `max` rows, not per upstream
	// batch.
	b := &sc.batch
	b.Reset()
	for len(b.Rows) < max {
		n := len(b.Rows)
		if err := sc.cur.NextBatch(b, max-n); err != nil {
			if len(b.Rows) == 0 {
				return nil, false, err
			}
			sc.pendingErr = err
			break
		}
		if len(b.Rows) == n {
			done = true
			break
		}
	}
	rows := b.Rows
	sc.streamed += int64(len(rows))
	if limit := c.srv.cfg.MaxRowsPerQuery; limit > 0 && sc.streamed > limit {
		return nil, false, fmt.Errorf("query row limit exceeded (%d rows)", limit)
	}
	elapsed := time.Since(start)
	c.srv.stats.Fetches.Add(1)
	c.srv.stats.FetchNanos.Add(elapsed.Nanoseconds())
	c.srv.stats.FetchSeconds.Observe(elapsed.Seconds())
	c.srv.stats.BatchRows.Observe(float64(len(rows)))
	c.srv.stats.RowsStreamed.Add(int64(len(rows)))
	sc.trace.Add(telemetry.StageFetch, elapsed, 1)
	// The one copy of the batch: its rows are encoded straight into the
	// pooled frame image, after which the cursor's batch is free for the
	// next fetch.
	img = framePool.Get().(*[]byte)
	*img, err = wire.AppendBatch((*img)[:0], sc.id, done, sc.schema, rows)
	if err != nil {
		framePool.Put(img)
		return nil, false, err
	}
	return img, done, nil
}

func (c *conn) handleClose(bw *bufio.Writer, payload []byte) func() error {
	id, err := wire.ParseCloseCursor(payload)
	if err != nil {
		return c.sendError(bw, err.Error())
	}
	if sc, ok := c.cursors[id]; ok {
		c.dropCursor(sc)
	}
	// Idempotent: closing an unknown (already-drained) cursor is fine.
	return func() error {
		return wire.WriteFrame(bw, wire.FrameResult,
			wire.AppendResult(nil, wire.Result{Message: "cursor closed"}))
	}
}

// close releases the engine cursor and ends its trace.
func (sc *serverCursor) close() {
	sc.cur.Close()
	sc.trace.Finish()
}

// dropCursor closes and forgets a registered cursor.
func (c *conn) dropCursor(sc *serverCursor) {
	sc.close()
	delete(c.cursors, sc.id)
	c.cursorCount.Add(-1)
	c.srv.stats.CursorsOpen.Add(-1)
}

// truncateSQL bounds the trace label so a pathological statement does
// not bloat the slow log.
func truncateSQL(sql string) string {
	const max = 120
	if len(sql) <= max {
		return sql
	}
	return sql[:max] + "..."
}

// sendError builds a reply that reports msg.
func (c *conn) sendError(bw *bufio.Writer, msg string) func() error {
	c.srv.stats.Errors.Add(1)
	return func() error {
		return wire.WriteFrame(bw, wire.FrameError, wire.AppendError(nil, msg))
	}
}
