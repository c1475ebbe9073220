package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
)

// Options tunes a client connection. Zero values mean "no limit",
// preserving the historical blocking behavior.
type Options struct {
	// DialTimeout bounds the TCP connect (and the handshake, which runs
	// under the same deadline).
	DialTimeout time.Duration
	// ReadTimeout bounds each reply read: a request whose response does
	// not arrive within it fails with a net timeout error instead of
	// hanging on a dead or wedged server.
	ReadTimeout time.Duration
	// WriteTimeout bounds each request write.
	WriteTimeout time.Duration
}

// Client is a connection to a spatialtf query server. One client holds
// one connection; requests are serialised (the protocol is strict
// request/response), but several cursors may be open at once and their
// fetches interleaved. A Client is safe for concurrent use by multiple
// goroutines.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	opt  Options
	// noFirst records that the server predates QueryFirst, so queries
	// travel as Query/ScopedQuery and their first batch as a Fetch.
	noFirst bool
}

// Dial connects to a server at addr ("host:port") and performs the
// protocol handshake with no I/O deadlines.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, Options{})
}

// DialWith connects to a server at addr under the given I/O timeouts.
func DialWith(addr string, opt Options) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, opt.DialTimeout)
	if err != nil {
		return nil, err
	}
	c, err := NewClientWith(conn, opt)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection, performing the handshake:
// each side sends the protocol magic and verifies the peer's.
func NewClient(conn net.Conn) (*Client, error) {
	return NewClientWith(conn, Options{})
}

// NewClientWith wraps an established connection under the given I/O
// timeouts. The handshake runs under DialTimeout (falling back to
// ReadTimeout) so a peer that accepts but never answers cannot hang the
// constructor.
func NewClientWith(conn net.Conn, opt Options) (*Client, error) {
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn), opt: opt}
	hs := opt.DialTimeout
	if hs <= 0 {
		hs = opt.ReadTimeout
	}
	if hs > 0 {
		if err := conn.SetDeadline(time.Now().Add(hs)); err != nil {
			return nil, err
		}
		defer conn.SetDeadline(time.Time{})
	}
	if err := WriteMagic(c.bw); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	if err := ExpectMagic(c.br); err != nil {
		return nil, err
	}
	return c, nil
}

// Close closes the connection. Open cursors become unusable.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// RemoteError is a failure reported by the server (as opposed to a
// transport failure).
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "server: " + e.Msg }

// unknownQueryFirst is how a server that predates QueryFirst answers
// it: the reply its dispatch loop gives every frame type it does not
// know, sent before it reads anything of the payload.
const unknownQueryFirst = "unknown frame type 0x07"

// roundTrip sends one frame and reads the reply, handling Error frames.
// The reply's payload is read into buf's storage (see readFrame; nil
// reads into a fresh buffer), so a caller that passes a buffer of its
// own owns the payload once roundTrip returns and the client's lock is
// released: several cursors on one client never share one. A Describe
// answering a QueryFirst is followed on the wire by the cursor's first
// Batch, which is read under the same lock, into a fresh buffer, and
// returned as batch. A QueryFirst that a server predating it rejects is
// sent once more in its inner form, and the connection sends that form
// from then on; no other error is retried, since the server may have
// run the statement.
//
// The client's mutex is deliberately held across the socket write and
// the reply read: the protocol is strict request/response on a single
// connection, so the lock IS the request pipeline — waiters queue for
// the wire, they cannot deadlock against it, and the server bounds how
// long a reply can take.
//
//spatiallint:ignore lockdiscipline the mutex serialises request/response frames on one connection; holding it across the round trip is the protocol
func (c *Client) roundTrip(t FrameType, payload, buf []byte) (rt FrameType, rp, batch []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t == FrameQueryFirst && c.noFirst {
		t, payload = FrameType(payload[0]), payload[1:]
	}
	rt, rp, err = c.exchange(t, payload, buf)
	if re, ok := err.(*RemoteError); ok && t == FrameQueryFirst && re.Msg == unknownQueryFirst {
		c.noFirst = true
		t, payload = FrameType(payload[0]), payload[1:]
		rt, rp, err = c.exchange(t, payload, buf)
	}
	if err != nil || t != FrameQueryFirst || rt != FrameDescribe {
		return rt, rp, nil, err
	}
	bt, bp, err := c.recv(nil)
	if err != nil {
		return 0, nil, nil, err
	}
	if bt != FrameBatch {
		return 0, nil, nil, fmt.Errorf("wire: unexpected frame 0x%02x after Describe", byte(bt))
	}
	return rt, rp, bp, nil
}

// exchange writes one frame and reads its reply into buf; the caller
// holds c.mu.
func (c *Client) exchange(t FrameType, payload, buf []byte) (FrameType, []byte, error) {
	if c.opt.WriteTimeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.opt.WriteTimeout)); err != nil {
			return 0, nil, err
		}
	}
	if err := WriteFrame(c.bw, t, payload); err != nil {
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	return c.recv(buf)
}

// recv reads one frame into buf under the read timeout, turning an
// Error frame into a *RemoteError (whose message is copied out of the
// payload); the caller holds c.mu.
func (c *Client) recv(buf []byte) (FrameType, []byte, error) {
	if c.opt.ReadTimeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.opt.ReadTimeout)); err != nil {
			return 0, nil, err
		}
	}
	rt, rp, err := readFrame(c.br, buf)
	if err != nil {
		return 0, nil, err
	}
	if rt == FrameError {
		msg, perr := ParseError(rp)
		if perr != nil {
			return 0, nil, perr
		}
		return 0, nil, &RemoteError{Msg: msg}
	}
	return rt, rp, nil
}

// QueryResult is the outcome of Client.Query: either an immediate
// result (DDL/DML/COUNT — Cursor is nil) or an open cursor streaming a
// SELECT row source.
type QueryResult struct {
	Message  string
	HasCount bool
	Count    int64
	Columns  []string
	Rows     [][]string
	// Cursor is non-nil for streaming results; the caller must drain or
	// Close it.
	Cursor *Cursor
}

// Query executes one SQL statement on the server. Streaming SELECTs
// return a QueryResult holding an open Cursor, which already holds the
// first batch; everything else returns an immediate QueryResult.
func (c *Client) Query(sql string) (*QueryResult, error) {
	return c.query(AppendQueryFirst(nil, nil, sql))
}

// QueryScoped executes one SQL statement restricted to a cluster scope:
// the server evaluates it as usual but keeps only rows/pairs whose
// reference point falls in a grid tile owned by sc.Shard. Servers that
// predate the frame answer with an "unknown frame type" RemoteError.
func (c *Client) QueryScoped(sql string, sc Scope) (*QueryResult, error) {
	return c.query(AppendQueryFirst(nil, &sc, sql))
}

func (c *Client) query(payload []byte) (*QueryResult, error) {
	t, p, batch, err := c.roundTrip(FrameQueryFirst, payload, nil)
	if err != nil {
		return nil, err
	}
	switch t {
	case FrameResult:
		r, err := ParseResult(p)
		if err != nil {
			return nil, err
		}
		return &QueryResult{
			Message:  r.Message,
			HasCount: r.HasCount,
			Count:    r.Count,
			Columns:  r.Columns,
			Rows:     r.Rows,
		}, nil
	case FrameDescribe:
		id, schema, err := ParseDescribe(p)
		if err != nil {
			return nil, err
		}
		cur := &Cursor{c: c, id: id, schema: schema}
		if batch != nil {
			if err := cur.take(&cur.b, batch); err != nil {
				return nil, err
			}
			cur.buf = batch // decoded: its storage is the cursor's to reuse
		}
		return &QueryResult{Cursor: cur}, nil
	default:
		return nil, fmt.Errorf("wire: unexpected reply frame 0x%02x to Query", byte(t))
	}
}

// Stats fetches the server's statistics snapshot.
func (c *Client) Stats() (Stats, error) {
	t, p, _, err := c.roundTrip(FrameStats, nil, nil)
	if err != nil {
		return Stats{}, err
	}
	if t != FrameStatsReply {
		return Stats{}, fmt.Errorf("wire: unexpected reply frame 0x%02x to Stats", byte(t))
	}
	return ParseStats(p)
}

// Metrics fetches the server's full metrics snapshot (every registered
// series, histograms included). A server that predates the Metrics
// frame answers with an "unknown frame type" RemoteError.
func (c *Client) Metrics() ([]telemetry.Point, error) {
	t, p, _, err := c.roundTrip(FrameMetricsReq, nil, nil)
	if err != nil {
		return nil, err
	}
	if t != FrameMetricsReply {
		return nil, fmt.Errorf("wire: unexpected reply frame 0x%02x to Metrics", byte(t))
	}
	return ParseMetrics(p)
}

// Cursor is a remote result-set cursor: the client half of the
// start–fetch–close pipeline. Rows arrive in bounded batches pulled by
// Fetch; the server produces each batch on demand and never buffers the
// full result.
//
// The cursor follows the batch contract of storage.Batch. Fetch decodes
// every batch into one Batch the cursor owns, so its rows are valid
// until the next Fetch or Close. FetchInto decodes into the caller's
// Batch, so the rows it hands out stay valid as long as that batch
// does. Use one of the two on a cursor, not both: rows buffered for
// one are invisible to the other.
//
// Each fetch request is built in, and its reply read into, buffers the
// cursor owns and reuses, so a steady stream allocates no frame
// buffers: a decoded row never points into them (decodeBatch copies
// what it keeps). A cursor is for one goroutine at a time; cursors of
// one Client may be fetched from different goroutines.
type Cursor struct {
	c      *Client
	id     uint64
	schema []storage.Column
	// done records that the server holds no cursor for this one: it
	// delivered the final batch, failed, or was closed.
	done bool
	// b holds the last batch decoded for Fetch, the first batch (which
	// arrives with the query reply) included, and pos is the first of
	// its rows not yet handed out.
	b   storage.Batch
	pos int
	// req and buf are the storage of the last Fetch request and of the
	// last reply read for this cursor, reused by the next.
	req, buf []byte
}

// ID returns the server-assigned cursor id.
func (cur *Cursor) ID() uint64 { return cur.id }

// Columns returns the result schema.
func (cur *Cursor) Columns() []storage.Column { return cur.schema }

// take decodes one Batch payload of this cursor into b.
func (cur *Cursor) take(b *storage.Batch, p []byte) error {
	had := len(b.Rows)
	id, done, err := decodeBatch(b, p, cur.schema)
	if err != nil {
		return err
	}
	if id != cur.id {
		b.Rows = b.Rows[:had]
		return fmt.Errorf("wire: batch for cursor %d on cursor %d", id, cur.id)
	}
	cur.done = done
	return nil
}

// fetch asks the server for the next batch of up to n rows (n <= 0:
// the server default) and decodes the reply into b.
func (cur *Cursor) fetch(b *storage.Batch, n int) error {
	cur.req = AppendFetch(cur.req[:0], cur.id, uint64(max(n, 0)))
	t, p, _, err := cur.c.roundTrip(FrameFetch, cur.req, cur.buf)
	if p != nil {
		cur.buf = p
	}
	if err != nil {
		if _, remote := err.(*RemoteError); remote {
			// The server discarded the cursor along with the error.
			cur.done = true
		}
		return err
	}
	if t != FrameBatch {
		return fmt.Errorf("wire: unexpected reply frame 0x%02x to Fetch", byte(t))
	}
	return cur.take(b, p)
}

// pending hands out up to max (0 = all) of the decoded rows not yet
// handed out.
func (cur *Cursor) pending(max int) []storage.Row {
	rows := cur.b.Rows[cur.pos:]
	if max > 0 && max < len(rows) {
		rows = rows[:max:max]
	}
	cur.pos += len(rows)
	return rows
}

// ended reports end of stream: the server sent its final batch and
// every row of it has been handed out.
func (cur *Cursor) ended() bool { return cur.done && cur.pos == len(cur.b.Rows) }

// Fetch returns the next batch of up to max rows (0 = server default):
// what is left of the batch that came with the query reply, then one
// batch per request to the server. The rows are valid until the next
// Fetch or Close. done reports end of stream, after which the
// server has already released the cursor and further calls return no
// rows.
func (cur *Cursor) Fetch(max int) (rows []storage.Row, done bool, err error) {
	if cur.pos == len(cur.b.Rows) && !cur.done {
		cur.b.Reset()
		cur.pos = 0
		if err := cur.fetch(&cur.b, max); err != nil {
			return nil, false, err
		}
	}
	rows = cur.pending(max)
	return rows, cur.ended(), nil
}

// FetchInto appends the next batch of up to max rows (0 = server
// default) to b and reports end of stream as Fetch does. A batch
// fetched from the server is decoded straight into b. The rows of the
// batch that came with the query reply were decoded before b was
// known; FetchInto hands them on and the cursor never reuses them. On
// error b.Rows is as it was.
func (cur *Cursor) FetchInto(b *storage.Batch, max int) (done bool, err error) {
	switch {
	case cur.pos < len(cur.b.Rows):
		b.Rows = append(b.Rows, cur.pending(max)...)
		if cur.pos == len(cur.b.Rows) {
			cur.b, cur.pos = storage.Batch{}, 0
		}
	case !cur.done:
		if err := cur.fetch(b, max); err != nil {
			return false, err
		}
	}
	return cur.ended(), nil
}

// Close releases the cursor on the server and drops its batch.
// Idempotent; a cursor whose final batch has arrived needs no round
// trip (the server released it with that batch, or never kept it).
func (cur *Cursor) Close() error {
	cur.b, cur.pos, cur.req, cur.buf = storage.Batch{}, 0, nil, nil
	if cur.done {
		return nil
	}
	cur.done = true
	_, _, _, err := cur.c.roundTrip(FrameCloseCursor, AppendCloseCursor(nil, cur.id), nil)
	return err
}
