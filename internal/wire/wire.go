// Package wire implements the client/server wire protocol of the
// networked query server: a length-prefixed, little-endian binary
// framing (versioned by an 8-byte magic, like the snapshot format) that
// extends the paper's start–fetch–close cursor pipeline across a
// socket. A remote client opens a cursor with a QueryFirst frame, which
// also returns its first batch, pulls further bounded Fetch batches
// exactly as a local consumer drives a pipelined table function's fetch
// calls, and releases it with CloseCursor — the server never
// materialises a full result set, and a result that fits one batch
// never holds a server cursor at all.
//
// Row payloads reuse the storage row codec (storage.EncodeRow), so
// geometry columns travel in the same WKB-style binary image
// (geom.MarshalBinary) that heap pages and snapshots store.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"spatialtf/internal/storage"
)

// Magic opens every connection in both directions; the trailing digit
// versions the protocol.
const Magic = "STFWIRE1"

// MaxFrame bounds a frame payload; peers reject anything larger.
const MaxFrame = 16 << 20

// FrameType tags a frame. Client-to-server types have the high bit
// clear, server-to-client types have it set.
type FrameType byte

// Frame types.
const (
	// FrameQuery carries one SQL statement: string sql.
	FrameQuery FrameType = 0x01
	// FrameFetch pulls a batch: uvarint cursor id, uvarint max rows
	// (0 = server default).
	FrameFetch FrameType = 0x02
	// FrameCloseCursor releases a cursor early: uvarint cursor id.
	FrameCloseCursor FrameType = 0x03
	// FrameStats requests server statistics; empty payload.
	FrameStats FrameType = 0x04
	// FrameQueryFirst runs a statement and fetches its first batch in
	// one round trip (protocol revision 1.2): byte form (FrameQuery or
	// FrameScopedQuery), then that frame's payload. A streaming SELECT
	// is answered by Describe and the first Batch at the server's
	// default size in one flush; when that batch has done set the server
	// kept no cursor. Anything else is answered as the form would be.
	FrameQueryFirst FrameType = 0x07

	// FrameResult is an immediate statement outcome (DDL/DML/COUNT).
	FrameResult FrameType = 0x81
	// FrameDescribe announces a new cursor: uvarint cursor id, uvarint
	// ncols, per column string name + byte type.
	FrameDescribe FrameType = 0x82
	// FrameBatch is one fetch batch: uvarint cursor id, byte done,
	// uvarint nrows, per row uvarint length + storage row image.
	FrameBatch FrameType = 0x83
	// FrameStatsReply carries a Stats snapshot.
	FrameStatsReply FrameType = 0x84
	// FrameError reports a failure: string message. The connection
	// stays usable unless the peer closes it.
	FrameError FrameType = 0x8F
)

// WriteFrame writes one frame (uint32 little-endian payload length,
// type byte, payload). The caller flushes.
func WriteFrame(w *bufio.Writer, t FrameType, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", len(payload), MaxFrame)
	}
	// The header goes in a byte at a time: passed to Write, it would
	// escape through the io.Writer underneath and cost an allocation
	// per frame.
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(t)
	for _, c := range hdr {
		if err := w.WriteByte(c); err != nil {
			return err
		}
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame into a fresh buffer.
func ReadFrame(r *bufio.Reader) (FrameType, []byte, error) {
	return readFrame(r, nil)
}

// readFrame reads one frame. The payload is read into buf's storage
// (buf's contents are dropped), grown when it does not fit, and returned:
// it is valid until that storage is reused. A nil buf reads into a
// fresh buffer. Growth follows the bytes actually received rather than
// the header: a forged length on a short stream must not cost a
// MaxFrame-sized allocation before the read fails.
func readFrame(r *bufio.Reader, buf []byte) (FrameType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	const step = 64 << 10
	if buf == nil {
		buf = make([]byte, 0, min(n, step))
	}
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), step)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
	return FrameType(hdr[4]), buf, nil
}

// WriteMagic sends the protocol magic.
func WriteMagic(w io.Writer) error {
	_, err := io.WriteString(w, Magic)
	return err
}

// ExpectMagic reads and verifies the protocol magic.
func ExpectMagic(r io.Reader) error {
	buf := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("wire: handshake: %w", err)
	}
	if string(buf) != Magic {
		return fmt.Errorf("wire: bad magic %q (want %q)", buf, Magic)
	}
	return nil
}

// --- payload building and parsing ---

// payload is an append-only payload builder.
type payload struct{ b []byte }

func (p *payload) u64(v uint64)  { p.b = binary.AppendUvarint(p.b, v) }
func (p *payload) byteV(v byte)  { p.b = append(p.b, v) }
func (p *payload) str(s string)  { p.u64(uint64(len(s))); p.b = append(p.b, s...) }
func (p *payload) blob(b []byte) { p.u64(uint64(len(b))); p.b = append(p.b, b...) }

// pReader consumes a payload.
type pReader struct{ b []byte }

func (p *pReader) u64() (uint64, error) {
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated uvarint")
	}
	p.b = p.b[n:]
	return v, nil
}

func (p *pReader) byteV() (byte, error) {
	if len(p.b) < 1 {
		return 0, fmt.Errorf("wire: truncated byte")
	}
	v := p.b[0]
	p.b = p.b[1:]
	return v, nil
}

func (p *pReader) blob() ([]byte, error) {
	l, err := p.u64()
	if err != nil {
		return nil, err
	}
	if uint64(len(p.b)) < l {
		return nil, fmt.Errorf("wire: truncated payload: need %d, have %d", l, len(p.b))
	}
	out := p.b[:l]
	p.b = p.b[l:]
	return out, nil
}

func (p *pReader) str() (string, error) {
	b, err := p.blob()
	return string(b), err
}

func (p *pReader) done() error {
	if len(p.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes in frame", len(p.b))
	}
	return nil
}

// --- Query ---

// AppendQuery encodes a Query payload.
func AppendQuery(dst []byte, sql string) []byte {
	p := payload{b: dst}
	p.str(sql)
	return p.b
}

// ParseQuery decodes a Query payload.
func ParseQuery(b []byte) (string, error) {
	p := pReader{b: b}
	sql, err := p.str()
	if err != nil {
		return "", err
	}
	return sql, p.done()
}

// AppendQueryFirst encodes a QueryFirst payload: the Query form when sc
// is nil, the ScopedQuery form otherwise.
func AppendQueryFirst(dst []byte, sc *Scope, sql string) []byte {
	if sc == nil {
		return AppendQuery(append(dst, byte(FrameQuery)), sql)
	}
	return AppendScopedQuery(append(dst, byte(FrameScopedQuery)), *sc, sql)
}

// ParseQueryFirst decodes a QueryFirst payload; sc is nil for the Query
// form.
func ParseQueryFirst(b []byte) (sc *Scope, sql string, err error) {
	if len(b) == 0 {
		return nil, "", fmt.Errorf("wire: truncated byte")
	}
	switch FrameType(b[0]) {
	case FrameQuery:
		sql, err = ParseQuery(b[1:])
		return nil, sql, err
	case FrameScopedQuery:
		s, sql, err := ParseScopedQuery(b[1:])
		if err != nil {
			return nil, "", err
		}
		return &s, sql, nil
	default:
		return nil, "", fmt.Errorf("wire: QueryFirst of unknown form 0x%02x", b[0])
	}
}

// --- Fetch / CloseCursor ---

// AppendFetch encodes a Fetch payload.
func AppendFetch(dst []byte, cursorID, maxRows uint64) []byte {
	p := payload{b: dst}
	p.u64(cursorID)
	p.u64(maxRows)
	return p.b
}

// ParseFetch decodes a Fetch payload.
func ParseFetch(b []byte) (cursorID, maxRows uint64, err error) {
	p := pReader{b: b}
	if cursorID, err = p.u64(); err != nil {
		return 0, 0, err
	}
	if maxRows, err = p.u64(); err != nil {
		return 0, 0, err
	}
	return cursorID, maxRows, p.done()
}

// AppendCloseCursor encodes a CloseCursor payload.
func AppendCloseCursor(dst []byte, cursorID uint64) []byte {
	p := payload{b: dst}
	p.u64(cursorID)
	return p.b
}

// ParseCloseCursor decodes a CloseCursor payload.
func ParseCloseCursor(b []byte) (uint64, error) {
	p := pReader{b: b}
	id, err := p.u64()
	if err != nil {
		return 0, err
	}
	return id, p.done()
}

// --- Describe ---

// AppendDescribe encodes a Describe payload.
func AppendDescribe(dst []byte, cursorID uint64, schema []storage.Column) []byte {
	p := payload{b: dst}
	p.u64(cursorID)
	p.u64(uint64(len(schema)))
	for _, c := range schema {
		p.str(c.Name)
		p.byteV(byte(c.Type))
	}
	return p.b
}

// ParseDescribe decodes a Describe payload.
func ParseDescribe(b []byte) (cursorID uint64, schema []storage.Column, err error) {
	p := pReader{b: b}
	if cursorID, err = p.u64(); err != nil {
		return 0, nil, err
	}
	n, err := p.u64()
	if err != nil {
		return 0, nil, err
	}
	if n > 4096 {
		return 0, nil, fmt.Errorf("wire: describe with %d columns", n)
	}
	schema = make([]storage.Column, n)
	for i := range schema {
		if schema[i].Name, err = p.str(); err != nil {
			return 0, nil, err
		}
		t, err := p.byteV()
		if err != nil {
			return 0, nil, err
		}
		schema[i].Type = storage.ColType(t)
	}
	return cursorID, schema, p.done()
}

// --- Batch ---

// AppendBatch encodes a Batch payload: the rows travel in the storage
// row codec under the cursor's schema, each encoded straight into dst
// behind its length (the server passes its pooled frame image, so this
// is the one copy a row makes between the cursor and the socket).
func AppendBatch(dst []byte, cursorID uint64, done bool, schema []storage.Column, rows []storage.Row) ([]byte, error) {
	p := payload{b: dst}
	p.u64(cursorID)
	d := byte(0)
	if done {
		d = 1
	}
	p.byteV(d)
	p.u64(uint64(len(rows)))
	for _, row := range rows {
		// Leave one byte for the row's length, which is all a row under
		// 128 bytes needs; a longer image is moved up to make room.
		at := len(p.b)
		p.b = append(p.b, 0)
		var err error
		if p.b, err = storage.AppendRow(p.b, schema, row); err != nil {
			return nil, fmt.Errorf("wire: encode batch row: %w", err)
		}
		n := len(p.b) - at - 1
		if n < 0x80 {
			p.b[at] = byte(n)
			continue
		}
		var pre [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(pre[:], uint64(n))
		p.b = append(p.b, pre[:k-1]...)
		copy(p.b[at+k:], p.b[at+1:at+1+n])
		copy(p.b[at:], pre[:k])
	}
	return p.b, nil
}

// slabValues bounds how many values decodeBatch reserves at a time:
// what the server's largest batch of a few columns needs, so a forged
// row count on a short payload cannot reserve more than one chunk
// before decoding fails.
const slabValues = 1 << 14

// ParseBatch decodes a Batch payload against the cursor's schema into
// a fresh batch: the rows are the caller's to keep.
func ParseBatch(b []byte, schema []storage.Column) (cursorID uint64, done bool, rows []storage.Row, err error) {
	var batch storage.Batch
	if cursorID, done, err = decodeBatch(&batch, b, schema); err != nil {
		return 0, false, nil, err
	}
	return cursorID, done, batch.Rows, nil
}

// decodeBatch appends the rows of a Batch payload to dst, carving them
// from dst's value slab, so a batch that is Reset and decoded into
// again allocates no values once its slab has grown. String columns are
// cut from one copy of the payload made per call, so a string kept from
// a row stays valid after the slab is reused; geometry and raw columns
// still decode per value. On error dst.Rows is as it was on entry.
func decodeBatch(dst *storage.Batch, b []byte, schema []storage.Column) (cursorID uint64, done bool, err error) {
	p := pReader{b: b}
	if cursorID, err = p.u64(); err != nil {
		return 0, false, err
	}
	d, err := p.byteV()
	if err != nil {
		return 0, false, err
	}
	n, err := p.u64()
	if err != nil {
		return 0, false, err
	}
	// Every row costs at least its length byte.
	if n > uint64(len(p.b)) {
		return 0, false, fmt.Errorf("wire: batch of %d rows in %d bytes", n, len(p.b))
	}
	var text string
	for _, c := range schema {
		if c.Type == storage.TString {
			text = string(p.b)
			break
		}
	}
	size := len(p.b)
	chunk := max(1, slabValues/max(1, len(schema)))
	had := len(dst.Rows)
	fail := func(err error) (uint64, bool, error) {
		dst.Rows = dst.Rows[:had]
		return 0, false, err
	}
	for left := int(n); left > 0; {
		slab := dst.Extend(min(left, chunk), len(schema))
		left -= len(slab)
		for _, row := range slab {
			img, err := p.blob()
			if err != nil {
				return fail(err)
			}
			rowText := ""
			if text != "" {
				end := size - len(p.b)
				rowText = text[end-len(img) : end]
			}
			if err := storage.DecodeRowInto(row, schema, img, rowText); err != nil {
				return fail(fmt.Errorf("wire: decode batch row: %w", err))
			}
		}
	}
	if err := p.done(); err != nil {
		return fail(err)
	}
	return cursorID, d != 0, nil
}

// --- Result ---

// Result is an immediate statement outcome: message for DDL/DML, or a
// small string table (COUNT results travel this way; large row sources
// use cursors instead).
type Result struct {
	Message  string
	HasCount bool
	Count    int64
	Columns  []string
	Rows     [][]string
}

// AppendResult encodes a Result payload.
func AppendResult(dst []byte, r Result) []byte {
	p := payload{b: dst}
	p.str(r.Message)
	hc := byte(0)
	if r.HasCount {
		hc = 1
	}
	p.byteV(hc)
	p.u64(uint64(r.Count))
	p.u64(uint64(len(r.Columns)))
	for _, c := range r.Columns {
		p.str(c)
	}
	p.u64(uint64(len(r.Rows)))
	for _, row := range r.Rows {
		for _, v := range row {
			p.str(v)
		}
	}
	return p.b
}

// ParseResult decodes a Result payload.
func ParseResult(b []byte) (Result, error) {
	var r Result
	p := pReader{b: b}
	var err error
	if r.Message, err = p.str(); err != nil {
		return r, err
	}
	hc, err := p.byteV()
	if err != nil {
		return r, err
	}
	r.HasCount = hc != 0
	c, err := p.u64()
	if err != nil {
		return r, err
	}
	r.Count = int64(c)
	ncols, err := p.u64()
	if err != nil {
		return r, err
	}
	if ncols > 4096 {
		return r, fmt.Errorf("wire: result with %d columns", ncols)
	}
	r.Columns = make([]string, ncols)
	for i := range r.Columns {
		if r.Columns[i], err = p.str(); err != nil {
			return r, err
		}
	}
	nrows, err := p.u64()
	if err != nil {
		return r, err
	}
	// Each row carries ncols length-prefixed strings, at least one byte
	// apiece — except zero-column rows, which carry nothing at all, so a
	// forged count would spin the loop without ever consuming input.
	if nrows > uint64(len(p.b)) && nrows > 1024 {
		return r, fmt.Errorf("wire: result with %d rows in %d bytes", nrows, len(p.b))
	}
	for i := uint64(0); i < nrows; i++ {
		row := make([]string, ncols)
		for k := range row {
			if row[k], err = p.str(); err != nil {
				return r, err
			}
		}
		r.Rows = append(r.Rows, row)
	}
	return r, p.done()
}

// --- Error ---

// AppendError encodes an Error payload.
func AppendError(dst []byte, msg string) []byte {
	p := payload{b: dst}
	p.str(msg)
	return p.b
}

// ParseError decodes an Error payload.
func ParseError(b []byte) (string, error) {
	p := pReader{b: b}
	msg, err := p.str()
	if err != nil {
		return "", err
	}
	return msg, p.done()
}

// --- Stats ---

// Stats is the server statistics snapshot shipped by FrameStatsReply.
type Stats struct {
	// Connections.
	ConnsAccepted int64
	ConnsRejected int64
	ConnsActive   int64
	// Cursors.
	CursorsOpened int64
	CursorsOpen   int64
	// Work.
	Queries      int64
	Errors       int64
	RowsStreamed int64
	Fetches      int64
	// FetchNanos is total time spent producing fetch batches; divide by
	// Fetches for the mean fetch latency.
	FetchNanos int64
	// Decoded-geometry cache of the served database: lookup outcomes
	// over the server lifetime and current residency.
	GeomCacheHits    int64
	GeomCacheMisses  int64
	GeomCacheBytes   int64
	GeomCacheEntries int64
}

// AppendStats encodes a Stats payload.
func AppendStats(dst []byte, s Stats) []byte {
	p := payload{b: dst}
	for _, v := range []int64{
		s.ConnsAccepted, s.ConnsRejected, s.ConnsActive,
		s.CursorsOpened, s.CursorsOpen,
		s.Queries, s.Errors, s.RowsStreamed, s.Fetches, s.FetchNanos,
		s.GeomCacheHits, s.GeomCacheMisses, s.GeomCacheBytes, s.GeomCacheEntries,
	} {
		p.u64(uint64(v))
	}
	return p.b
}

// ParseStats decodes a Stats payload.
func ParseStats(b []byte) (Stats, error) {
	var s Stats
	p := pReader{b: b}
	for _, dst := range []*int64{
		&s.ConnsAccepted, &s.ConnsRejected, &s.ConnsActive,
		&s.CursorsOpened, &s.CursorsOpen,
		&s.Queries, &s.Errors, &s.RowsStreamed, &s.Fetches, &s.FetchNanos,
		&s.GeomCacheHits, &s.GeomCacheMisses, &s.GeomCacheBytes, &s.GeomCacheEntries,
	} {
		v, err := p.u64()
		if err != nil {
			return s, err
		}
		*dst = int64(v)
	}
	return s, p.done()
}
