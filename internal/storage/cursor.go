package storage

import "fmt"

// Cursor is the pull-based row stream consumed by table functions: the
// Go rendering of the ref-cursor arguments in the paper's SQL examples.
// Implementations are not safe for concurrent use; parallel table
// functions give each instance its own cursor over a disjoint partition.
//
// A cursor is read either a row at a time (Next) or a fetch batch at a
// time (NextBatch), not both: the paper's fetch returns a collection of
// rows, and NextBatch is that call; Next is the convenience over it.
type Cursor interface {
	// Next returns the next row. ok is false when the stream is
	// exhausted (in which case the other results are zero values).
	Next() (id RowID, row Row, ok bool, err error)
	// NextBatch appends up to max more rows to b (max <= 0 selects the
	// cursor's own batch size) and never more. Appending nothing and
	// returning nil means the stream is exhausted; a short batch does
	// not. On an error b holds the rows produced before it, and they
	// are part of the result. See Batch for who owns the rows.
	NextBatch(b *Batch, max int) error
	// Close releases the cursor's resources. Close is idempotent.
	Close() error
}

// tableCursor iterates a table (or a page range of it) a page at a
// time: it takes the heap's read lock once per page, decodes that
// page's live rows straight from the pinned page through the heap's
// page walk (visitPage), and releases the lock before handing them out,
// so writers and other readers interleave between pages. Next and
// NextBatch are served from that one buffer.
//
// The cursor tracks its position as an index into the heap's page list,
// which is append-only, so the position survives lock releases even as
// the table grows, and a slot on that page: a page it has read is read
// again from that slot before the cursor moves on, so it observes rows
// inserted behind its position, matching the read-committed-per-fetch
// behaviour of an Oracle cursor without a serializable snapshot —
// adequate for the read-only workloads here.
type tableCursor struct {
	t        *Table
	pageIdx  int
	slot     int
	fromPage uint32
	toPage   uint32 // exclusive; 0 means "end of table at each step"
	closed   bool
	// rowid appends each row's rowid (Rid) after its columns.
	rowid bool

	// rows are the rows of the last page read and ents their rowids
	// (and their images while the page is pinned), pos the first not
	// yet handed out. The rows of a page are carved from one fresh
	// slab, each a full-capacity slice of its own, so a row handed out
	// stays valid after the buffer moves on.
	ents []pageRow
	rows []Row
	pos  int
}

// pageRow is one live row a page walk met: its rowid, and its image on
// the pinned page until the walk's page is unpinned.
type pageRow struct {
	id  RowID
	img []byte
}

// NewCursor returns a cursor over all rows of t in storage order.
func NewCursor(t *Table) Cursor {
	return &tableCursor{t: t}
}

// NewRangeCursor returns a cursor over the rows stored in heap pages
// [fromPage, toPage), each ending in one more value, the row's rowid
// (Rid): the rows of "select t.*, rowid from t", which a parallel table
// function reads in batches without losing its rows' rowids.
func NewRangeCursor(t *Table, fromPage, toPage uint32) Cursor {
	return &tableCursor{t: t, fromPage: fromPage, toPage: toPage, rowid: true}
}

// Next returns the next live row with its rowid.
func (c *tableCursor) Next() (RowID, Row, bool, error) {
	if c.pos == len(c.rows) {
		if err := c.fill(); err != nil || len(c.rows) == 0 {
			return InvalidRowID, nil, false, err
		}
	}
	i := c.pos
	c.pos++
	return c.ents[i].id, c.rows[i], true, nil
}

// NextBatch implements Cursor: it hands on up to max buffered rows,
// reading pages until it has them or the range ends.
func (c *tableCursor) NextBatch(b *Batch, max int) error {
	if max <= 0 {
		max = DefaultBatch
	}
	for n := 0; n < max; {
		if c.pos == len(c.rows) {
			if err := c.fill(); err != nil || len(c.rows) == 0 {
				return err
			}
		}
		k := min(max-n, len(c.rows)-c.pos)
		b.Rows = append(b.Rows, c.rows[c.pos:c.pos+k]...)
		c.pos += k
		n += k
	}
	return nil
}

// fill refills the empty buffer from the next page with rows the cursor
// has not read; it leaves the buffer empty at the end of the range.
func (c *tableCursor) fill() error {
	if c.closed {
		return fmt.Errorf("storage: cursor on %q used after Close", c.t.name)
	}
	c.rows, c.pos = c.rows[:0], 0
	for len(c.rows) == 0 {
		more, err := c.readPage()
		if err != nil || !more {
			return err
		}
	}
	return nil
}

// readPage reads the live rows of the cursor's page from its slot on
// into the buffer, under one hold of the heap's read lock, and moves
// to the next page when there were none. more is false at the end of
// the range.
func (c *tableCursor) readPage() (more bool, err error) {
	h := c.t.heap
	h.mu.RLock()
	defer h.mu.RUnlock()
	for c.pageIdx < len(h.pages) && h.pages[c.pageIdx] < c.fromPage {
		c.pageIdx++
	}
	if c.pageIdx >= len(h.pages) {
		return false, nil
	}
	pid := h.pages[c.pageIdx]
	if c.toPage != 0 && pid >= c.toPage {
		return false, nil
	}
	f, err := h.space.Pin(pid)
	if err != nil {
		return false, fmt.Errorf("cursor on %q: %w", c.t.name, err)
	}
	defer f.Unpin()
	c.ents = c.ents[:0]
	next, err := h.visitPage(f, c.slot, func(id RowID, img []byte) bool {
		c.ents = append(c.ents, pageRow{id: id, img: img})
		return true
	})
	if err != nil {
		return false, fmt.Errorf("cursor on %q: %w", c.t.name, err)
	}
	w := len(c.t.schema)
	rw := w
	if c.rowid {
		rw++
	}
	vals := make([]Value, len(c.ents)*rw)
	for i, e := range c.ents {
		row := Row(vals[i*rw : (i+1)*rw : (i+1)*rw])
		if err := DecodeRowInto(row[:w], c.t.schema, e.img, ""); err != nil {
			return false, fmt.Errorf("cursor on %q at %v: %w", c.t.name, e.id, err)
		}
		if c.rowid {
			row[w] = Rid(e.id)
		}
		c.rows = append(c.rows, row)
	}
	if len(c.rows) == 0 {
		c.pageIdx++
		c.slot = 0
	} else {
		c.slot = next
	}
	return true, nil
}

// Close marks the cursor unusable and drops its buffer.
func (c *tableCursor) Close() error {
	c.closed = true
	c.ents, c.rows, c.pos = nil, nil, 0
	return nil
}

// SliceCursor adapts an in-memory row slice to the Cursor interface;
// tests and the table-function framework use it for synthesized row
// sources (e.g. the subtree-root streams of the parallel join).
type SliceCursor struct {
	IDs  []RowID
	Rows []Row
	pos  int
}

// NewSliceCursor returns a cursor over parallel id/row slices. ids may
// be nil, in which case InvalidRowID is reported for every row.
func NewSliceCursor(ids []RowID, rows []Row) *SliceCursor {
	return &SliceCursor{IDs: ids, Rows: rows}
}

// Next returns the next slice element.
func (c *SliceCursor) Next() (RowID, Row, bool, error) {
	if c.pos >= len(c.Rows) {
		return InvalidRowID, nil, false, nil
	}
	i := c.pos
	c.pos++
	id := InvalidRowID
	if c.IDs != nil {
		id = c.IDs[i]
	}
	return id, c.Rows[i], true, nil
}

// NextBatch implements Cursor.
func (c *SliceCursor) NextBatch(b *Batch, max int) error {
	n := len(c.Rows) - c.pos
	if max > 0 && max < n {
		n = max
	}
	b.Rows = append(b.Rows, c.Rows[c.pos:c.pos+n]...)
	c.pos += n
	return nil
}

// Close implements Cursor.
func (c *SliceCursor) Close() error { return nil }

// Drain reads every remaining row from c and returns them, closing c.
func Drain(c Cursor) (ids []RowID, rows []Row, err error) {
	defer c.Close()
	for {
		id, row, ok, err := c.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return ids, rows, nil
		}
		ids = append(ids, id)
		rows = append(rows, row)
	}
}
