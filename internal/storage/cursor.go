package storage

import (
	"fmt"

	"spatialtf/internal/pager"
)

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

// tableCursor iterates a table (or a page range of it) without holding
// the heap lock between Next calls, so writers and other readers can
// interleave. It observes rows inserted behind its position, matching
// the read-committed-per-fetch behaviour of an Oracle cursor without a
// serializable snapshot — adequate for the read-only workloads here.
//
// The cursor tracks its position as an index into the heap's page list,
// which is append-only, so the position survives lock releases even as
// the table grows. Each Next pins the current page, copies one row out,
// and unpins before decoding.
type tableCursor struct {
	t        *Table
	pageIdx  int
	slot     int
	fromPage uint32
	toPage   uint32 // exclusive; 0 means "end of table at each step"
	closed   bool
}

// NewCursor returns a cursor over all rows of t in storage order.
func NewCursor(t *Table) Cursor {
	return &tableCursor{t: t}
}

// NewRangeCursor returns a cursor over the rows stored in heap pages
// [fromPage, toPage).
func NewRangeCursor(t *Table, fromPage, toPage uint32) Cursor {
	return &tableCursor{t: t, fromPage: fromPage, toPage: toPage}
}

// Next advances to the next live row.
func (c *tableCursor) Next() (RowID, Row, bool, error) {
	if c.closed {
		return InvalidRowID, nil, false, fmt.Errorf("storage: cursor on %q used after Close", c.t.name)
	}
	h := c.t.heap
	for {
		h.mu.RLock()
		if c.pageIdx >= len(h.pages) {
			h.mu.RUnlock()
			return InvalidRowID, nil, false, nil
		}
		pid := h.pages[c.pageIdx]
		if pid < c.fromPage {
			h.mu.RUnlock()
			c.pageIdx++
			c.slot = 0
			continue
		}
		if c.toPage != 0 && pid >= c.toPage {
			h.mu.RUnlock()
			return InvalidRowID, nil, false, nil
		}
		f, err := h.space.Pin(pid)
		if err != nil {
			h.mu.RUnlock()
			return InvalidRowID, nil, false, fmt.Errorf("cursor on %q: %w", c.t.name, err)
		}
		var img []byte
		id := InvalidRowID
		switch f.Kind() {
		case pager.KindSlotted:
			p := page{buf: f.Data()}
			n := p.slotCount()
			for c.slot < n && img == nil {
				slot := c.slot
				c.slot++
				if p.slotLen(slot) == tombstoneLen {
					continue
				}
				off := p.slotOffset(slot)
				img = make([]byte, p.slotLen(slot))
				copy(img, p.buf[off:])
				id = RowID{Page: pid, Slot: uint16(slot)}
			}
		case pager.KindJumboHead:
			if c.slot == 0 {
				c.slot++
				row, jerr := h.fetchJumbo(nil, f)
				if jerr != nil && jerr != ErrRowDeleted {
					f.Unpin()
					h.mu.RUnlock()
					return InvalidRowID, nil, false, fmt.Errorf("cursor on %q: %w", c.t.name, jerr)
				}
				if jerr == nil {
					img = row
					id = RowID{Page: pid, Slot: 0}
				}
			}
		}
		f.Unpin()
		h.mu.RUnlock()
		if img == nil {
			c.pageIdx++
			c.slot = 0
			continue
		}
		row, err := DecodeRow(c.t.schema, img)
		if err != nil {
			return InvalidRowID, nil, false, fmt.Errorf("cursor on %q: %w", c.t.name, err)
		}
		return id, row, true, nil
	}
}

// NextBatch implements Cursor: a heap scan decodes one row per step.
func (c *tableCursor) NextBatch(b *Batch, max int) error {
	return BatchFromNext(c.Next, b, max)
}

// Close marks the cursor unusable.
func (c *tableCursor) Close() error {
	c.closed = true
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
