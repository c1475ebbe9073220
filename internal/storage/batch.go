package storage

import "slices"

// DefaultBatch is the number of rows a cursor produces per NextBatch
// call when the caller does not name a size — the table-function fetch
// size and the server's default fetch batch.
const DefaultBatch = 256

// Batch is the unit of transfer between row sources: the rows of one
// table-function fetch, carried from the join to the socket without
// being taken apart into single rows on the way.
//
// The caller of NextBatch owns the Batch and decides how long its rows
// live. A consumer that is done with the rows before it asks for more
// (the server encodes them into the frame image) Resets and passes the
// same Batch again, so the row headers and the value slab are reused
// and a steady stream allocates nothing per row. A consumer that keeps
// rows (the row-at-a-time Next) passes a fresh Batch per call; what it
// was handed then stays valid for as long as it is referenced.
//
// A producer fills the caller's batch: it carves rows out of the slab
// with Extend, or passes the batch on to its own source, or appends
// rows of its own that it never reuses (a heap scan's rows, carved from
// a fresh slab per page). It never appends rows that live in another
// batch's slab — those are moved with AppendCopy — and never touches a
// batch after returning it. Values are self-contained (strings, raw
// payloads and geometries are not rewritten once built), so copying a
// Value copies the row.
type Batch struct {
	// Rows are the batch's rows, in production order.
	Rows []Row

	// vals is the slab Extend carves rows from. When it fills up a new
	// chunk replaces it; rows carved from the old chunk keep that chunk
	// alive, so they never move.
	vals []Value
}

// Reset empties the batch, keeping its storage for reuse. The rows
// handed out before the call are invalid afterwards.
func (b *Batch) Reset() {
	b.Rows = b.Rows[:0]
	b.vals = b.vals[:0]
}

// Extend appends n rows of cols values each and returns them for the
// caller to fill. Every value must be assigned: on a reused batch the
// slots still hold what an earlier row left there. It allocates only
// while the batch's storage is still growing to the size its user
// needs. Each row is a full-capacity slice, so appending to one cannot
// reach its neighbour.
func (b *Batch) Extend(n, cols int) []Row {
	if need := n * cols; cap(b.vals)-len(b.vals) < need {
		b.vals = make([]Value, 0, max(need, 2*cap(b.vals)))
	}
	first := len(b.Rows)
	b.Rows = slices.Grow(b.Rows, n)[:first+n]
	for i := first; i < first+n; i++ {
		v := len(b.vals)
		b.vals = b.vals[:v+cols]
		b.Rows[i] = b.vals[v : v+cols : v+cols]
	}
	return b.Rows[first:]
}

// AppendCopy appends copies of rows (all of one width), carved from b's
// own slab, so the batch they came from can be reused at once.
func (b *Batch) AppendCopy(rows []Row) {
	if len(rows) == 0 {
		return
	}
	for i, dst := range b.Extend(len(rows), len(rows[0])) {
		copy(dst, rows[i])
	}
}

// BatchSource is the batch half of a Cursor: what RowIter and the
// batch helpers need of one.
type BatchSource interface {
	// NextBatch appends up to max more rows to b (see Cursor).
	NextBatch(b *Batch, max int) error
}

// RowIter derives a cursor's row-at-a-time Next from its NextBatch, so
// a batch-producing cursor implements Next as one line and there is one
// production path, not two. Every refill passes a fresh Batch: the rows
// Next hands out stay valid however long the caller keeps them. Rows
// that preceded an error are delivered before the error; the error then
// repeats on every later call.
type RowIter struct {
	rows []Row
	pos  int
	err  error
}

// Next returns src's next row. Use either Next or NextBatch on a
// cursor, not both: rows buffered here are invisible to NextBatch.
func (it *RowIter) Next(src BatchSource) (RowID, Row, bool, error) {
	for it.pos >= len(it.rows) {
		if it.err != nil {
			return InvalidRowID, nil, false, it.err
		}
		var b Batch
		it.err = src.NextBatch(&b, 0)
		it.rows, it.pos = b.Rows, 0
		if it.err == nil && len(b.Rows) == 0 {
			return InvalidRowID, nil, false, nil
		}
	}
	row := it.rows[it.pos]
	it.pos++
	return InvalidRowID, row, true, nil
}

// FilterBatch implements NextBatch for a cursor that keeps some of its
// source's rows: src fills the caller's batch and the rows keep rejects
// are dropped from it in place. It pulls until a batch has a survivor
// (appending nothing would read as end of stream) or src is exhausted.
func FilterBatch(src BatchSource, b *Batch, max int, keep func(Row) (bool, error)) error {
	n := len(b.Rows)
	for {
		err := src.NextBatch(b, max)
		fetched := len(b.Rows) - n
		kept := b.Rows[:n]
		for _, row := range b.Rows[n:] {
			ok, kerr := keep(row)
			if kerr != nil {
				b.Rows = kept
				return kerr
			}
			if ok {
				kept = append(kept, row)
			}
		}
		b.Rows = kept
		if err != nil || fetched == 0 || len(kept) > n {
			return err
		}
		if n == 0 {
			b.Reset() // nothing survived: reuse the slab for the next pull
		}
	}
}
