package storage

import (
	"errors"
	"testing"
)

func TestBatchExtendCarvesStableRows(t *testing.T) {
	var b Batch
	first := b.Extend(3, 2)
	for i, row := range first {
		row[0], row[1] = Int(int64(i)), Str("a")
	}
	// Outgrow the slab: the rows carved so far must not move or change.
	for i := 0; i < 100; i++ {
		for _, row := range b.Extend(5, 2) {
			row[0], row[1] = Int(-1), Str("later")
		}
	}
	if len(b.Rows) != 503 {
		t.Fatalf("batch has %d rows, want 503", len(b.Rows))
	}
	for i, row := range b.Rows[:3] {
		if row[0].I != int64(i) || row[1].S != "a" || &row[0] != &first[i][0] {
			t.Fatalf("row %d moved or changed when the slab grew: %v", i, row)
		}
	}
	// A row is a full-capacity slice: appending to it reallocates
	// instead of running into the next row.
	_ = append(b.Rows[0], Int(99))
	if b.Rows[1][0].I != 1 {
		t.Fatalf("appending to a row overwrote its neighbour: %v", b.Rows[1])
	}
}

func TestBatchResetReusesStorage(t *testing.T) {
	var b Batch
	b.Extend(256, 2)
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		for _, row := range b.Extend(256, 2) {
			row[0], row[1] = Int(1), Int(2)
		}
	})
	if allocs != 0 {
		t.Fatalf("refilling a reset batch cost %.1f allocations", allocs)
	}
}

func TestBatchAppendCopyDetachesFromSource(t *testing.T) {
	var src, dst Batch
	for i, row := range src.Extend(4, 1) {
		row[0] = Int(int64(i))
	}
	dst.AppendCopy(src.Rows[1:3])
	src.Reset()
	for _, row := range src.Extend(4, 1) {
		row[0] = Int(-1)
	}
	if len(dst.Rows) != 2 || dst.Rows[0][0].I != 1 || dst.Rows[1][0].I != 2 {
		t.Fatalf("copied rows changed when their source batch was reused: %v", dst.Rows)
	}
}

// chunkSource yields n one-column rows in NextBatch calls of at most
// step rows, then fails with err (if set), reusing nothing.
type chunkSource struct {
	n, step, emitted int
	err              error
}

func (c *chunkSource) NextBatch(b *Batch, max int) error {
	for k := 0; k < c.step && c.emitted < c.n; k++ {
		b.Extend(1, 1)[0][0] = Int(int64(c.emitted))
		c.emitted++
	}
	if c.emitted == c.n {
		return c.err
	}
	return nil
}

func TestRowIterDeliversRowsThenError(t *testing.T) {
	boom := errors.New("boom")
	src := &chunkSource{n: 10, step: 4, err: boom}
	var it RowIter
	var kept []Row
	for {
		_, row, ok, err := it.Next(src)
		if err != nil {
			if err != boom || len(kept) != 10 {
				t.Fatalf("got %v after %d rows, want boom after all 10", err, len(kept))
			}
			break
		}
		if !ok {
			t.Fatalf("stream ended cleanly after %d rows, want the error", len(kept))
		}
		kept = append(kept, row)
	}
	// The rows handed out earlier survive every later refill.
	for i, row := range kept {
		if row[0].I != int64(i) {
			t.Fatalf("row %d read %d after later refills", i, row[0].I)
		}
	}
	if _, _, _, err := it.Next(src); err != boom {
		t.Fatalf("the error did not repeat: %v", err)
	}
}

func TestCursorsNextBatchHonoursMax(t *testing.T) {
	rows := make([]Row, 10)
	for i := range rows {
		rows[i] = Row{Int(int64(i))}
	}
	c := NewSliceCursor(nil, rows)
	var b Batch
	if err := c.NextBatch(&b, 3); err != nil || len(b.Rows) != 3 {
		t.Fatalf("NextBatch(3): %d rows, %v", len(b.Rows), err)
	}
	if err := c.NextBatch(&b, 0); err != nil || len(b.Rows) != 10 {
		t.Fatalf("NextBatch(0) after 3: %d rows in all, %v", len(b.Rows), err)
	}
	n := len(b.Rows)
	if err := c.NextBatch(&b, 5); err != nil || len(b.Rows) != n {
		t.Fatalf("NextBatch at end of stream appended %d rows, %v", len(b.Rows)-n, err)
	}
}
