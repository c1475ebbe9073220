package tablefunc

import (
	"spatialtf/internal/storage"
)

// PartitionTable splits a table scan into up to n page-range cursors —
// the runtime's input-cursor partitioning for a parallel table function
// whose operand is "select * from t". Tiny tables yield fewer
// partitions.
func PartitionTable(t *storage.Table, n int) []storage.Cursor {
	ranges := t.PageRanges(n)
	out := make([]storage.Cursor, 0, len(ranges))
	for _, r := range ranges {
		out = append(out, storage.NewRangeCursor(t, r[0], r[1]))
	}
	return out
}

// PartitionRows drains an arbitrary cursor and deals its rows
// round-robin into n slice cursors. It is the generic partitioner used
// when the input is itself a table-function result (e.g. the subtree
// root pair stream of the parallel spatial join) rather than a base
// table.
func PartitionRows(c storage.Cursor, n int) ([]storage.Cursor, error) {
	if n < 1 {
		n = 1
	}
	ids := make([][]storage.RowID, n)
	rows := make([][]storage.Row, n)
	i := 0
	defer c.Close()
	for {
		id, row, ok, err := c.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		ids[i%n] = append(ids[i%n], id)
		rows[i%n] = append(rows[i%n], row)
		i++
	}
	var out []storage.Cursor
	for j := 0; j < n; j++ {
		if len(rows[j]) == 0 {
			continue
		}
		out = append(out, storage.NewSliceCursor(ids[j], rows[j]))
	}
	return out, nil
}

// CollectRows drains a cursor into a row slice, closing it. It is the
// "CAST(... AS TABLE)" shim used by tests and small tools.
func CollectRows(c storage.Cursor) ([]storage.Row, error) {
	_, rows, err := storage.Drain(c)
	return rows, err
}

// FuncCursor wraps a plain next-function as a TableFunction, for small
// generators (test fixtures, synthesized streams). next returns nil when
// exhausted.
type FuncCursor struct {
	StartFn func() error
	NextFn  func() (storage.Row, error)
	CloseFn func() error
}

// Start implements TableFunction.
func (f *FuncCursor) Start() error {
	if f.StartFn != nil {
		return f.StartFn()
	}
	return nil
}

// Fetch implements TableFunction.
func (f *FuncCursor) Fetch(b *storage.Batch, max int) error {
	for n := 0; n < max; n++ {
		row, err := f.NextFn()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		b.Rows = append(b.Rows, row)
	}
	return nil
}

// Close implements TableFunction.
func (f *FuncCursor) Close() error {
	if f.CloseFn != nil {
		return f.CloseFn()
	}
	return nil
}
