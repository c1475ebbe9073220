package tablefunc

import (
	"spatialtf/internal/storage"
)

// PartitionTable splits a table scan into up to n page-range cursors —
// the runtime's input-cursor partitioning for a parallel table function
// whose operand is "select t.*, rowid from t": each row ends in its
// rowid (storage.NewRangeCursor). Tiny tables yield fewer partitions.
func PartitionTable(t *storage.Table, n int) []storage.Cursor {
	ranges := t.PageRanges(n)
	out := make([]storage.Cursor, 0, len(ranges))
	for _, r := range ranges {
		out = append(out, storage.NewRangeCursor(t, r[0], r[1]))
	}
	return out
}
