package sqlmini

import (
	"fmt"
	"slices"

	"spatialtf/internal/storage"
)

// ownerColumn returns the column a SELECT's owner test reads under a
// cluster scope: the schema's first GEOMETRY column — the one the
// cluster places rows by (the coordinator routes an INSERT by it) —
// whichever column a predicate names. A scan keeps the rows whose MBR's
// bottom-left corner the scope owns (OwnsMBR, filterCursor); a window
// keeps those whose window reference point it owns (OwnsWindow, tested
// by the window's owner route). See spatialtf.ClusterScope.
func ownerColumn(s Select, schema []storage.Column) (int, error) {
	geomIdx := slices.IndexFunc(schema, func(c storage.Column) bool { return c.Type == storage.TGeometry })
	if geomIdx < 0 {
		return 0, fmt.Errorf("sqlmini: table %q has no GEOMETRY column; a scoped query cannot shard it", s.From.Table)
	}
	if s.Where != nil && s.Where.Op == "nearest" {
		return 0, fmt.Errorf("sqlmini: sdo_nn cannot run under a cluster scope (a k-nearest result is not spatially decomposable)")
	}
	return geomIdx, nil
}

// filterCursor keeps the rows of src that keep accepts, dropping the
// others from each fetch batch in place.
type filterCursor struct {
	src  storage.Cursor
	keep func(storage.Row) (bool, error)
	it   storage.RowIter
}

func (c *filterCursor) Next() (storage.RowID, storage.Row, bool, error) {
	return c.it.Next(c)
}

func (c *filterCursor) NextBatch(b *storage.Batch, max int) error {
	return storage.FilterBatch(c.src, b, max, c.keep)
}

func (c *filterCursor) Close() error { return c.src.Close() }
