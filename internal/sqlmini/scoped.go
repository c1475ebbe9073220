package sqlmini

import (
	"fmt"
	"slices"

	"spatialtf"
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

// ownerFilter is the owner-filter stage of a base-table SELECT under a
// cluster scope: it keeps the rows whose reference point the scope owns
// — the row MBR's bottom-left corner for a plain scan, the window
// reference point for a spatial predicate (see spatialtf.ClusterScope).
// It sees the full row, before projection, so the geometry column is
// always there.
func ownerFilter(s Select, schema []storage.Column, scope *spatialtf.ClusterScope) (func(storage.Row) (bool, error), error) {
	geomIdx := slices.IndexFunc(schema, func(c storage.Column) bool { return c.Type == storage.TGeometry })
	if geomIdx < 0 {
		return nil, fmt.Errorf("sqlmini: table %q has no GEOMETRY column; a scoped query cannot shard it", s.From.Table)
	}
	if s.Where == nil {
		return func(row storage.Row) (bool, error) {
			return scope.OwnsMBR(geom.MBROf(row[geomIdx].G)), nil
		}, nil
	}
	if s.Where.Op == "nearest" {
		return nil, fmt.Errorf("sqlmini: sdo_nn cannot run under a cluster scope (a k-nearest result is not spatially decomposable)")
	}
	q, err := spatialtf.ParseWKT(s.Where.QueryWKT)
	if err != nil {
		return nil, fmt.Errorf("sqlmini: query geometry: %w", err)
	}
	qMBR := geom.MBROf(q)
	d := 0.0
	if s.Where.Op == "withindistance" {
		d = s.Where.Distance
	}
	return func(row storage.Row) (bool, error) {
		return scope.OwnsWindow(geom.MBROf(row[geomIdx].G), qMBR, d), nil
	}, nil
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
