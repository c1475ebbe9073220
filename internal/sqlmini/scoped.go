package sqlmini

import (
	"fmt"

	"spatialtf"
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

// Scoped execution: the shard-side half of a cluster scatter-gather
// query. The coordinator sends every shard the same SELECT plus a
// ClusterScope; each shard evaluates it over its replicated slice and
// keeps only the results whose reference point lands in a tile the
// scope owns, so concatenating the shard streams yields every result
// exactly once (see spatialtf.ClusterScope for the reference-point
// rules).

// ExecuteStreamScoped parses and runs one statement under a cluster
// scope. Only SELECT statements (including COUNT and spatial_join row
// sources) can be scoped; DDL/DML and sdo_nn are routed differently by
// the coordinator and are rejected here.
func (e *Engine) ExecuteStreamScoped(sql string, scope *spatialtf.ClusterScope) (*Stream, error) {
	if scope == nil {
		return e.ExecuteStream(sql)
	}
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	s, ok := stmt.(Select)
	if !ok {
		return nil, fmt.Errorf("sqlmini: scoped execution supports SELECT only, got %T", stmt)
	}
	if s.From.Join != nil {
		if s.Count {
			// The shard-local count; the coordinator sums the shards.
			return e.joinCount(s, scope)
		}
		return e.streamJoinSelectScoped(s, scope)
	}
	return e.scopedTableSelect(s, scope)
}

// scopedTableSelect evaluates a base-table SELECT under a scope: rows
// whose reference point this shard owns, with the scan and predicate
// reference-point rules of spatialtf.ClusterScope.
func (e *Engine) scopedTableSelect(s Select, scope *spatialtf.ClusterScope) (*Stream, error) {
	tab, err := e.db.Table(s.From.Table)
	if err != nil {
		return nil, err
	}
	schema := tab.Inner().Schema()
	geomIdx := -1
	for i, c := range schema {
		if c.Type == storage.TGeometry {
			geomIdx = i
			break
		}
	}
	if geomIdx < 0 {
		return nil, fmt.Errorf("sqlmini: table %q has no GEOMETRY column; a scoped query cannot shard it", s.From.Table)
	}

	var colIdx []int
	var outSchema []storage.Column
	if s.Star || s.Count {
		for i, c := range schema {
			colIdx = append(colIdx, i)
			outSchema = append(outSchema, c)
		}
	} else {
		for _, want := range s.Columns {
			i, err := tab.Inner().ColumnIndex(want)
			if err != nil {
				return nil, err
			}
			colIdx = append(colIdx, i)
			outSchema = append(outSchema, schema[i])
		}
	}

	if s.Where == nil {
		// Plain scan: the reference point is the row MBR's bottom-left
		// corner. The scope filter sees the full row (pre-projection) so
		// the geometry column is always available.
		cur := &scopeScanCursor{
			src:     storage.NewCursor(tab.Inner()),
			geomIdx: geomIdx,
			scope:   scope,
		}
		if s.Count {
			n, err := drainCount(cur)
			if err != nil {
				return nil, err
			}
			return countStream(n), nil
		}
		return &Stream{
			Schema: outSchema,
			Cursor: &projectCursor{src: cur, cols: colIdx},
		}, nil
	}

	// Predicate path: resolve the matching rowids through the index as
	// usual, then keep the ids whose window reference point this shard
	// owns.
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
	ids, err := e.whereIDs(s.From.Table, tab, s.Where)
	if err != nil {
		return nil, err
	}
	kept := ids[:0]
	for _, id := range ids {
		v, err := tab.Inner().FetchColumn(id, geomIdx)
		if err != nil {
			return nil, err
		}
		if scope.OwnsWindow(geom.MBROf(v.G), qMBR, d) {
			kept = append(kept, id)
		}
	}
	if s.Count {
		return countStream(len(kept)), nil
	}
	return &Stream{
		Schema: outSchema,
		Cursor: &fetchCursor{tab: tab, ids: kept, cols: colIdx},
	}, nil
}

// scopeScanCursor keeps the scanned rows whose MBR bottom-left corner
// the scope owns.
type scopeScanCursor struct {
	src     storage.Cursor
	geomIdx int
	scope   *spatialtf.ClusterScope
	it      storage.RowIter
}

func (c *scopeScanCursor) Next() (storage.RowID, storage.Row, bool, error) {
	return c.it.Next(c)
}

// NextBatch drops the rows the scope does not own from each scanned
// batch in place.
func (c *scopeScanCursor) NextBatch(b *storage.Batch, max int) error {
	return storage.FilterBatch(c.src, b, max, func(row storage.Row) (bool, error) {
		return c.scope.OwnsMBR(geom.MBROf(row[c.geomIdx].G)), nil
	})
}

func (c *scopeScanCursor) Close() error { return c.src.Close() }

// drainCount counts and closes a cursor, a fetch batch at a time.
func drainCount(cur storage.Cursor) (int, error) {
	n := 0
	var b storage.Batch
	for {
		b.Reset()
		err := cur.NextBatch(&b, 0)
		if err != nil {
			cur.Close()
			return 0, err
		}
		if len(b.Rows) == 0 {
			return n, cur.Close()
		}
		n += len(b.Rows)
	}
}

// countStream wraps a COUNT(*) outcome as an immediate result stream.
func countStream(n int) *Stream {
	return &Stream{Result: &Result{Count: n, Columns: []string{"COUNT(*)"},
		Rows: [][]string{{fmt.Sprintf("%d", n)}}}}
}
