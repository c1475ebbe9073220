package extidx

import (
	"fmt"

	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
	"spatialtf/internal/sjoin"
	"spatialtf/internal/storage"
)

// This file implements the query operators registered with the
// framework: the equivalents of sdo_relate, sdo_within_distance and
// sdo_nn in a WHERE clause. An operator evaluation consults the domain
// index for candidates (primary filter) and settles each by its index
// entry or by the exact geometry predicate on the fetched row
// (secondary filter). By construction an operator returns rows of the
// single indexed table — the framework restriction that pushes joins
// out to table functions.

// Relate returns the rowids of rows in tab whose geometry column
// satisfies mask against the query geometry q, using idx as the primary
// filter. It is the executor for
//
//	SELECT ... FROM tab WHERE sdo_relate(tab.col, :q, 'mask=<mask>')
//
// and a drain of the window path (window.go).
func Relate(idx SpatialIndex, tab *storage.Table, column string, q geom.Geometry, mask geom.Mask) ([]storage.RowID, error) {
	cands, rows, err := Window(idx, tab, column, q, sjoin.WindowOp{Mask: mask}, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	return rows.IDs(cands)
}

// Neighbor is one ranked result of Nearest.
type Neighbor struct {
	ID   storage.RowID
	Dist float64
}

// Nearest returns the k rows of tab whose geometries are closest to q,
// in non-decreasing exact distance — the executor for sdo_nn. It runs
// the standard filter-refine ranking loop: the index surfaces
// candidates in MBR-distance order (a lower bound), exact distances are
// computed on fetch, and a candidate is final once its exact distance
// is no greater than the next index lower bound.
//
// Only R-tree-backed indexes support ranking; other kinds return an
// error.
func Nearest(idx SpatialIndex, tab *storage.Table, column string, q geom.Geometry, k int) ([]Neighbor, error) {
	r, ok := idx.(treeIndex)
	if !ok {
		return nil, fmt.Errorf("extidx: index kind %v does not support nearest-neighbour ranking", idx.Meta().Kind)
	}
	col, err := tab.ColumnIndex(column)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("extidx: nearest query geometry: %w", err)
	}
	if k <= 0 {
		return nil, nil
	}
	qm := geom.MBROf(q)
	cols, g := [1]int{col}, [1]storage.Value{}

	// Refinement queue: exact-distance results not yet proven final.
	var pending []Neighbor
	var out []Neighbor
	var iterErr error
	r.Tree().NearestFunc(qm, func(it rtree.Item, lower float64) bool {
		// Emit every pending result whose exact distance is ≤ the next
		// candidate's lower bound: nothing later can beat them.
		for len(pending) > 0 && pending[0].Dist <= lower {
			out = append(out, pending[0])
			pending = pending[1:]
			if len(out) == k {
				return false
			}
		}
		live, err := tab.FetchColumns(it.ID, cols[:], g[:])
		if err != nil {
			iterErr = err
			return false
		}
		if !live {
			return true
		}
		d := geom.Distance(g[0].G, q)
		// Insert into pending, keeping it sorted by exact distance.
		pos := len(pending)
		for pos > 0 && pending[pos-1].Dist > d {
			pos--
		}
		pending = append(pending, Neighbor{})
		copy(pending[pos+1:], pending[pos:])
		pending[pos] = Neighbor{ID: it.ID, Dist: d}
		return true
	})
	if iterErr != nil {
		return nil, iterErr
	}
	for len(out) < k && len(pending) > 0 {
		out = append(out, pending[0])
		pending = pending[1:]
	}
	return out, nil
}

// WithinDistance returns the rowids of rows whose geometry lies within
// distance d of q — the executor for sdo_within_distance, a drain of
// the window path.
func WithinDistance(idx SpatialIndex, tab *storage.Table, column string, q geom.Geometry, d float64) ([]storage.RowID, error) {
	cands, rows, err := Window(idx, tab, column, q, sjoin.WindowOp{Within: true, Distance: d}, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	return rows.IDs(cands)
}
