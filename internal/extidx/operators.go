package extidx

import (
	"errors"
	"fmt"

	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
)

// This file implements the query operators registered with the
// framework: the equivalents of sdo_relate and sdo_within_distance in a
// WHERE clause. An operator evaluation consults the domain index for
// candidate rowids (primary filter) and then applies the exact geometry
// predicate to each fetched candidate (secondary filter). By
// construction an operator returns rows of the single indexed table —
// the framework restriction that pushes joins out to table functions.

// Relate returns the rowids of rows in tab whose geometry column
// satisfies mask against the query geometry q, using idx as the primary
// filter. It is the executor for
//
//	SELECT ... FROM tab WHERE sdo_relate(tab.col, :q, 'mask=<mask>')
func Relate(idx SpatialIndex, tab *storage.Table, column string, q geom.Geometry, mask geom.Mask) ([]storage.RowID, error) {
	col, err := tab.ColumnIndex(column)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("extidx: relate query geometry: %w", err)
	}
	var out []storage.RowID
	for _, id := range idx.WindowCandidates(geom.MBROf(q)) {
		g, ok, err := candidateGeom(tab, id, col)
		if err != nil {
			return nil, err
		}
		if ok && geom.Relate(g, q, mask) {
			out = append(out, id)
		}
	}
	return out, nil
}

// candidateGeom fetches the geometry of a row the index surfaced, for
// the secondary filter. The index is read without a snapshot, so the
// row may have been deleted since: ok is then false and the row is
// simply not in the result — read committed per fetch, like a heap
// scan — instead of failing the statement.
func candidateGeom(tab *storage.Table, id storage.RowID, col int) (g geom.Geometry, ok bool, err error) {
	v, err := tab.FetchColumn(id, col)
	if errors.Is(err, storage.ErrRowDeleted) {
		return geom.Geometry{}, false, nil
	}
	if err != nil {
		return geom.Geometry{}, false, fmt.Errorf("extidx: secondary filter fetch %v: %w", id, err)
	}
	return v.G, true, nil
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
	type ranker interface{ Tree() *rtree.Tree }
	r, ok := idx.(ranker)
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
		g, ok, err := candidateGeom(tab, it.ID, col)
		if err != nil {
			iterErr = err
			return false
		}
		if !ok {
			return true
		}
		d := geom.Distance(g, q)
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
// distance d of q — the executor for sdo_within_distance.
func WithinDistance(idx SpatialIndex, tab *storage.Table, column string, q geom.Geometry, d float64) ([]storage.RowID, error) {
	col, err := tab.ColumnIndex(column)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("extidx: within-distance query geometry: %w", err)
	}
	if d < 0 {
		return nil, fmt.Errorf("extidx: negative distance %g", d)
	}
	var out []storage.RowID
	for _, id := range idx.DistCandidates(geom.MBROf(q), d) {
		g, ok, err := candidateGeom(tab, id, col)
		if err != nil {
			return nil, err
		}
		if ok && geom.WithinDistance(g, q, d) {
			out = append(out, id)
		}
	}
	return out, nil
}
