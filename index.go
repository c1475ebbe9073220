package spatialtf

import (
	"fmt"

	"spatialtf/internal/extidx"
	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
)

// IndexOptions tunes spatial index creation — the PARAMETERS clause.
type IndexOptions struct {
	// Fanout is the R-tree node capacity (0 = default 32).
	Fanout int
	// TilingLevel is the quadtree fixed tiling level; required for
	// Quadtree indexes.
	TilingLevel int
	// Bounds is the indexed coordinate domain; required for Quadtree
	// indexes.
	Bounds MBR
	// Parallel is the degree of parallelism for index creation (the
	// paper's §5); 0 or 1 builds sequentially.
	Parallel int
	// InteriorEffort is recorded in the index metadata, the catalogue
	// and snapshots, and must be at most 64; it builds nothing, as the
	// R-tree stores no interior approximations.
	InteriorEffort int
}

// Index is a handle on a created spatial index.
type Index struct {
	db    *DB
	name  string
	inner extidx.SpatialIndex
	meta  extidx.Metadata
}

// CreateIndex builds a spatial index of the given kind on table.geom
// column "geom"; use CreateIndexOn for a custom column. It corresponds
// to CREATE INDEX ... INDEXTYPE IS mdsys.spatial_index, optionally with
// the PARALLEL clause.
func (db *DB) CreateIndex(name, table string, kind IndexKind, opt IndexOptions) (*Index, error) {
	return db.CreateIndexOn(name, table, "geom", kind, opt)
}

// CreateIndexOn builds a spatial index on an explicit geometry column.
// On a durable database the index parameters are catalogued, so the
// index is rebuilt automatically on the next OpenDir.
func (db *DB) CreateIndexOn(name, table, column string, kind IndexKind, opt IndexOptions) (*Index, error) {
	return db.createIndexOn(name, table, column, kind, opt, true)
}

// createIndexOn is CreateIndexOn with catalog persistence optional:
// OpenDir's rebuild pass recreates catalogued indexes without rewriting
// the catalog it is reading from.
func (db *DB) createIndexOn(name, table, column string, kind IndexKind, opt IndexOptions, persist bool) (*Index, error) {
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	idx, err := db.reg.CreateIndex(name, kind, t.inner, column, extidx.Params{
		Fanout:         opt.Fanout,
		TilingLevel:    opt.TilingLevel,
		Bounds:         opt.Bounds,
		BuildWorkers:   opt.Parallel,
		InteriorEffort: opt.InteriorEffort,
	})
	if err != nil {
		return nil, err
	}
	meta, err := db.reg.Describe(name)
	if err != nil {
		return nil, err
	}
	if persist && db.store != nil {
		db.mu.Lock()
		err := db.writeCatalogLocked()
		db.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("spatialtf: persist catalog: %w", err)
		}
	}
	return &Index{db: db, name: name, inner: idx, meta: meta}, nil
}

// Index returns the handle of a previously created index.
func (db *DB) Index(name string) (*Index, error) {
	idx, err := db.reg.Lookup(name)
	if err != nil {
		return nil, err
	}
	meta, err := db.reg.Describe(name)
	if err != nil {
		return nil, err
	}
	return &Index{db: db, name: name, inner: idx, meta: meta}, nil
}

// IndexOn returns the index on column of table of the given kind ("" =
// any) that a statement reads through: an R-tree if there is one, and
// otherwise the first index created (see extidx.Registry.IndexOn). ok
// is false when there is none.
func (db *DB) IndexOn(table, column string, kind IndexKind) (ix *Index, ok bool) {
	idx, meta, ok := db.reg.IndexOn(table, column, kind)
	if !ok {
		return nil, false
	}
	return &Index{db: db, name: meta.IndexName, inner: idx, meta: meta}, true
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Inner exposes the domain index for the SQL layer's window path.
func (ix *Index) Inner() extidx.SpatialIndex { return ix.inner }

// Metadata describes a created index — its row in the index
// catalogue.
type Metadata = extidx.Metadata

// Meta returns the index metadata, including the table and column the
// index was created on.
func (ix *Index) Meta() Metadata { return ix.meta }

// rtree returns the backing R-tree or an error for other kinds.
func (ix *Index) rtree() (*rtree.Tree, error) {
	type treeHolder interface{ Tree() *rtree.Tree }
	if h, ok := ix.inner.(treeHolder); ok {
		return h.Tree(), nil
	}
	return nil, fmt.Errorf("spatialtf: index %q is not an R-tree", ix.name)
}

// IndexMetadata lists the index catalogue — one row per created index,
// in creation order. The error is always nil.
func (db *DB) IndexMetadata() ([]Metadata, error) {
	return db.reg.MetadataRows(), nil
}

// Relate evaluates the sdo_relate operator: rowids of rows in table
// whose geometry satisfies the mask against q, using the named index.
// Masks are the operator names of the paper ("anyinteract"/"intersect",
// "inside", "contains", "touch", "covers", "coveredby", "equal",
// "overlap").
func (db *DB) Relate(table, index string, q Geometry, mask string) ([]RowID, error) {
	m, err := geom.ParseMask(mask)
	if err != nil {
		return nil, err
	}
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	ix, err := db.Index(index)
	if err != nil {
		return nil, err
	}
	meta := ix.Meta()
	return extidx.Relate(ix.inner, t.inner, meta.ColumnName, q, m)
}

// Neighbor is one ranked nearest-neighbour result.
type Neighbor = extidx.Neighbor

// Nearest returns the k rows of table closest to q in exact geometry
// distance, ranked — the sdo_nn operator. The index must be an R-tree.
func (db *DB) Nearest(table, index string, q Geometry, k int) ([]Neighbor, error) {
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	ix, err := db.Index(index)
	if err != nil {
		return nil, err
	}
	return extidx.Nearest(ix.inner, t.inner, ix.Meta().ColumnName, q, k)
}

// WithinDistance evaluates the sdo_within_distance operator.
func (db *DB) WithinDistance(table, index string, q Geometry, d float64) ([]RowID, error) {
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	ix, err := db.Index(index)
	if err != nil {
		return nil, err
	}
	meta := ix.Meta()
	return extidx.WithinDistance(ix.inner, t.inner, meta.ColumnName, q, d)
}
