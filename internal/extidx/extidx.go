// Package extidx reproduces the Oracle extensible-indexing framework the
// paper builds on: domain indexes (here the spatial R-tree and Quadtree
// indextypes) are created on a column of a table through a registry,
// maintained automatically by table DML, described by a metadata row in
// the registry's catalogue, and queried through operators that — crucially —
// "only return rows from a single table". That restriction is why
// spatial joins could not be implemented inside the framework and had to
// move to table functions (§1 of the paper).
package extidx

import (
	"errors"
	"fmt"
	"sync"

	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

// IndexKind selects the spatial indextype.
type IndexKind string

// The two indextypes of Oracle Spatial.
const (
	KindRTree    IndexKind = "RTREE"
	KindQuadtree IndexKind = "QUADTREE"
)

// Params carries indextype-specific creation parameters, mirroring the
// PARAMETERS clause of CREATE INDEX ... INDEXTYPE IS mdsys.spatial_index.
type Params struct {
	// Fanout is the R-tree node capacity (0 selects the default).
	Fanout int
	// TilingLevel is the Quadtree fixed tiling level (sdo_level).
	TilingLevel int
	// Bounds is the indexed coordinate domain; required for Quadtrees,
	// optional for R-trees (used only for metadata).
	Bounds geom.MBR
	// BuildWorkers is the degree of parallelism for index creation —
	// the paper's "parallel clause". 0 or 1 builds sequentially.
	BuildWorkers int
	// InteriorEffort is recorded in the index metadata and range-checked
	// (at most 64), but builds nothing: the R-tree stores no interior
	// approximations. It stays because the catalogue and snapshot
	// formats carry it.
	InteriorEffort int
}

// Metadata is the per-index row of the registry's catalogue: name of the
// index, indexed table/column, indextype, and its parameters — the
// direct analogue of the paper's "metadata for the entire index is
// stored as a row in a separate metadata table. This metadata includes
// the name of the index table storing the index, dimensionality, root
// pointer fanout parameters for an R-tree and the tiling level parameter
// for a Quadtree index." The registry keeps these rows in memory, in
// creation order; a durable database persists them in catalog.bin.
type Metadata struct {
	IndexName   string
	TableName   string
	ColumnName  string
	Kind        IndexKind
	Dimensions  int
	Fanout      int
	TilingLevel int
	Bounds      geom.MBR
	// InteriorEffort is the effort the index was created with; see
	// Params.InteriorEffort.
	InteriorEffort int
	// RowsIndexed at creation time (maintenance updates the live index,
	// not this snapshot).
	RowsIndexed int
}

// SpatialIndex is the operator surface a domain index exposes. Primary-
// filter methods return candidate rowids of the indexed table only;
// exact (secondary-filter) evaluation happens in the query executor.
type SpatialIndex interface {
	// Meta returns the index metadata.
	Meta() Metadata
	// WindowCandidates returns rowids whose index approximation
	// interacts with the window MBR.
	WindowCandidates(w geom.MBR) []storage.RowID
	// DistCandidates returns rowids whose index approximation lies
	// within distance d of the window MBR.
	DistCandidates(w geom.MBR, d float64) []storage.RowID
	// InsertRow and DeleteRow are the DML-maintenance entry points.
	InsertRow(id storage.RowID, g geom.Geometry) error
	DeleteRow(id storage.RowID, g geom.Geometry) error
}

// Builder creates a SpatialIndex over the geometry column of a table.
// The rtree/quadtree adapter packages register one Builder each.
type Builder func(tab *storage.Table, geomCol int, p Params) (SpatialIndex, error)

// Registry tracks indextypes and created indexes, and owns the index
// catalogue.
type Registry struct {
	mu       sync.RWMutex
	builders map[IndexKind]Builder
	indexes  map[string]SpatialIndex
	metas    map[string]Metadata
	// names lists the indexes in creation order, the order of the
	// catalogue view (MetadataRows).
	names []string
}

// Registry errors.
var (
	ErrUnknownKind   = errors.New("extidx: unknown indextype")
	ErrDuplicateName = errors.New("extidx: index name already in use")
	ErrNoIndex       = errors.New("extidx: no such index")
)

// NewRegistry returns a registry with no indextypes registered.
func NewRegistry() *Registry {
	return &Registry{
		builders: make(map[IndexKind]Builder),
		indexes:  make(map[string]SpatialIndex),
		metas:    make(map[string]Metadata),
	}
}

// RegisterKind installs the builder for an indextype. Later
// registrations of the same kind replace earlier ones.
func (r *Registry) RegisterKind(kind IndexKind, b Builder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.builders[kind] = b
}

// indexHook adapts a SpatialIndex to the table's DML hook interface so
// inserts/updates on an indexed table "automatically trigger an update
// of the corresponding spatial indexes".
type indexHook struct {
	idx     SpatialIndex
	geomCol int
}

func (h *indexHook) RowInserted(id storage.RowID, row storage.Row) error {
	return h.idx.InsertRow(id, row[h.geomCol].G)
}

func (h *indexHook) RowDeleted(id storage.RowID, row storage.Row) error {
	return h.idx.DeleteRow(id, row[h.geomCol].G)
}

// CreateIndex builds an index of the given kind on tab.column, registers
// it under name, wires DML maintenance, and records the metadata row.
func (r *Registry) CreateIndex(name string, kind IndexKind, tab *storage.Table, column string, p Params) (SpatialIndex, error) {
	r.mu.Lock()
	builder, ok := r.builders[kind]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, kind)
	}
	if _, dup := r.indexes[name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	r.mu.Unlock()

	col, err := tab.ColumnIndex(column)
	if err != nil {
		return nil, err
	}
	if tab.Schema()[col].Type != storage.TGeometry {
		return nil, fmt.Errorf("extidx: column %q of %q is %v, not GEOMETRY", column, tab.Name(), tab.Schema()[col].Type)
	}
	idx, err := builder(tab, col, p)
	if err != nil {
		return nil, fmt.Errorf("extidx: create %q: %w", name, err)
	}
	meta := idx.Meta()
	meta.IndexName = name
	meta.TableName = tab.Name()
	meta.ColumnName = column

	r.mu.Lock()
	if _, dup := r.indexes[name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	r.indexes[name] = idx
	r.metas[name] = meta
	r.names = append(r.names, name)
	r.mu.Unlock()

	tab.AddHook(&indexHook{idx: idx, geomCol: col})
	return idx, nil
}

// Lookup returns the index registered under name.
func (r *Registry) Lookup(name string) (SpatialIndex, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	idx, ok := r.indexes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoIndex, name)
	}
	return idx, nil
}

// Describe returns the full (registry-enriched) metadata of an index,
// including its name and the table/column it was created on.
func (r *Registry) Describe(name string) (Metadata, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.metas[name]
	if !ok {
		return Metadata{}, fmt.Errorf("%w: %q", ErrNoIndex, name)
	}
	return m, nil
}

// IndexOn returns the index on column of table of the given kind ("" =
// any) that a statement reads through, from the in-memory metadata: an
// R-tree (the join-capable kind) if there is one — the last created —
// and otherwise the first index created. ok is false when there is
// none.
func (r *Registry) IndexOn(table, column string, kind IndexKind) (idx SpatialIndex, meta Metadata, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.names {
		m := r.metas[name]
		if m.TableName != table || m.ColumnName != column || kind != "" && m.Kind != kind {
			continue
		}
		if !ok || m.Kind == KindRTree {
			idx, meta, ok = r.indexes[name], m, true
		}
	}
	return idx, meta, ok
}

// MetadataRows returns the metadata of every index in creation order —
// the user-visible catalogue view, and the order a reopen rebuilds in.
func (r *Registry) MetadataRows() []Metadata {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Metadata, len(r.names))
	for i, name := range r.names {
		out[i] = r.metas[name]
	}
	return out
}
