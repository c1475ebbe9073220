package extidx

import (
	"fmt"
	"sync"

	"spatialtf/internal/geom"
	"spatialtf/internal/idxbuild"
	"spatialtf/internal/quadtree"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
)

// This file adapts the two spatial index implementations to the
// extensible-indexing SpatialIndex interface, making them the RTREE and
// QUADTREE indextypes of the registry. Index creation delegates to
// idxbuild, so the "parallel clause" (Params.BuildWorkers) drives the
// table-function-based parallel build of §5.

// RegisterDefaultKinds installs the RTREE and QUADTREE indextypes.
func RegisterDefaultKinds(r *Registry) {
	r.RegisterKind(KindRTree, BuildRTree)
	r.RegisterKind(KindQuadtree, BuildQuadtree)
}

// rtreeIndex adapts rtree.Tree.
type rtreeIndex struct {
	meta Metadata
	tree *rtree.Tree
}

// maxInteriorEffort caps Params.InteriorEffort, which is only
// recorded: it bounds what an index may record, from the API or from a
// catalogue row read back from disk.
const maxInteriorEffort = 64

// BuildRTree is the RTREE indextype builder.
func BuildRTree(tab *storage.Table, geomCol int, p Params) (SpatialIndex, error) {
	if p.InteriorEffort > maxInteriorEffort {
		return nil, fmt.Errorf("extidx: interior effort %d exceeds limit %d", p.InteriorEffort, maxInteriorEffort)
	}
	column := tab.Schema()[geomCol].Name
	tree, stats, err := idxbuild.CreateRtree(tab, column, p.Fanout, p.BuildWorkers)
	if err != nil {
		return nil, err
	}
	return &rtreeIndex{
		meta: Metadata{
			Kind:           KindRTree,
			Dimensions:     2,
			Fanout:         tree.MaxEntries(),
			Bounds:         tree.Bounds(),
			InteriorEffort: p.InteriorEffort,
			RowsIndexed:    stats.Rows,
		},
		tree: tree,
	}, nil
}

func (x *rtreeIndex) Meta() Metadata { return x.meta }

// Tree exposes the underlying R-tree for the join machinery (subtree
// enumeration, synchronized traversal).
func (x *rtreeIndex) Tree() *rtree.Tree { return x.tree }

func (x *rtreeIndex) WindowCandidates(w geom.MBR) []storage.RowID {
	var out []storage.RowID
	x.tree.Search(w, func(it rtree.Item) bool {
		out = append(out, it.ID)
		return true
	})
	return out
}

func (x *rtreeIndex) DistCandidates(w geom.MBR, d float64) []storage.RowID {
	var out []storage.RowID
	x.tree.SearchWithinDist(w, d, func(it rtree.Item) bool {
		out = append(out, it.ID)
		return true
	})
	return out
}

func (x *rtreeIndex) InsertRow(id storage.RowID, g geom.Geometry) error {
	return x.tree.Insert(rtree.Item{MBR: geom.MBROf(g), ID: id})
}

func (x *rtreeIndex) DeleteRow(id storage.RowID, g geom.Geometry) error {
	return x.tree.Delete(rtree.Item{MBR: geom.MBROf(g), ID: id})
}

// quadtreeIndex adapts quadtree.Index. A mutex serialises maintenance
// DML against queries (the underlying B-tree already allows concurrent
// readers; the mutex only orders whole-geometry updates, giving the
// statement-level atomicity extensible indexing promises).
type quadtreeIndex struct {
	meta Metadata
	mu   sync.Mutex
	idx  *quadtree.Index
}

// BuildQuadtree is the QUADTREE indextype builder. Params.Bounds and
// Params.TilingLevel are required.
func BuildQuadtree(tab *storage.Table, geomCol int, p Params) (SpatialIndex, error) {
	grid, err := quadtree.NewGrid(p.Bounds, p.TilingLevel)
	if err != nil {
		return nil, fmt.Errorf("extidx: quadtree params: %w", err)
	}
	column := tab.Schema()[geomCol].Name
	idx, stats, err := idxbuild.CreateQuadtree(tab, column, grid, p.BuildWorkers)
	if err != nil {
		return nil, err
	}
	return &quadtreeIndex{
		meta: Metadata{
			Kind:        KindQuadtree,
			Dimensions:  2,
			TilingLevel: grid.Level,
			Bounds:      grid.Bounds,
			RowsIndexed: stats.Rows,
		},
		idx: idx,
	}, nil
}

func (x *quadtreeIndex) Meta() Metadata { return x.meta }

func (x *quadtreeIndex) WindowCandidates(w geom.MBR) []storage.RowID {
	return x.idx.WindowCandidates(w)
}

func (x *quadtreeIndex) DistCandidates(w geom.MBR, d float64) []storage.RowID {
	// The fixed-level quadtree answers distance probes by expanding the
	// window; tile containment then over-approximates as usual.
	return x.idx.WindowCandidates(w.Expand(d))
}

func (x *quadtreeIndex) InsertRow(id storage.RowID, g geom.Geometry) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.idx.InsertGeometry(id, g)
}

func (x *quadtreeIndex) DeleteRow(id storage.RowID, g geom.Geometry) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.idx.DeleteGeometry(id, g)
}
