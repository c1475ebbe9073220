package spatialtf

import (
	"spatialtf/internal/sjoin"
)

// ClusterScope restricts query evaluation to the results one shard of a
// space-partitioned cluster owns. The cluster lays a fixed Cols×Rows
// grid over the world bounds (the sjoin two-layer grid, reused as the
// ownership function); tile (col, row) belongs to shard
// (row*Cols+col) % NShards. Rows are replicated to every shard whose
// tiles their margin-grown MBR touches, so each shard can answer any
// query over its own tiles; a query scattered to all shards with
// per-shard scopes returns every result exactly once, because every
// result has exactly one reference point and that point lies in exactly
// one tile:
//
//   - plain scan: the clamped bottom-left corner of the row's MBR
//   - window/distance predicate: the bottom-left corner of the
//     intersection of the row's MBR with the query MBR expanded by the
//     search distance (a point inside the row's MBR, so no margin is
//     needed)
//   - join pair: the bottom-left corner of the intersection of the
//     first MBR expanded by the join distance with the second MBR
//     (inside the second row's MBR and within the join distance of the
//     first row's, so the replication margin must cover the distance)
//
// The zero ClusterScope is not valid; build one with NewClusterScope.
type ClusterScope struct {
	// Grid is the cluster's tile grid over the world bounds. All shards
	// and the coordinator must agree on it exactly.
	Grid sjoin.Grid
	// NShards is the cluster size; Shard is this scope's shard index in
	// [0, NShards).
	NShards int
	Shard   int
}

// NewClusterScope builds the scope of one shard of an n-shard cluster
// gridded cols×rows over bounds.
func NewClusterScope(bounds MBR, cols, rows, nShards, shard int) *ClusterScope {
	return &ClusterScope{
		Grid:    sjoin.NewGrid(bounds, cols, rows),
		NShards: nShards,
		Shard:   shard,
	}
}

// TileOwner returns the shard owning tile (col, row).
func (s *ClusterScope) TileOwner(col, row int) int {
	return (row*s.Grid.Cols + col) % s.NShards
}

// OwnsPoint reports whether the reference point (x, y) falls in a tile
// this shard owns. Coordinates outside the grid clamp to the border
// tiles, so ownership is total over the plane and identical on every
// shard.
func (s *ClusterScope) OwnsPoint(x, y float64) bool {
	return s.TileOwner(s.Grid.ColOf(x), s.Grid.RowOf(y)) == s.Shard
}

// OwnsMBR reports whether this shard owns a scanned row with the given
// MBR: the reference point of a plain scan is the MBR's bottom-left
// corner.
func (s *ClusterScope) OwnsMBR(m MBR) bool {
	return s.OwnsPoint(m.MinX, m.MinY)
}

// OwnsWindow reports whether this shard owns row MBR r as a result of a
// window/distance predicate with query MBR q and search distance d
// (0 for a pure relate). A window is a join of q against the row, so
// the reference point is the join pair (q, r)'s: the bottom-left corner
// of q.Expand(d) ∩ r, which lies inside r — so every shard holding a
// replica of r can evaluate this identically, margin-free.
func (s *ClusterScope) OwnsWindow(r, q MBR, d float64) bool {
	return s.OwnsPoint(sjoin.PairRefPoint(q, r, d))
}

// OwnsPair reports whether this shard owns join pair (a, b) under join
// distance d: the sjoin reference-point rule, shared with the in-grid
// A/B/C/D dedup.
func (s *ClusterScope) OwnsPair(a, b MBR, d float64) bool {
	return s.OwnsPoint(sjoin.PairRefPoint(a, b, d))
}
