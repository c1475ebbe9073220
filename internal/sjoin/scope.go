package sjoin

import "spatialtf/internal/geom"

// Cluster scoping: when a join runs as one shard of a scatter-gather
// cluster query, every shard holding replicas of both rows would report
// the pair. The same reference-point rule that dedups tiles inside the
// grid join dedups shards across the cluster — a pair is owned by the
// shard whose tile contains the bottom-left corner of the intersection
// of the first MBR (expanded by the join distance) with the second MBR.
// That corner lies inside the second row's MBR and within distance d of
// the first row's, so the owning shard is guaranteed to hold replicas
// of both rows as long as the cluster's replication margin covers d.
// The rule is applied where a pair is generated, at both granularities:
// inside the grid join as the tile class bits (partition.go), across
// shards as Config.Owns in JoinFunction.emit. The index MBRs it reads
// there are geom.MBROf of the rows — what every index build and every
// DML maintenance path stores in a leaf entry — so all shards, and the
// nested-loop reference that recomputes the MBR from the heap row,
// agree on the point.

// PairRefPoint returns the reference point of a join pair: the
// bottom-left corner of the intersection of a (expanded by d) with b.
// The caller guarantees the two MBRs interact within d, so the
// intersection is non-empty.
func PairRefPoint(a, b geom.MBR, d float64) (x, y float64) {
	x = a.MinX - d
	if b.MinX > x {
		x = b.MinX
	}
	y = a.MinY - d
	if b.MinY > y {
		y = b.MinY
	}
	return x, y
}
