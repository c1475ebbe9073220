package sjoin

import (
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

// Cluster scoping: when a join runs as one shard of a scatter-gather
// cluster query, every shard holding replicas of both rows would report
// the pair. The same reference-point rule that dedups tiles inside the
// grid join dedups shards across the cluster — a pair is owned by the
// shard whose tile contains the bottom-left corner of the intersection
// of the first MBR (expanded by the join distance) with the second MBR.
// That corner lies inside the second row's MBR and within distance d of
// the first row's, so the owning shard is guaranteed to hold replicas
// of both rows as long as the cluster's replication margin covers d.

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

// scopedPairCursor filters a pair stream down to the pairs own() claims,
// resolving each pair's MBRs through the decoded-geometry cache (the
// secondary filter has typically just decoded them, so this is mostly
// cache hits).
type scopedPairCursor struct {
	src        storage.Cursor
	it         storage.RowIter
	a, b       *storage.Table
	colA, colB int
	d          float64
	cache      *GeomCache
	own        func(x, y float64) bool
}

// ScopedPairFilter wraps a join pair cursor so only pairs whose
// reference point satisfies own survive. cache may be nil (every probe
// then hits the base table).
func ScopedPairFilter(cur storage.Cursor, a, b Source, d float64, cache *GeomCache, own func(x, y float64) bool) (storage.Cursor, error) {
	colA, err := a.geomColumn()
	if err != nil {
		return nil, err
	}
	colB, err := b.geomColumn()
	if err != nil {
		return nil, err
	}
	return &scopedPairCursor{
		src: cur, a: a.Table, b: b.Table, colA: colA, colB: colB,
		d: d, cache: cache, own: own,
	}, nil
}

func (c *scopedPairCursor) Next() (storage.RowID, storage.Row, bool, error) {
	return c.it.Next(c)
}

// NextBatch implements storage.Cursor: the join fills the consumer's
// batch and the pairs this shard does not own are dropped from it in
// place.
func (c *scopedPairCursor) NextBatch(b *storage.Batch, max int) error {
	return storage.FilterBatch(c.src, b, max, c.owns)
}

// owns reports whether this shard reports the pair in row.
func (c *scopedPairCursor) owns(row storage.Row) (bool, error) {
	p, err := PairFromRow(row)
	if err != nil {
		return false, err
	}
	ga, _, err := cachedFetch(c.cache, c.a, c.colA, p.A)
	if err != nil {
		return false, err
	}
	gb, _, err := cachedFetch(c.cache, c.b, c.colB, p.B)
	if err != nil {
		return false, err
	}
	x, y := PairRefPoint(geom.MBROf(ga), geom.MBROf(gb), c.d)
	return c.own(x, y), nil
}

func (c *scopedPairCursor) Close() error { return c.src.Close() }
