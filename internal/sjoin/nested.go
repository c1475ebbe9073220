package sjoin

import (
	"fmt"

	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
)

// NestedLoop evaluates the join with the pre-table-function strategy the
// paper measures as the baseline: "iterate on the first table ...
// performing a spatial query on the second table using each geometry in
// the first table". Each outer row runs an index-assisted sdo_relate
// probe (primary filter on b's R-tree, then the exact predicate).
//
// It shares no code with JoinFunction on purpose: it is the reference
// implementation the sjoin tests and the benchmark's answer oracle
// compare every other path against, so it keeps its own fetch and
// predicate loop.
func NestedLoop(a, b Source, cfg Config) ([]Pair, error) {
	pairs, _, err := NestedLoopStats(a, b, cfg)
	return pairs, err
}

// NestedLoopStats is NestedLoop reporting work counters. NodeAccesses
// counts every inner-index node visited across all probes; repeated
// descents are counted each time, because a disk-resident execution
// pays a buffer get for each — this is the cost structure that makes
// the paper's nested loop ~6x slower than the tree join at scale.
func NestedLoopStats(a, b Source, cfg Config) ([]Pair, JoinStats, error) {
	cfg = cfg.WithDefaults()
	var stats JoinStats
	colA, err := a.geomColumn()
	if err != nil {
		return nil, stats, err
	}
	colB, err := b.geomColumn()
	if err != nil {
		return nil, stats, err
	}
	cache := cfg.resolveCache()
	var pairs []Pair
	var probeErr error
	// The outer table is read through a cursor, which holds its heap's
	// lock only while it reads a page: a scan holding it across the
	// probes would take it again for a self-join's inner fetch, and a
	// writer queued between the two would deadlock them.
	cur := storage.NewCursor(a.Table)
	defer cur.Close()
	for probeErr == nil {
		idA, row, ok, err := cur.Next()
		if err != nil {
			return nil, stats, err
		}
		if !ok {
			break
		}
		gA := row[colA].G
		mA := geom.MBROf(gA)
		probe := func(it rtree.Item) bool {
			if cfg.Owns != nil && !cfg.Owns(PairRefPoint(mA, it.MBR, cfg.Distance)) {
				return true // another shard reports this pair
			}
			stats.Candidates++
			gB, hit, live, err := cachedFetch(cache, b.Table, colB, it.ID)
			if err != nil {
				probeErr = fmt.Errorf("sjoin: nested loop fetch %v: %w", it.ID, err)
				return false
			}
			if !live {
				// The oracle reads a quiet table: an index entry whose
				// row is gone is a fault, not a concurrent delete.
				probeErr = fmt.Errorf("sjoin: nested loop fetch %v: the index names a deleted row", it.ID)
				return false
			}
			if hit {
				stats.CacheHits++
			} else {
				stats.GeomFetches++
				if cache != nil {
					stats.CacheMisses++
				}
			}
			if cfg.secondaryAccepts(gA, gB) {
				pairs = append(pairs, Pair{A: idA, B: it.ID})
				stats.Results++
			}
			return true
		}
		if cfg.Distance > 0 {
			stats.NodeAccesses += b.Tree.SearchWithinDistCounted(mA, cfg.Distance, probe)
		} else {
			stats.NodeAccesses += b.Tree.SearchCounted(mA, probe)
		}
	}
	if probeErr != nil {
		return nil, stats, probeErr
	}
	return pairs, stats, nil
}
