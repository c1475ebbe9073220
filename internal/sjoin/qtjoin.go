package sjoin

import (
	"errors"
	"fmt"

	"spatialtf/internal/geom"
	"spatialtf/internal/quadtree"
	"spatialtf/internal/storage"
)

// QuadtreeJoin is the extension join over two linear quadtree indexes
// sharing a grid: the primary filter is a merge join of the two
// tile-code B-trees (rows sharing a tile become candidates), followed by
// the same two-stage evaluation as the R-tree join — the candidates
// pass through a JoinFunction. The paper focuses on R-tree joins but
// notes both indextypes; this completes the pairing.
//
// QSource names one quadtree join operand.
type QSource struct {
	Table  *storage.Table
	Column string
	Index  *quadtree.Index
}

// quadSource is the candidate source of the quadtree join: the
// deduplicated pair list of the tile merge join, handed to the
// evaluator a candidate array at a time.
type quadSource struct {
	pairs []Pair
	pos   int
}

func (s *quadSource) start() { s.pos = 0 }

func (s *quadSource) refill(j *JoinFunction) {
	n := min(len(s.pairs)-s.pos, j.room())
	for _, p := range s.pairs[s.pos : s.pos+n] {
		// Tile codes carry no MBRs, so the pair goes out with empty ones:
		// the zero MBR is a point at the origin, and two of them would
		// "prove" every pair sharing a tile. QuadtreeJoin has refused the
		// owner test that would need real ones.
		j.emit(p, geom.EmptyMBR(), geom.EmptyMBR(), false)
	}
	s.pos += n
}

// QuadtreeJoin evaluates the join and returns the result pairs.
// Within-distance joins are not supported: the tile merge join only
// surfaces pairs sharing a tile, which is incomplete for a distance
// predicate — use the R-tree join for those. Nor is a scoped join
// (Config.Owns): ownership is decided on index MBRs, which a tile code
// does not carry; the error wraps errors.ErrUnsupported.
func QuadtreeJoin(a, b QSource, cfg Config) ([]Pair, error) {
	if cfg.Distance > 0 {
		return nil, fmt.Errorf("sjoin: quadtree join does not support within-distance predicates")
	}
	if cfg.Owns != nil {
		return nil, fmt.Errorf("sjoin: quadtree join cannot restrict its result to a cluster scope: %w", errors.ErrUnsupported)
	}
	src := &quadSource{}
	fn, err := newJoinFn(Source{Table: a.Table, Column: a.Column}, Source{Table: b.Table, Column: b.Column}, cfg, src)
	if err != nil {
		return nil, err
	}
	// Primary filter: tile merge join, deduped (a pair sharing several
	// tiles appears once).
	seen := map[Pair]bool{}
	err = quadtree.TilePairs(a.Index, b.Index, func(ida, idb storage.RowID) bool {
		seen[Pair{A: ida, B: idb}] = true
		return true
	})
	if err != nil {
		return nil, err
	}
	src.pairs = make([]Pair, 0, len(seen))
	for p := range seen {
		src.pairs = append(src.pairs, p)
	}
	return CollectPairs(pipeline(fn, cfg))
}
