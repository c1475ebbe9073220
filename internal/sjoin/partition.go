package sjoin

import (
	"math"
	"slices"
	"sync/atomic"

	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
)

// This file implements the grid-partitioned parallel join: a uniform
// W×H grid over the joint extent of both inputs, a per-tile plane sweep
// as the primary filter, and parallel table-function instances that
// claim tiles off a shared longest-first queue, as the §4.1 instances
// claim subtree pairs. To the evaluator it is one more candidate
// source: gridSource refills the candidate array of a JoinFunction from
// the tiles it claims.
//
// Replicated rectangles would produce duplicate result pairs, so each
// copy of an entry is tagged with its two-layer class for that tile
// (Tsitsigkos et al., "Two-layer Space-oriented Partitioning for
// Non-point Data"): whether the entry's low-x and low-y coordinates
// fall inside the tile. A pair is reported by the one tile that
// contains the bottom-left corner of the pair's MBR intersection, which
// is exactly the tile where the classes of the two entries OR to
// "both starts present" — one bit test per candidate pair, no
// reference-point arithmetic and no global dedup pass.

// Entry classes. classXStart marks a copy whose (distance-expanded) low
// x lies in the tile's column; classYStart the same for low y and the
// tile's row. The four A/B/C/D classes of the paper are the four bit
// combinations: A = both (the MBR starts in this tile), B = y only
// (entered from the west), C = x only (entered from the south),
// D = neither (entered diagonally).
const (
	classXStart uint8 = 1
	classYStart uint8 = 2
	// classBoth is the acceptance mask: a candidate pair is emitted in
	// the tile where the ORed classes cover both starts.
	classBoth uint8 = classXStart | classYStart
)

// Grid is the uniform partitioning of the joint extent.
type Grid struct {
	Bounds     geom.MBR
	Cols, Rows int

	cellW, cellH float64
}

// NewGrid partitions bounds into cols×rows equal tiles.
func NewGrid(bounds geom.MBR, cols, rows int) Grid {
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return Grid{
		Bounds: bounds,
		Cols:   cols,
		Rows:   rows,
		cellW:  (bounds.MaxX - bounds.MinX) / float64(cols),
		cellH:  (bounds.MaxY - bounds.MinY) / float64(rows),
	}
}

// ColOf returns the column containing x, clamped to the grid. Tiles are
// half-open ([lo, hi)) so every coordinate maps to exactly one tile;
// clamping keeps the class algebra consistent for coordinates at or
// beyond the boundary (everything left of the grid "starts" in
// column 0, everything right of it in the last column). The clamping
// also makes ColOf/RowOf a total ownership function over the plane,
// which is what the cluster layer shards reference points by.
func (g Grid) ColOf(x float64) int {
	return cellOf(x-g.Bounds.MinX, g.cellW, g.Cols)
}

// RowOf returns the row containing y, clamped to the grid.
func (g Grid) RowOf(y float64) int {
	return cellOf(y-g.Bounds.MinY, g.cellH, g.Rows)
}

// cellOf is the clamped index of offset off on an axis of n cells of
// width w. It clamps in floating point, before converting: a quotient
// beyond the int range (a huge or infinite offset) converts to an
// arbitrary int, so +Inf would land in cell 0. NaN clamps to cell 0.
func cellOf(off, w float64, n int) int {
	if !(w > 0) {
		return 0
	}
	q := off / w
	if !(q > 0) {
		return 0
	}
	if q >= float64(n) {
		return n - 1
	}
	return int(q)
}

// Tiles returns the tile count.
func (g Grid) Tiles() int { return g.Cols * g.Rows }

// Grid sizing: enough tiles that dynamic claiming can balance skew
// (several tiles per worker) without shrinking tiles so far that
// replication dominates.
const (
	// gridTargetPerTile is the combined input cardinality one tile aims
	// to hold.
	gridTargetPerTile = 128
	// gridTilesPerWorker is the minimum tile-to-worker ratio; dynamic
	// claiming needs a margin of tiles per instance to smooth skew.
	gridTilesPerWorker = 8
	// gridMaxTiles caps the grid so tiny inputs with many workers don't
	// allocate a huge, mostly-empty grid.
	gridMaxTiles = 1 << 14
)

// GridShape picks the grid dimensions from the input cardinalities and
// the worker count: the larger of (input size / target tile load) and
// (a few tiles per worker), capped, as a square grid.
func GridShape(nA, nB, workers int) (cols, rows int) {
	workers = normWorkers(workers)
	t := (nA + nB) / gridTargetPerTile
	if m := workers * gridTilesPerWorker; t < m {
		t = m
	}
	if t > gridMaxTiles {
		t = gridMaxTiles
	}
	if t < 1 {
		t = 1
	}
	side := int(math.Ceil(math.Sqrt(float64(t))))
	return side, side
}

// gridTile holds the two per-tile entry lists, in xlo order (the inputs
// are sorted once globally before assignment, so appends preserve sweep
// order and no per-tile sort is needed). An entry is one copy of an
// input rectangle, unexpanded, with its class for the tile. An
// unordered grid keeps one copy of each entry per tile: rb is ra, swept
// against itself.
type gridTile struct {
	ra, rb []sweepEntry
}

// cost estimates a tile's sweep work for the longest-first queue order.
func (t gridTile) cost() float64 {
	return float64(len(t.ra)) * float64(len(t.rb))
}

// gridState is the shared state of one grid join: the tile queue in
// longest-first order and the atomic claim cursor the parallel
// instances steal tiles from.
type gridState struct {
	grid Grid
	d    float64 // join distance
	// grow is sweepGrow of the operands: the first side is placed and
	// swept grown by it.
	grow float64
	// unordered: the mirror mode's grid, one copy of each entry placed
	// by its MBR grown by grow/2, each tile swept against itself in the
	// sweep's self mode.
	unordered bool
	tiles     []gridTile
	next      atomic.Int64
}

// claim steals the next unclaimed tile index, or -1 when the queue is
// exhausted (claimNext).
func (gs *gridState) claim() int {
	return claimNext(&gs.next, len(gs.tiles))
}

// assignGrid appends one side's items to the dense tile array, tagging
// each copy with its class. expand widens the rectangles for tile
// assignment and class computation — the sweep's growth of that side,
// by the same expressions; the stored coordinates stay unexpanded.
//
//spatiallint:hot
func assignGrid(dense []gridTile, g Grid, items []rtree.Item, expand float64, sideA bool) {
	for _, it := range items {
		c0 := g.ColOf(it.MBR.MinX - expand)
		c1 := g.ColOf(it.MBR.MaxX + expand)
		r0 := g.RowOf(it.MBR.MinY - expand)
		r1 := g.RowOf(it.MBR.MaxY + expand)
		e := sweepEntry{MBR: it.MBR, id: it.ID}
		for r := r0; r <= r1; r++ {
			base := r * g.Cols
			for c := c0; c <= c1; c++ {
				e.class = 0
				if c == c0 {
					e.class |= classXStart
				}
				if r == r0 {
					e.class |= classYStart
				}
				t := &dense[base+c]
				if sideA {
					t.ra = append(t.ra, e)
				} else {
					t.rb = append(t.rb, e)
				}
			}
		}
	}
}

// byMinX orders items for the global pre-assignment sort; per-tile
// lists inherit the order, which is what the tile sweep requires.
func byMinX(p, q rtree.Item) int {
	switch {
	case p.MBR.MinX < q.MBR.MinX:
		return -1
	case p.MBR.MinX > q.MBR.MinX:
		return 1
	default:
		return 0
	}
}

// buildGridState materialises both inputs, sizes the grid, assigns and
// classifies every rectangle, and queues the non-empty tiles longest
// first. With either side empty the queue is empty (so is the join).
//
// Under the mirror mode (UnorderedPairs) the one input is assigned once,
// each MBR grown by grow/2 on every side. Two MBRs within distance d
// have overlapping half-grown boxes, and the low corner of that
// overlap is the same for (a, b) and (b, a), so the class test reports
// each unordered pair in exactly one tile (DESIGN.md §21).
func buildGridState(a, b Source, cfg Config, workers int) *gridState {
	unordered := UnorderedPairs(a, b, cfg)
	itemsA := a.Tree.Items()
	itemsB := itemsA
	if a.Tree != b.Tree {
		itemsB = b.Tree.Items()
	}
	if len(itemsA) == 0 || len(itemsB) == 0 {
		return &gridState{}
	}
	d := cfg.Distance
	grow := sweepGrow(d, a.Tree.Bounds(), b.Tree.Bounds())
	bounds := a.Tree.Bounds().Expand(grow).Union(b.Tree.Bounds())
	if unordered {
		bounds = a.Tree.Bounds().Expand(grow / 2)
	}
	cols, rows := GridShape(len(itemsA), len(itemsB), workers)
	if cfg.GridTiles > 0 {
		t := cfg.GridTiles
		if t > gridMaxTiles {
			t = gridMaxTiles
		}
		side := int(math.Ceil(math.Sqrt(float64(t))))
		cols, rows = side, side
	}
	g := NewGrid(bounds, cols, rows)
	slices.SortFunc(itemsA, byMinX)
	if a.Tree != b.Tree {
		slices.SortFunc(itemsB, byMinX)
	}
	gs := &gridState{grid: g, d: d, grow: grow, unordered: unordered}
	for _, t := range placeTiles(g, itemsA, itemsB, grow, unordered) {
		if len(t.ra) == 0 || len(t.rb) == 0 {
			continue // a one-sided tile can produce no pairs
		}
		gs.tiles = append(gs.tiles, t)
	}
	longestFirst(gs.tiles, gridTile.cost)
	return gs
}

// placeTiles assigns the xlo-sorted items of both sides to the tiles of
// g: side A grown by grow, or — unordered — the one side grown by
// grow/2 and shared by both lists of every tile.
func placeTiles(g Grid, itemsA, itemsB []rtree.Item, grow float64, unordered bool) []gridTile {
	dense := make([]gridTile, g.Tiles())
	if unordered {
		assignGrid(dense, g, itemsA, grow/2, true)
		for i := range dense {
			dense[i].rb = dense[i].ra
		}
		return dense
	}
	assignGrid(dense, g, itemsA, grow, true)
	assignGrid(dense, g, itemsB, 0, false)
	return dense
}

// sweepTile sweeps one tile, calling emit once for every candidate pair
// the tile owns.
//
//spatiallint:hot
func (gs *gridState) sweepTile(t *gridTile, emit func(a, b *sweepEntry)) {
	sweep(t.ra, t.rb, gs.grow, gs.d, gs.unordered, emit)
}

// gridSource is the candidate source of one grid-join instance: it
// steals tiles from the shared state and sweeps each into the
// evaluator's candidate array.
type gridSource struct {
	gs *gridState
}

// start is a no-op: the grid state is prebuilt and its claim cursor is
// shared, so instances start empty-handed.
func (s gridSource) start() {}

// refill claims and sweeps tiles until the refill has no room left or
// the queue is exhausted. A tile is swept whole, so the candidate array
// and the ready queue can overshoot CandidateCap by one tile's pairs.
//
//spatiallint:hot
func (s gridSource) refill(j *JoinFunction) {
	for j.room() > 0 {
		ti := s.gs.claim()
		if ti < 0 {
			return
		}
		//spatiallint:ignore hotalloc span closure only allocates when a telemetry sink is attached, once per tile sweep not per row
		end := j.span(telemetry.StageTileSweep)
		s.gs.sweepTile(&s.gs.tiles[ti], func(a, b *sweepEntry) {
			j.emit(Pair{A: a.id, B: b.id}, a.MBR, b.MBR)
		})
		end()
		j.stats.TilesSwept++
	}
}

// GridParallelJoin evaluates the spatial join on the grid-partitioned
// parallel path: build and classify the grid once, then run `workers`
// table-function instances that steal tiles dynamically. The returned
// cursor merges the instances' pipelined outputs (order unspecified);
// the result-pair set is identical to the other join paths.
func GridParallelJoin(a, b Source, cfg Config, workers int) (storage.Cursor, error) {
	cfg, workers, err := prepareInstances(a, b, cfg, workers)
	if err != nil {
		return nil, err
	}
	endPart := stageSpan(cfg.Instr, cfg.Trace, telemetry.StageGridPartition)
	gs := buildGridState(a, b, cfg, workers)
	endPart()
	return runInstances(a, b, cfg, min(workers, len(gs.tiles)), func(int) candSource {
		return gridSource{gs}
	}), nil
}
