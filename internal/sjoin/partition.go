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

// gridTile holds the two per-tile entry lists, in xlo order. An entry
// is one copy of an input rectangle, unexpanded, with its class for the
// tile. Each side is placed in three passes (placeSide): a radix sort
// orders its items by low x (minXOrder), a counting pass sizes every
// tile's list, and the fill appends the copies in that order into one
// backing array cut into the tiles' lists, so every list comes out in
// sweep order and no tile is sorted. An unordered grid keeps one copy
// of each entry per tile: rb is ra, swept against itself.
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

// tileSpan is the column range [c0, c1] and row range [r0, r1] of the
// tiles that hold a copy of one rectangle. The grid has at most
// gridMaxTiles tiles, so the indices fit in int32.
type tileSpan struct{ c0, c1, r0, r1 int32 }

// span is the tileSpan of m widened by expand on every side.
func (g Grid) span(m geom.MBR, expand float64) tileSpan {
	return tileSpan{
		int32(g.ColOf(m.MinX - expand)), int32(g.ColOf(m.MaxX + expand)),
		int32(g.RowOf(m.MinY - expand)), int32(g.RowOf(m.MaxY + expand)),
	}
}

// minXKey is the order-preserving bit image of x: the keys compare as
// unsigned integers as the floats compare, with -0 just below +0.
// A negative float's bits are flipped, a non-negative one's sign bit
// set.
func minXKey(x float64) uint64 {
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// minXOrder returns the indices of items in ascending low-x order: a
// stable LSD radix sort of (minXKey, index) pairs, one byte a pass, so
// the 40-byte items never move. One counting walk builds all eight
// byte histograms; a pass whose byte is the same in every key would
// leave the order as it is and is skipped. O(n) with no worst case on
// clustered or duplicate keys.
func minXOrder(items []rtree.Item) []int32 {
	n := len(items)
	if n == 0 {
		return nil
	}
	keys, idx := make([]uint64, 2*n), make([]int32, 2*n)
	k0, k1 := keys[:n], keys[n:]
	i0, i1 := idx[:n], idx[n:]
	var hist [8][256]int
	for i := range items {
		k := minXKey(items[i].MBR.MinX)
		k0[i], i0[i] = k, int32(i)
		for p := range hist {
			hist[p][byte(k>>(8*p))]++
		}
	}
	for p := range hist {
		h := &hist[p]
		shift := 8 * p
		if h[byte(k0[0]>>shift)] == n {
			continue
		}
		at := 0
		for b, c := range h {
			h[b], at = at, at+c
		}
		for i, k := range k0 {
			b := byte(k >> shift)
			k1[h[b]], i1[h[b]] = k, i0[i]
			h[b]++
		}
		k0, k1, i0, i1 = k1, k0, i1, i0
	}
	return i0
}

// countGrid records in spans the tiles each item's copies go to, its
// MBR widened by expand — the sweep's growth of that side, by the same
// expressions — adds every tile's copies to counts (indexed like the
// dense tile array), and returns the total.
func countGrid(counts []int, spans []tileSpan, g Grid, items []rtree.Item, expand float64) int {
	total := 0
	for i := range items {
		s := g.span(items[i].MBR, expand)
		spans[i] = s
		for r := s.r0; r <= s.r1; r++ {
			row := counts[int(r)*g.Cols:]
			for c := s.c0; c <= s.c1; c++ {
				row[c]++
			}
		}
		total += int(s.c1-s.c0+1) * int(s.r1-s.r0+1)
	}
	return total
}

// assignGrid appends one side's items, in the order order, to the dense
// tile array, each copy to the tiles of the item's span, tagged with
// its class. The stored coordinates stay unexpanded. Every tile list
// has the capacity countGrid counted, so the appends never grow.
func assignGrid(dense []gridTile, g Grid, items []rtree.Item, spans []tileSpan, order []int32, sideA bool) {
	for _, i := range order {
		it, s := &items[i], spans[i]
		e := sweepEntry{MBR: it.MBR, id: it.ID}
		for r := s.r0; r <= s.r1; r++ {
			base := int(r) * g.Cols
			for c := s.c0; c <= s.c1; c++ {
				e.class = 0
				if c == s.c0 {
					e.class |= classXStart
				}
				if r == s.r0 {
					e.class |= classYStart
				}
				t := &dense[base+int(c)]
				if sideA {
					t.ra = append(t.ra, e)
				} else {
					t.rb = append(t.rb, e)
				}
			}
		}
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
	gs := &gridState{grid: g, d: d, grow: grow, unordered: unordered}
	// A one-sided tile can produce no pairs.
	gs.tiles = slices.DeleteFunc(placeTiles(g, itemsA, itemsB, grow, unordered), func(t gridTile) bool {
		return len(t.ra) == 0 || len(t.rb) == 0
	})
	longestFirst(gs.tiles, gridTile.cost)
	return gs
}

// placeTiles assigns the items of both sides, in any order, to the
// tiles of g: side A grown by grow, or — unordered — the one side grown
// by grow/2 and shared by both lists of every tile.
func placeTiles(g Grid, itemsA, itemsB []rtree.Item, grow float64, unordered bool) []gridTile {
	dense := make([]gridTile, g.Tiles())
	counts := make([]int, g.Tiles())
	if unordered {
		placeSide(dense, counts, g, itemsA, grow/2, true)
		for i := range dense {
			dense[i].rb = dense[i].ra
		}
		return dense
	}
	placeSide(dense, counts, g, itemsA, grow, true)
	clear(counts)
	placeSide(dense, counts, g, itemsB, 0, false)
	return dense
}

// placeSide places one side's items: order them by low x (minXOrder),
// count every tile's copies into the zeroed counts (countGrid), cut the
// tiles' lists out of one backing array with exactly that capacity, and
// fill them in low-x order (assignGrid) by the spans the count
// recorded, so each item's tile range is divided out once. The
// allocations are here, once a side, so the per-item passes only count
// and append.
func placeSide(dense []gridTile, counts []int, g Grid, items []rtree.Item, expand float64, sideA bool) {
	order := minXOrder(items)
	spans := make([]tileSpan, len(items))
	backing := make([]sweepEntry, countGrid(counts, spans, g, items, expand))
	off := 0
	for i, n := range counts {
		list := backing[off : off : off+n]
		if sideA {
			dense[i].ra = list
		} else {
			dense[i].rb = list
		}
		off += n
	}
	assignGrid(dense, g, items, spans, order, sideA)
}

// sweepTile sweeps one tile, calling emit once for every candidate pair
// the tile owns.
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
func (s gridSource) refill(j *JoinFunction) {
	for j.room() > 0 {
		ti := s.gs.claim()
		if ti < 0 {
			return
		}
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
