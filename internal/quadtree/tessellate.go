package quadtree

import (
	"fmt"

	"spatialtf/internal/geom"
)

// Tessellate computes the fixed-level tile cover of g: every level-L
// tile whose cell rectangle interacts with the geometry. It descends the
// implicit quadtree from the root, pruning quadrants whose rectangle
// does not intersect the geometry — the standard tessellation used at
// quadtree index-creation time. The exact rectangle/geometry test runs
// at every visited quadrant, so cost grows with geometry size and
// boundary complexity: tessellation is most of a quadtree build, which
// is why "the Quadtree creation time is high compared to R-trees" for
// large complex polygons (EXPERIMENTS.md, Table 3). g is bounded once
// (geom.Bounded) so that those tests read its box instead of walking
// its vertices for it at every quadrant.
//
// The returned tiles are in ascending Morton order (a property of the
// depth-first quadrant order), which lets the index builder feed them to
// the B-tree bulk loader without re-sorting per geometry.
//
// A cover of more than maxTilesPerGeometry tiles is refused: the tiling
// level is a parameter that can arrive from SQL or from a catalogue row
// read back from disk, and a level far too fine for the data would
// otherwise turn index creation into an unbounded loop and allocation.
func Tessellate(grid Grid, g geom.Geometry) ([]Tile, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("quadtree: tessellate: %w", err)
	}
	g = geom.Bounded(g)
	mbr := geom.MBROf(g)
	if !grid.Bounds.Contains(mbr) {
		return nil, fmt.Errorf("quadtree: geometry %v outside grid bounds %v", mbr, grid.Bounds)
	}
	var tiles []Tile
	if !tessellateQuad(grid, g, mbr, 0, 0, 0, &tiles) {
		return nil, fmt.Errorf("quadtree: geometry %v covers more than %d level-%d tiles; use a coarser tiling level", mbr, maxTilesPerGeometry, grid.Level)
	}
	return tiles, nil
}

// maxTilesPerGeometry bounds one geometry's tile cover (8 MiB of tile
// codes). The finest level any workload here uses, 9, has 2^18 cells in
// the whole grid.
const maxTilesPerGeometry = 1 << 20

// tessellateQuad recursively covers the quadrant with cell origin
// (cx, cy) at the given depth (root quadrant spans the whole grid). It
// returns false once the cover outgrows maxTilesPerGeometry.
func tessellateQuad(grid Grid, g geom.Geometry, gmbr geom.MBR, depth int, cx, cy uint32, out *[]Tile) bool {
	quadCells := uint32(1) << uint(grid.Level-depth) // cells per side of this quadrant
	w, h := grid.CellSize()
	rect := geom.MBR{
		MinX: grid.Bounds.MinX + float64(cx)*w,
		MinY: grid.Bounds.MinY + float64(cy)*h,
		MaxX: grid.Bounds.MinX + float64(cx+quadCells)*w,
		MaxY: grid.Bounds.MinY + float64(cy+quadCells)*h,
	}
	// Cheap reject on the geometry MBR before the exact test.
	if !rect.Intersects(gmbr) {
		return true
	}
	if !rectInteracts(rect, g) {
		return true
	}
	if depth == grid.Level {
		*out = append(*out, grid.TileOf(cx, cy))
		return len(*out) <= maxTilesPerGeometry
	}
	half := quadCells / 2
	// Z-order: (0,0), (1,0), (0,1), (1,1) quadrants — morton order is
	// x-bit first, so iterate y-major over (dy, dx) with dx fastest.
	return tessellateQuad(grid, g, gmbr, depth+1, cx, cy, out) &&
		tessellateQuad(grid, g, gmbr, depth+1, cx+half, cy, out) &&
		tessellateQuad(grid, g, gmbr, depth+1, cx, cy+half, out) &&
		tessellateQuad(grid, g, gmbr, depth+1, cx+half, cy+half, out)
}

// rectInteracts reports whether the rectangle interacts with g, using
// the exact geometry predicates.
func rectInteracts(r geom.MBR, g geom.Geometry) bool {
	// Fast paths avoid building a polygon per probe for points.
	if g.Kind == geom.KindPoint {
		return r.ContainsPoint(g.Pts[0])
	}
	rect, err := geom.NewRect(r.MinX, r.MinY, r.MaxX, r.MaxY)
	if err != nil {
		return false
	}
	return geom.Intersects(rect, g)
}

// CoverWindow returns the tiles covering a query window rectangle. The
// window-query path uses it to decompose the window into tile probes.
func CoverWindow(grid Grid, w geom.MBR) []Tile {
	q := w.Intersect(grid.Bounds)
	if q.IsEmpty() {
		return nil
	}
	x0, y0 := grid.CellAt(geom.Point{X: q.MinX, Y: q.MinY})
	x1, y1 := grid.CellAt(geom.Point{X: q.MaxX, Y: q.MaxY})
	tiles := make([]Tile, 0, (x1-x0+1)*(y1-y0+1))
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			tiles = append(tiles, grid.TileOf(cx, cy))
		}
	}
	return tiles
}
