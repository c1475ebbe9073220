package geom_test

import (
	"slices"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/quadtree"
)

// Quadtree tessellation bounds its geometry once (geom.Bounded) before
// it descends; this is the differential that holds it to the covers of
// the unbounded geometry. It lives here, beside the geometry corpus.

// unboundedTiles is the cover quadtree.Tessellate computed before it
// bounded its geometry: the same depth-first descent and the same
// quadrant arithmetic, on g as it comes, so MBROf and the exact test
// walk g's vertices at every quadrant.
func unboundedTiles(grid quadtree.Grid, g geom.Geometry, depth int, cx, cy uint32, out []quadtree.Tile) []quadtree.Tile {
	cells := uint32(1) << uint(grid.Level-depth)
	w, h := grid.CellSize()
	r := geom.MBR{
		MinX: grid.Bounds.MinX + float64(cx)*w,
		MinY: grid.Bounds.MinY + float64(cy)*h,
		MaxX: grid.Bounds.MinX + float64(cx+cells)*w,
		MaxY: grid.Bounds.MinY + float64(cy+cells)*h,
	}
	if !r.Intersects(geom.MBROf(g)) {
		return out
	}
	if g.Kind == geom.KindPoint {
		if !r.ContainsPoint(g.Pts[0]) {
			return out
		}
	} else if rect, err := geom.NewRect(r.MinX, r.MinY, r.MaxX, r.MaxY); err != nil || !geom.Intersects(rect, g) {
		return out
	}
	if depth == grid.Level {
		return append(out, grid.TileOf(cx, cy))
	}
	half := cells / 2
	out = unboundedTiles(grid, g, depth+1, cx, cy, out)
	out = unboundedTiles(grid, g, depth+1, cx+half, cy, out)
	out = unboundedTiles(grid, g, depth+1, cx, cy+half, out)
	return unboundedTiles(grid, g, depth+1, cx+half, cy+half, out)
}

// TestTessellateBoundedSameTiles: at levels 5–9, Tessellate gives the
// tile list of the unbounded descent for every block group, county and
// star of the generators and every geometry of the corpus. The
// generated data sits on the datasets' world grid; each corpus
// geometry gets a grid 32 times its extent, offset off its corner,
// so its cover runs to many tiles at every level.
func TestTessellateBoundedSameTiles(t *testing.T) {
	type set struct {
		name  string
		geoms []geom.Geometry
		grid  func(g geom.Geometry) geom.MBR
	}
	world := func(geom.Geometry) geom.MBR { return datagen.World }
	sets := []set{
		{"blockgroups", datagen.BlockGroups(150, 1).Geoms, world},
		{"counties", datagen.Counties(100, 1).Geoms[:20], world},
		{"stars", datagen.Stars(300, 1).Geoms, world},
		{"corpus", geom.CorpusGeoms(t), func(g geom.Geometry) geom.MBR {
			m := geom.MBROf(g)
			side := 32 * max(m.Width(), m.Height(), 1e-6)
			return geom.MBR{MinX: m.MinX - side/3, MinY: m.MinY - side/5, MaxX: m.MinX - side/3 + side, MaxY: m.MinY - side/5 + side}
		}},
	}
	for _, s := range sets {
		tiles := 0
		for level := 5; level <= 9; level++ {
			for i, g := range s.geoms {
				grid, err := quadtree.NewGrid(s.grid(g), level)
				if err != nil {
					t.Fatal(err)
				}
				got, err := quadtree.Tessellate(grid, g)
				if err != nil {
					t.Fatalf("%s %d level %d: %v", s.name, i, level, err)
				}
				want := unboundedTiles(grid, g, 0, 0, 0, nil)
				if !slices.Equal(got, want) {
					t.Fatalf("%s %d level %d: %d tiles, want the unbounded descent's %d", s.name, i, level, len(got), len(want))
				}
				tiles += len(got)
			}
		}
		t.Logf("%s: %d geometries, %d tiles over levels 5-9", s.name, len(s.geoms), tiles)
	}
}
