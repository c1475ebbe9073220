package quadtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spatialtf/internal/btree"
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

func testGrid(t testing.TB, level int) Grid {
	t.Helper()
	g, err := NewGrid(geom.MBR{MinX: 0, MinY: 0, MaxX: 1024, MaxY: 1024}, level)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return g
}

func rid(i int) storage.RowID {
	return storage.RowID{Page: uint32(i/1000 + 1), Slot: uint16(i % 1000)}
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(geom.EmptyMBR(), 4); err == nil {
		t.Errorf("empty bounds: want error")
	}
	if _, err := NewGrid(geom.MBR{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 0); err == nil {
		t.Errorf("level 0: want error")
	}
	if _, err := NewGrid(geom.MBR{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, MaxLevel+1); err == nil {
		t.Errorf("level too deep: want error")
	}
}

func TestMortonRoundTrip(t *testing.T) {
	f := func(x, y uint32) bool {
		gx, gy := demorton(morton(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMortonOrderIsZOrder(t *testing.T) {
	// The four children of a quad appear in the order
	// (0,0), (1,0), (0,1), (1,1).
	codes := []uint64{morton(0, 0), morton(1, 0), morton(0, 1), morton(1, 1)}
	for i := 1; i < len(codes); i++ {
		if codes[i-1] >= codes[i] {
			t.Fatalf("morton codes not in Z order: %v", codes)
		}
	}
}

func TestGridCells(t *testing.T) {
	g := testGrid(t, 4) // 16x16 grid, 64-unit cells
	if g.Side() != 16 {
		t.Fatalf("Side = %d", g.Side())
	}
	w, h := g.CellSize()
	if w != 64 || h != 64 {
		t.Fatalf("CellSize = %g, %g", w, h)
	}
	cx, cy := g.CellAt(geom.Point{X: 100, Y: 700})
	if cx != 1 || cy != 10 {
		t.Errorf("CellAt = %d, %d", cx, cy)
	}
	// Clamping at and past the upper edge.
	cx, cy = g.CellAt(geom.Point{X: 1024, Y: 2000})
	if cx != 15 || cy != 15 {
		t.Errorf("clamped CellAt = %d, %d", cx, cy)
	}
	cx, cy = g.CellAt(geom.Point{X: -5, Y: -5})
	if cx != 0 || cy != 0 {
		t.Errorf("negative CellAt = %d, %d", cx, cy)
	}
	// TileRect inverts CellAt for cell corners.
	tile := g.TileOf(3, 7)
	r := g.TileRect(tile)
	want := geom.MBR{MinX: 192, MinY: 448, MaxX: 256, MaxY: 512}
	if r != want {
		t.Errorf("TileRect = %v, want %v", r, want)
	}
	bx, by := g.CellOf(tile)
	if bx != 3 || by != 7 {
		t.Errorf("CellOf = %d, %d", bx, by)
	}
}

func TestTessellatePoint(t *testing.T) {
	g := testGrid(t, 6)
	tiles, err := Tessellate(g, geom.NewPoint(100, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(tiles) != 1 {
		t.Fatalf("point tessellation = %d tiles", len(tiles))
	}
	r := g.TileRect(tiles[0])
	if !r.ContainsPoint(geom.Point{X: 100, Y: 100}) {
		t.Errorf("tile %v does not contain the point", r)
	}
}

func TestTessellateRect(t *testing.T) {
	g := testGrid(t, 4) // 64-unit cells
	// A rect spanning exactly cells (1..2, 1..2) interior.
	rect, err := geom.NewRect(70, 70, 190, 190)
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := Tessellate(g, rect)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiles) != 4 {
		t.Fatalf("rect tessellation = %d tiles, want 4", len(tiles))
	}
	// Tiles must come back in ascending Morton order.
	for i := 1; i < len(tiles); i++ {
		if tiles[i-1] >= tiles[i] {
			t.Errorf("tiles out of Morton order: %v", tiles)
		}
	}
	// Every returned tile must intersect the rect; every rect cell must
	// be present.
	for _, tile := range tiles {
		if g.TileRect(tile).Dist(geom.MBROf(rect)) > 0 {
			t.Errorf("tile %v disjoint from the rect", tile)
		}
	}
}

func TestTessellateRespectsShape(t *testing.T) {
	g := testGrid(t, 5) // 32-unit cells
	// A thin diagonal triangle: its MBR covers many cells but the shape
	// touches far fewer. Tessellation must be shape-exact, not MBR-based.
	tri, err := geom.NewPolygon([]geom.Point{{X: 0, Y: 0}, {X: 1024, Y: 0}, {X: 1024, Y: 32}})
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := Tessellate(g, tri)
	if err != nil {
		t.Fatal(err)
	}
	mbrCells := int(g.Side()) * int(g.Side())
	if len(tiles) >= mbrCells/2 {
		t.Errorf("thin triangle covered %d of %d cells; tessellation ignores shape", len(tiles), mbrCells)
	}
	// The corner far from the hypotenuse must not be covered.
	farTile := g.TileOf(0, 31)
	for _, tile := range tiles {
		if tile == farTile {
			t.Errorf("far corner tile covered")
		}
	}
}

func TestTessellateOutsideGrid(t *testing.T) {
	g := testGrid(t, 4)
	out, _ := geom.NewRect(2000, 2000, 3000, 3000)
	if _, err := Tessellate(g, out); err == nil {
		t.Errorf("geometry outside grid: want error")
	}
	var invalid geom.Geometry
	if _, err := Tessellate(g, invalid); err == nil {
		t.Errorf("invalid geometry: want error")
	}
	// A level far too fine for the geometry fails typed instead of
	// tiling without bound: 2^22 cells here against a 2^20 cap.
	big, _ := geom.NewRect(0, 0, 1024, 1024)
	if _, err := Tessellate(testGrid(t, 11), big); err == nil {
		t.Errorf("cover past maxTilesPerGeometry: want error")
	}
}

func TestCoverWindow(t *testing.T) {
	g := testGrid(t, 4)
	tiles := CoverWindow(g, geom.MBR{MinX: 70, MinY: 70, MaxX: 190, MaxY: 190})
	if len(tiles) != 4 {
		t.Fatalf("CoverWindow = %d tiles, want 4", len(tiles))
	}
	// Window outside the grid covers nothing.
	if got := CoverWindow(g, geom.MBR{MinX: 5000, MinY: 5000, MaxX: 6000, MaxY: 6000}); got != nil {
		t.Errorf("out-of-grid window = %v", got)
	}
	// Window clipped to the grid.
	tiles = CoverWindow(g, geom.MBR{MinX: -100, MinY: -100, MaxX: 10, MaxY: 10})
	if len(tiles) != 1 {
		t.Errorf("clipped window = %d tiles", len(tiles))
	}
}

// randomRectGeom returns a random rectangle geometry within the grid.
func randomRectGeom(t testing.TB, rng *rand.Rand) geom.Geometry {
	x := rng.Float64() * 950
	y := rng.Float64() * 950
	w := rng.Float64()*60 + 1
	h := rng.Float64()*60 + 1
	if x+w > 1024 {
		w = 1024 - x
	}
	if y+h > 1024 {
		h = 1024 - y
	}
	r, err := geom.NewRect(x, y, x+w, y+h)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestIndexWindowQueryEqualsLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	grid := testGrid(t, 6)
	idx := NewIndex(grid)
	geoms := make([]geom.Geometry, 400)
	for i := range geoms {
		geoms[i] = randomRectGeom(t, rng)
		if err := idx.InsertGeometry(rid(i), geoms[i]); err != nil {
			t.Fatalf("InsertGeometry %d: %v", i, err)
		}
	}
	if idx.EntryCount() == 0 {
		t.Fatal("no index entries")
	}
	for trial := 0; trial < 30; trial++ {
		w := geom.MBROf(randomRectGeom(t, rng))
		window, err := geom.NewRect(w.MinX, w.MinY, w.MaxX, w.MaxY)
		if err != nil {
			t.Fatal(err)
		}
		// Exact expected: all geometries intersecting the window.
		want := map[storage.RowID]bool{}
		for i, g := range geoms {
			if geom.Intersects(g, window) {
				want[rid(i)] = true
			}
		}
		// Primary filter must be a superset; after the secondary filter
		// the result must match exactly.
		cands := idx.WindowCandidates(w)
		candSet := map[storage.RowID]bool{}
		for _, id := range cands {
			candSet[id] = true
		}
		for id := range want {
			if !candSet[id] {
				t.Fatalf("trial %d: candidate set missing true hit %v", trial, id)
			}
		}
		got := map[storage.RowID]bool{}
		for _, id := range cands {
			i := int(id.Page-1)*1000 + int(id.Slot)
			if geom.Intersects(geoms[i], window) {
				got[id] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
	}
}

func TestIndexDeleteGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	grid := testGrid(t, 6)
	idx := NewIndex(grid)
	gs := make([]geom.Geometry, 50)
	for i := range gs {
		gs[i] = randomRectGeom(t, rng)
		idx.InsertGeometry(rid(i), gs[i])
	}
	before := idx.EntryCount()
	for i := 0; i < 25; i++ {
		if err := idx.DeleteGeometry(rid(i), gs[i]); err != nil {
			t.Fatalf("DeleteGeometry %d: %v", i, err)
		}
	}
	if idx.EntryCount() >= before {
		t.Errorf("EntryCount %d not reduced from %d", idx.EntryCount(), before)
	}
	// Deleted rows must no longer appear as candidates anywhere.
	cands := idx.WindowCandidates(grid.Bounds)
	for _, id := range cands {
		if int(id.Page-1)*1000+int(id.Slot) < 25 {
			t.Errorf("deleted row %v still a candidate", id)
		}
	}
	// Deleting a non-indexed row errors.
	if err := idx.DeleteGeometry(rid(999), gs[0].Translate(1, 1)); err == nil {
		t.Errorf("delete of unindexed row: want error")
	}
}

func TestNewIndexFromEntriesMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	grid := testGrid(t, 6)
	inc := NewIndex(grid)
	var bulkEntries []btree.Entry
	for i := 0; i < 200; i++ {
		g := randomRectGeom(t, rng)
		inc.InsertGeometry(rid(i), g)
		// Key each covering tile to the row, as the parallel index
		// builder's tessellation table function does.
		tiles, err := Tessellate(grid, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, tile := range tiles {
			bulkEntries = append(bulkEntries, btree.Entry{Key: Key(tile, rid(i))})
		}
	}
	for _, workers := range []int{1, 2, 4} {
		bulk := NewIndexFromEntries(grid, append([]btree.Entry(nil), bulkEntries...), workers)
		if bulk.EntryCount() != inc.EntryCount() {
			t.Fatalf("workers=%d: entry counts %d vs %d", workers, bulk.EntryCount(), inc.EntryCount())
		}
		for trial := 0; trial < 10; trial++ {
			w := geom.MBROf(randomRectGeom(t, rng))
			a := idSet(bulk.WindowCandidates(w))
			b := idSet(inc.WindowCandidates(w))
			if len(a) != len(b) {
				t.Fatalf("workers=%d trial %d: candidates %d vs %d", workers, trial, len(a), len(b))
			}
			for id := range a {
				if !b[id] {
					t.Fatalf("workers=%d: candidate sets differ at %v", workers, id)
				}
			}
		}
	}
}

func idSet(ids []storage.RowID) map[storage.RowID]bool {
	m := make(map[storage.RowID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func TestTessellationLevelGrowth(t *testing.T) {
	// Deeper levels produce at least as many tiles for the same shape;
	// this is the tiling-level cost/precision trade-off the ablation
	// bench sweeps.
	shape, err := geom.NewPolygon([]geom.Point{{X: 100, Y: 100}, {X: 400, Y: 150}, {X: 350, Y: 400}, {X: 120, Y: 300}})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for level := 3; level <= 8; level++ {
		g := testGrid(t, level)
		tiles, err := Tessellate(g, shape)
		if err != nil {
			t.Fatal(err)
		}
		if len(tiles) < prev {
			t.Errorf("level %d has %d tiles, fewer than level %d's %d", level, len(tiles), level-1, prev)
		}
		prev = len(tiles)
	}
}

// Property: tessellation tiles are exactly the cells whose rectangles
// interact with the geometry (checked by brute force on a small grid).
func TestTessellateBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	grid := testGrid(t, 4)
	for trial := 0; trial < 30; trial++ {
		g := randomRectGeom(t, rng)
		tiles, err := Tessellate(grid, g)
		if err != nil {
			t.Fatal(err)
		}
		set := map[Tile]bool{}
		for _, tile := range tiles {
			set[tile] = true
		}
		side := grid.Side()
		for cy := uint32(0); cy < side; cy++ {
			for cx := uint32(0); cx < side; cx++ {
				tile := grid.TileOf(cx, cy)
				r := grid.TileRect(tile)
				want := rectInteracts(r, g)
				if set[tile] != want {
					t.Fatalf("trial %d: cell (%d,%d) cover=%v want=%v", trial, cx, cy, set[tile], want)
				}
			}
		}
	}
}

// Property: CoverWindow of a rectangle equals Tessellate of the same
// rectangle as a polygon — the window decomposition and the data
// tessellation agree on the tiling.
func TestCoverWindowMatchesTessellation(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	grid := testGrid(t, 5)
	for trial := 0; trial < 40; trial++ {
		g := randomRectGeom(t, rng)
		m := geom.MBROf(g)
		fromCover := CoverWindow(grid, m)
		fromTess, err := Tessellate(grid, g)
		if err != nil {
			t.Fatal(err)
		}
		set := map[Tile]bool{}
		for _, tile := range fromCover {
			set[tile] = true
		}
		if len(fromCover) != len(fromTess) {
			t.Fatalf("trial %d: cover %d tiles, tessellation %d", trial, len(fromCover), len(fromTess))
		}
		for _, tile := range fromTess {
			if !set[tile] {
				t.Fatalf("trial %d: tessellation tile %d missing from cover", trial, tile)
			}
		}
	}
}

// Keep sorted-tiles property under random shapes.
func TestTessellateSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	grid := testGrid(t, 7)
	for trial := 0; trial < 50; trial++ {
		tiles, err := Tessellate(grid, randomRectGeom(t, rng))
		if err != nil {
			t.Fatal(err)
		}
		if !sort.SliceIsSorted(tiles, func(i, j int) bool { return tiles[i] < tiles[j] }) {
			t.Fatalf("trial %d: tiles not sorted", trial)
		}
	}
}
