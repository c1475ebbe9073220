// Package datagen synthesizes the three datasets of the paper's
// evaluation, which are proprietary (US county boundaries from a GIS
// vendor, a customer star catalogue, US census block groups). Each
// generator is deterministic in its seed and matches the property the
// corresponding experiment measures:
//
//   - Counties: contiguous complex polygons that touch their neighbours,
//     so a self-join selects ~9 neighbours per polygon — the same order
//     as the paper's 3230-county self-join (27K result pairs at d=0).
//   - Stars: many small clustered polygons; self-join selectivity grows
//     with density, reproducing Table 2's scaling behaviour.
//   - BlockGroups: "arbitrarily-shaped complex polygon geometries" with
//     large vertex counts, making tessellation (quadtree creation) far
//     more expensive than MBR computation (R-tree creation) — the Table
//     3 contrast.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

// World is the coordinate domain all generators place data in; quadtree
// grids over these datasets use it as bounds.
var World = geom.MBR{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}

// Dataset is a generated geometry collection.
type Dataset struct {
	Name   string
	Geoms  []geom.Geometry
	Bounds geom.MBR
}

// TotalVertices returns the summed vertex count — the complexity measure
// driving tessellation cost.
func (d Dataset) TotalVertices() int {
	n := 0
	for _, g := range d.Geoms {
		n += g.NumVertices()
	}
	return n
}

// Schema returns the standard table schema the loaders use:
// (id INT, name VARCHAR, geom GEOMETRY).
func Schema() []storage.Column {
	return []storage.Column{
		{Name: "id", Type: storage.TInt64},
		{Name: "name", Type: storage.TString},
		{Name: "geom", Type: storage.TGeometry},
	}
}

// LoadTable materialises ds into a fresh heap table and returns the
// table plus the rowid of each geometry (parallel to ds.Geoms).
func LoadTable(tableName string, ds Dataset) (*storage.Table, []storage.RowID, error) {
	tab, err := storage.NewTable(tableName, Schema())
	if err != nil {
		return nil, nil, err
	}
	ids := make([]storage.RowID, len(ds.Geoms))
	for i, g := range ds.Geoms {
		id, err := tab.Insert(storage.Row{
			storage.Int(int64(i)),
			storage.Str(fmt.Sprintf("%s-%d", ds.Name, i)),
			storage.Geom(g),
		})
		if err != nil {
			return nil, nil, fmt.Errorf("datagen: load %s row %d: %w", tableName, i, err)
		}
		ids[i] = id
	}
	return tab, ids, nil
}

// --- Counties ---

// Counties generates n contiguous county-like polygons tiling (most of)
// the world: a jittered grid whose cells share their jittered corner
// vertices and subdivided edges, so neighbouring counties genuinely
// touch (TOUCH/ANYINTERACT select them) without overlapping.
//
// Each county ring has 4 corners plus `sub` jittered vertices per edge
// (sub = 8 → 36-vertex polygons, matching the "complex polygon" scale of
// real county data).
func Counties(n int, seed int64) Dataset {
	if n < 1 {
		n = 1
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	const sub = 8 // interior vertices per edge
	cellW := World.Width() / float64(side)
	cellH := World.Height() / float64(side)

	// Shared jittered corners. Boundary corners stay on the boundary so
	// every county remains inside World.
	corners := make([]geom.Point, (side+1)*(side+1))
	cidx := func(i, j int) int { return j*(side+1) + i }
	rng := rand.New(rand.NewSource(seed))
	maxJit := 0.25 * math.Min(cellW, cellH)
	for j := 0; j <= side; j++ {
		for i := 0; i <= side; i++ {
			x := float64(i) * cellW
			y := float64(j) * cellH
			if i > 0 && i < side {
				x += (rng.Float64()*2 - 1) * maxJit
			}
			if j > 0 && j < side {
				y += (rng.Float64()*2 - 1) * maxJit
			}
			corners[cidx(i, j)] = geom.Point{X: x, Y: y}
		}
	}

	// Each edge's interior vertices are generated once, on first use, and
	// shared by the two counties either side of it. The edge between
	// canonical corners lo < hi lives at index 2·lo when horizontal
	// (hi = lo+1) and 2·lo+1 when vertical (hi = lo+side+1), its points
	// in lo→hi order; nil marks an edge not generated yet. All edges draw
	// from one source, reseeded per edge from the (lo, hi) pair:
	// (*Rand).Seed yields the stream a fresh NewSource would, without
	// building a 4.9 KB source per edge.
	slab := make([]geom.Point, 2*len(corners)*sub)
	edges := make([][]geom.Point, 2*len(corners))
	erng := rand.New(rand.NewSource(seed))
	edgePoints := func(lo, hi int) []geom.Point {
		e := 2*lo + 1
		if hi == lo+1 {
			e = 2 * lo
		}
		if edges[e] != nil {
			return edges[e]
		}
		pts := slab[e*sub : (e+1)*sub : (e+1)*sub]
		a, b := corners[lo], corners[hi]
		dx, dy := b.X-a.X, b.Y-a.Y
		length := math.Hypot(dx, dy)
		if length == 0 {
			edges[e] = pts[:0]
			return edges[e]
		}
		erng.Seed(seed ^ (int64(lo)<<20 + int64(hi)))
		// Perpendicular unit vector for lateral jitter.
		px, py := -dy/length, dx/length
		for k := range pts {
			t := float64(k+1) / float64(sub+1)
			lat := (erng.Float64()*2 - 1) * maxJit * 0.5
			x := a.X + dx*t + px*lat
			y := a.Y + dy*t + py*lat
			// Clamp into the world; both neighbours use the same
			// clamped point, so contiguity is preserved.
			x = math.Max(World.MinX, math.Min(World.MaxX, x))
			y = math.Max(World.MinY, math.Min(World.MaxY, y))
			pts[k] = geom.Point{X: x, Y: y}
		}
		edges[e] = pts
		return pts
	}

	geoms := make([]geom.Geometry, 0, n)
	for j := 0; j < side && len(geoms) < n; j++ {
		for i := 0; i < side && len(geoms) < n; i++ {
			c00 := cidx(i, j)
			c10 := cidx(i+1, j)
			c11 := cidx(i+1, j+1)
			c01 := cidx(i, j+1)
			ring := make([]geom.Point, 0, 4+4*sub)
			// walk appends corner a and the edge's interior vertices
			// in a→b order: the stored lo→hi slice, or a reversed
			// copy of it when a is the high corner.
			walk := func(a, b int) {
				ring = append(ring, corners[a])
				if a < b {
					ring = append(ring, edgePoints(a, b)...)
					return
				}
				pts := edgePoints(b, a)
				for k := len(pts) - 1; k >= 0; k-- {
					ring = append(ring, pts[k])
				}
			}
			walk(c00, c10)
			walk(c10, c11)
			walk(c11, c01)
			walk(c01, c00)
			pg, err := geom.NewPolygon(ring)
			if err != nil {
				// Extreme jitter could in principle self-degenerate a
				// ring; fall back to the un-jittered cell.
				pg, err = geom.NewRect(float64(i)*cellW, float64(j)*cellH,
					float64(i+1)*cellW, float64(j+1)*cellH)
				if err != nil {
					continue
				}
			}
			geoms = append(geoms, pg)
		}
	}
	return Dataset{Name: "counties", Geoms: geoms, Bounds: World}
}

// --- Star clusters ---

// Stars generates n small polygons clustered like a star catalogue
// cross-section: cluster centres are uniform over the world, members are
// Gaussian around their centre, and each star is a small convex polygon.
// Larger subsets are denser, so self-join selectivity grows
// superlinearly with n, as in Table 2.
func Stars(n int, seed int64) Dataset {
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	numClusters := n / 250
	if numClusters < 1 {
		numClusters = 1
	}
	centers := make([]geom.Point, numClusters)
	for i := range centers {
		centers[i] = geom.Point{
			X: 50 + rng.Float64()*(World.Width()-100),
			Y: 50 + rng.Float64()*(World.Height()-100),
		}
	}
	const sigma = 8.0
	geoms := make([]geom.Geometry, 0, n)
	for len(geoms) < n {
		c := centers[rng.Intn(numClusters)]
		cx := c.X + rng.NormFloat64()*sigma
		cy := c.Y + rng.NormFloat64()*sigma
		r := 0.3 + rng.Float64()*0.9
		g, err := starPolygon(rng, cx, cy, r, 6)
		if err != nil {
			continue
		}
		geoms = append(geoms, g)
	}
	return Dataset{Name: "stars", Geoms: geoms, Bounds: World}
}

// --- Block groups ---

// BlockGroups generates n large, arbitrarily-shaped polygons with heavy
// vertex counts (40–400 vertices), sized log-normally. Tessellating
// these is expensive — the property Table 3 exercises.
func BlockGroups(n int, seed int64) Dataset {
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	geoms := make([]geom.Geometry, 0, n)
	for len(geoms) < n {
		cx := 20 + rng.Float64()*(World.Width()-40)
		cy := 20 + rng.Float64()*(World.Height()-40)
		// Log-normal radius: mostly small, occasionally large.
		r := math.Exp(rng.NormFloat64()*0.6) * 2.5
		if r > 18 {
			r = 18
		}
		verts := 40 + rng.Intn(360)
		g, err := starPolygon(rng, cx, cy, r, verts)
		if err != nil {
			continue
		}
		geoms = append(geoms, g)
	}
	return Dataset{Name: "blockgroups", Geoms: geoms, Bounds: World}
}

// ByName generates the dataset the commands name on their command
// lines: "counties", "stars" or "blockgroups", of n geometries.
func ByName(name string, n int, seed int64) (Dataset, error) {
	switch name {
	case "counties":
		return Counties(n, seed), nil
	case "stars":
		return Stars(n, seed), nil
	case "blockgroups":
		return BlockGroups(n, seed), nil
	}
	return Dataset{}, fmt.Errorf("unknown dataset %q (want counties, stars or blockgroups)", name)
}

// starPolygon builds a simple radial polygon with `verts` vertices
// around (cx, cy): radius modulated by low-frequency sinusoids plus
// noise, clamped inside World.
func starPolygon(rng *rand.Rand, cx, cy, r float64, verts int) (geom.Geometry, error) {
	if verts < 3 {
		verts = 3
	}
	f1 := 2 + rng.Intn(4)
	f2 := 5 + rng.Intn(6)
	p1 := rng.Float64() * 2 * math.Pi
	p2 := rng.Float64() * 2 * math.Pi
	ring := make([]geom.Point, verts)
	for k := 0; k < verts; k++ {
		th := 2 * math.Pi * float64(k) / float64(verts)
		rad := r * (1 +
			0.25*math.Sin(float64(f1)*th+p1) +
			0.12*math.Sin(float64(f2)*th+p2) +
			0.05*(rng.Float64()*2-1))
		if rad < r*0.2 {
			rad = r * 0.2
		}
		x := cx + rad*math.Cos(th)
		y := cy + rad*math.Sin(th)
		x = math.Max(World.MinX, math.Min(World.MaxX, x))
		y = math.Max(World.MinY, math.Min(World.MaxY, y))
		ring[k] = geom.Point{X: x, Y: y}
	}
	// Boundary clamping can duplicate consecutive vertices; drop them so
	// the ring has no zero-length edges.
	dedup := ring[:0]
	for _, p := range ring {
		if len(dedup) == 0 || dedup[len(dedup)-1] != p {
			dedup = append(dedup, p)
		}
	}
	if len(dedup) > 1 && dedup[0] == dedup[len(dedup)-1] {
		dedup = dedup[:len(dedup)-1]
	}
	return geom.NewPolygon(dedup)
}
