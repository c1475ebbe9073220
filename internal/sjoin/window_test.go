package sjoin

import (
	"fmt"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
)

// windowQueries returns the query geometries of the window route
// matrix over a table with bounds b: a point (a vertex of the table's
// row first), a line, a polygon and a polygon with a hole, laid out
// relative to b.
func windowQueries(t *testing.T, b geom.MBR, first geom.Geometry) map[string]geom.Geometry {
	t.Helper()
	at := func(fx, fy float64) geom.Point {
		return geom.Point{X: b.MinX + fx*b.Width(), Y: b.MinY + fy*b.Height()}
	}
	ring := func(x0, y0, x1, y1 float64) []geom.Point {
		return []geom.Point{at(x0, y0), at(x1, y0), at(x1, y1), at(x0, y1), at(x0, y0)}
	}
	v := first.Pts
	if len(v) == 0 {
		v = first.Rings[0]
	}
	line, err := geom.NewLineString([]geom.Point{at(0.1, 0.1), at(0.6, 0.4), at(0.9, 0.1)})
	if err != nil {
		t.Fatal(err)
	}
	poly, err := geom.NewPolygon(ring(0.2, 0.2, 0.7, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	holed, err := geom.NewPolygon(ring(0.1, 0.1, 0.9, 0.9), ring(0.4, 0.4, 0.6, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]geom.Geometry{
		"point":             geom.NewPoint(v[0].X, v[0].Y),
		"line":              line,
		"polygon":           poly,
		"polygon with hole": holed,
	}
}

// TestWindowRoutesAreSound is the route table's differential for
// windows, shaped like TestProofRoutesAreSound: tables of polygons,
// small polygons and points × point, line, polygon and holed-polygon
// queries × ANYINTERACT, a distance, TOUCH and INSIDE × {unscoped, each
// stripe of a 3-stripe scope}. Every index entry the window's primary
// filter passes is decided as a window decides it, with the query the
// big side of the box test, and checked: a candidate the owner route
// drops is one the scope does not own; one the points or box route
// settles agrees with the exact predicate on the stored geometry; the
// resolved routes are owner (under a scope), points and box (under a
// point-set predicate) and refine, never self or mirror; and each of
// them fires somewhere.
func TestWindowRoutesAreSound(t *testing.T) {
	var fired [numRoutes]int
	boxSettled := 0
	for _, s := range []struct {
		name string
		src  Source
	}{
		{"counties", buildSource(t, "counties", datagen.Counties(64, 3))},
		{"blockgroups", buildSource(t, "blockgroups", datagen.BlockGroups(150, 1))},
		{"stars", buildSource(t, "stars", datagen.Stars(300, 41))},
		{"point lattice", pointTable(t, "points", "point", latticePoints(5, 300))},
	} {
		geoms := heapGeoms(t, s.src)
		items := s.src.Tree.Items()
		b := s.src.Tree.Bounds()
		for qname, q := range windowQueries(t, b, geoms[items[0].ID]) {
			qm := geom.MBROf(q)
			d := b.Width() / 50
			for _, op := range []WindowOp{
				{Mask: geom.MaskAnyInteract},
				{Within: true, Distance: d},
				{Mask: geom.MaskTouch},
				{Mask: geom.MaskInside},
			} {
				pointSet := op.Within || op.Mask == geom.MaskAnyInteract
				scopes := append([]func(x, y float64) bool{nil}, stripes(3)...)
				for k, own := range scopes {
					name := fmt.Sprintf("%s/%s/%v/within=%v/scope=%d", s.name, qname, op.Mask, op.Within, k)
					w := NewWindow(q, op, own, true)
					want := routeSet(1 << routeRefine)
					if own != nil {
						want |= 1 << routeOwner
					}
					if pointSet {
						want |= 1<<routePoints | 1<<routeBox
					}
					if w.routes != want {
						t.Fatalf("%s: resolved routes %v, want %v", name, w.routes, want)
					}
					for _, it := range items {
						if op.Within && it.MBR.Dist(qm) > d || !op.Within && !it.MBR.Intersects(qm) {
							continue
						}
						g := geoms[it.ID]
						exact := geom.Relate(g, q, op.Mask)
						if op.Within {
							exact = geom.WithinDistance(g, q, d)
						}
						r := w.routes.pick(&w.cfg, qm, it.MBR, false, true)
						v := w.Decide(it.MBR)
						fired[r]++
						switch r {
						case routeOwner:
							if own(PairRefPoint(qm, it.MBR, op.Distance)) || v != Dropped {
								t.Fatalf("%s: %v dropped as unowned (verdict %v), but the scope owns it", name, it.ID, v)
							}
						case routePoints:
							if v != Proven || !exact {
								t.Fatalf("%s: %v proven by the points route, the exact predicate says %v", name, it.ID, exact)
							}
						case routeBox:
							if v == Proven && !exact || v == Dropped && exact {
								t.Fatalf("%s: %v: the box route says %v, the exact predicate %v", name, it.ID, v, exact)
							}
							if v != Refine {
								boxSettled++
							}
						case routeRefine:
							if v != Refine {
								t.Fatalf("%s: %v: the refine route gives verdict %v", name, it.ID, v)
							}
						default:
							t.Fatalf("%s: %v took the %v route", name, it.ID, r)
						}
						if v == Refine && own != nil && !w.Owns(it.MBR) {
							t.Fatalf("%s: %v is refined, but the scope does not own it", name, it.ID)
						}
					}
				}
			}
		}
	}
	t.Logf("candidates by route %v, %d settled by their box", fired, boxSettled)
	for _, r := range []route{routeOwner, routePoints, routeBox, routeRefine} {
		if fired[r] == 0 {
			t.Errorf("the %v route never fired: %v", r, fired)
		}
	}
	if boxSettled == 0 {
		t.Errorf("the box route never settled a candidate without refining it")
	}
}

// TestWindowOwnerAtFetch checks the window built to run its owner test
// on the fetched row: Decide never drops a candidate as unowned, and
// Owns is the owner route's test.
func TestWindowOwnerAtFetch(t *testing.T) {
	q := geom.NewPoint(4, 4)
	own := stripes(3)[0]
	w := NewWindow(q, WindowOp{Mask: geom.MaskAnyInteract}, own, false)
	if w.routes.has(routeOwner) {
		t.Fatalf("routes %v hold the owner route", w.routes)
	}
	for x := 0.0; x < 9; x++ {
		r := geom.MBR{MinX: x, MinY: 0, MaxX: 10, MaxY: 10}
		if w.Decide(r) == Dropped {
			t.Errorf("%v dropped before its fetch", r)
		}
		if got, want := w.Owns(r), own(PairRefPoint(geom.MBROf(q), r, 0)); got != want {
			t.Errorf("Owns(%v) = %v, the owner test %v", r, got, want)
		}
	}
}
