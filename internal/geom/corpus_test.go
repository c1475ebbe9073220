package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The test corpus behind the oracle-equivalence, invariance, allocation
// and benchmark tests: a seeded generator of the shapes the join
// workloads refine, plus hand-built adversarial groups. Every corpus
// geometry is valid (it comes out of a constructor).

// pairCase is one ordered operand pair.
type pairCase struct {
	name string
	a, b Geometry
}

// gridStep is the coordinate quantum of generated geometries: a power of
// two, so translation by a multiple of it and scaling by a power of two
// are exact in float64 for the coordinate ranges used here.
const gridStep = 1.0 / 1024

func snap(v float64) float64 { return math.Round(v/gridStep) * gridStep }

// genStar returns a radial polygon like the block-group generator's:
// verts vertices around (cx, cy) at radius r modulated by two
// sinusoids and noise, coordinates snapped to gridStep.
func genStar(t testing.TB, rng *rand.Rand, cx, cy, r float64, verts int) Geometry {
	t.Helper()
	f1 := float64(2 + rng.Intn(4))
	f2 := float64(5 + rng.Intn(6))
	p1 := rng.Float64() * 2 * math.Pi
	p2 := rng.Float64() * 2 * math.Pi
	ring := make([]Point, 0, verts)
	for k := 0; k < verts; k++ {
		th := 2 * math.Pi * float64(k) / float64(verts)
		rad := r * (1 + 0.25*math.Sin(f1*th+p1) + 0.12*math.Sin(f2*th+p2) + 0.05*(rng.Float64()*2-1))
		p := Point{snap(cx + rad*math.Cos(th)), snap(cy + rad*math.Sin(th))}
		if len(ring) > 0 && ring[len(ring)-1] == p {
			continue
		}
		ring = append(ring, p)
	}
	return mustPolygon(t, ring)
}

// genCounty returns a county-like polygon: the square [x0, x0+side]²
// with sub jittered vertices on every edge (sub = 8 gives the
// 36-vertex polygons of the counties generator).
func genCounty(t testing.TB, rng *rand.Rand, x0, y0, side float64, sub int) Geometry {
	t.Helper()
	corners := []Point{{x0, y0}, {x0 + side, y0}, {x0 + side, y0 + side}, {x0, y0 + side}}
	var ring []Point
	for i, a := range corners {
		b := corners[(i+1)%4]
		ring = append(ring, a)
		for k := 1; k <= sub; k++ {
			f := float64(k) / float64(sub+1)
			// Lateral jitter perpendicular to the edge, inward only so
			// the corners stay the MBR.
			j := rng.Float64() * 0.04 * side
			nx, ny := -(b.Y-a.Y)/side, (b.X-a.X)/side
			ring = append(ring, Point{snap(a.X + (b.X-a.X)*f + nx*j), snap(a.Y + (b.Y-a.Y)*f + ny*j)})
		}
	}
	return mustPolygon(t, ring)
}

// joinShapes returns the four pair shapes the join_refine and
// cluster_mixed candidates take, at join scale: a block group strictly
// inside a zone, one crossing a zone's boundary, one whose MBR overlaps
// a zone's but whose shape does not, and two county neighbours a gap
// under 7 apart. verts sizes the block group.
func joinShapes(t testing.TB, verts int) []pairCase {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	zone := genCounty(t, rng, 0, 0, 60, 8)
	diamond := mustPolygon(t, []Point{{30, 0}, {60, 30}, {30, 60}, {0, 30}})
	left := genCounty(t, rng, 100, 0, 30, 8)
	right := genCounty(t, rng, 135, 0, 30, 8)
	return []pairCase{
		{"contained", genStar(t, rng, 30, 30, 2.5, verts), zone},
		{"crossing", genStar(t, rng, 60, 30, 2.5, verts), zone},
		{"mbr_disjoint", genStar(t, rng, 6, 6, 2.5, verts), diamond},
		{"near7", left, right},
	}
}

// generatedPairs returns n seeded random pairs drawn from stars,
// counties, line strings, points, holed polygons and multi-geometries
// placed close enough that every relationship occurs.
func generatedPairs(t testing.TB, seed int64, n int) []pairCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pick := func() Geometry {
		cx, cy := snap(rng.Float64()*40), snap(rng.Float64()*40)
		switch rng.Intn(7) {
		case 0, 1:
			return genStar(t, rng, cx, cy, 1+rng.Float64()*10, 8+rng.Intn(80))
		case 2:
			return genCounty(t, rng, cx-10, cy-10, snap(5+rng.Float64()*20), 1+rng.Intn(8))
		case 3:
			pts := make([]Point, 2+rng.Intn(6))
			for i := range pts {
				pts[i] = Point{snap(cx + rng.Float64()*20 - 10), snap(cy + rng.Float64()*20 - 10)}
			}
			return mustLine(t, pts...)
		case 4:
			return NewPoint(cx, cy)
		case 5:
			r := snap(3 + rng.Float64()*8)
			outer := []Point{{cx - r, cy - r}, {cx + r, cy - r}, {cx + r, cy + r}, {cx - r, cy + r}}
			h := snap(r / 2)
			hole := []Point{{cx - h, cy - h}, {cx + h, cy - h}, {cx + h, cy + h}, {cx - h, cy + h}}
			return mustPolygon(t, outer, hole)
		default:
			m, err := NewMulti(KindMultiPolygon, []Geometry{
				genStar(t, rng, cx, cy, 2, 12),
				genStar(t, rng, cx+6, cy+3, 2, 12),
			})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	out := make([]pairCase, n)
	for i := range out {
		out[i] = pairCase{"generated", pick(), pick()}
	}
	return out
}

// adversarialGroups returns small groups of geometries that meet in
// the ways tolerance-based predicates get wrong; every ordered pair
// within a group is a test case.
func adversarialGroups(t testing.TB) map[string][]Geometry {
	t.Helper()
	rect := func(x0, y0, x1, y1 float64) Geometry { return mustRect(t, x0, y0, x1, y1) }
	poly := func(rings ...[]Point) Geometry { return mustPolygon(t, rings...) }
	line := func(pts ...Point) Geometry { return mustLine(t, pts...) }
	multi := func(k Kind, es ...Geometry) Geometry {
		m, err := NewMulti(k, es)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	shift := func(g Geometry, d float64) Geometry { return g.Translate(d, d) }
	const far = 1e6
	tiny := 1e-9
	groups := map[string][]Geometry{
		"containment": {
			rect(0, 0, 10, 10), rect(2, 2, 4, 4), // strictly inside
			rect(0, 2, 3, 4),   // inside, sharing part of an edge
			rect(0, 0, 10, 10), // equal
			poly([]Point{{10, 10}, {0, 10}, {0, 0}, {10, 0}}), // equal, other start vertex
			rect(-1, -1, 11, 11),                              // contains all
		},
		"shared_edges_and_vertices": {
			rect(0, 0, 2, 2), rect(2, 0, 4, 2), // full shared edge
			rect(2, 1, 3, 5), // partial shared edge
			rect(2, 2, 4, 4), // shared vertex only
			poly([]Point{{2, 2}, {3, 2.5}, {2.5, 3}}), // vertex on a vertex, from the diagonal
		},
		"collinear_runs": {
			poly([]Point{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {3, 3}, {0, 3}}),
			rect(1, -2, 2, 0),                  // touches along the run
			rect(0.5, -1, 2.5, 0),              // overlaps the run's vertices
			line(Point{-1, 0}, Point{4, 0}),    // runs along it and beyond
			line(Point{0.5, 0}, Point{2.5, 0}), // a sub-run of the boundary
			line(Point{1, 0}, Point{1, 3}),     // chord with both ends on the boundary
			NewPoint(2, 0), NewPoint(1.5, 0),   // on a vertex, on an edge
		},
		"touching_holes": {
			poly([]Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}, []Point{{3, 3}, {7, 3}, {7, 7}, {3, 7}}),
			rect(3, 3, 5, 5), // in the hole, touching its boundary
			rect(4, 4, 6, 6), // strictly in the hole
			rect(2, 4, 4, 6), // straddles the hole ring
			poly([]Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}, []Point{{0, 4}, {3, 5}, {0, 6}}),                                  // hole touching the outer ring
			poly([]Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}, []Point{{2, 2}, {5, 2}, {5, 5}}, []Point{{5, 5}, {8, 5}, {8, 8}}), // holes touching each other
			NewPoint(5, 5), NewPoint(3, 5),
			line(Point{4, 5}, Point{8, 5}),
		},
		"tiny_edges": {
			poly([]Point{{0, 0}, {1, 0}, {1, 1}, {1 - tiny, 1 + tiny}, {0, 1}}),
			poly([]Point{{1, 1}, {2, 1}, {2, 2}}),                   // meets at the tiny edge's end
			poly([]Point{{1 - tiny/2, 1 + tiny/2}, {1, 3}, {0, 3}}), // vertex on the tiny edge
			rect(1+tiny, 0, 2, 0.5),                                 // a tiny gap away
			line(Point{1 - tiny, 1 + tiny}, Point{1 - tiny, 5}),
			poly([]Point{{5, 5}, {5 + tiny, 5}, {5, 6}}),               // a 1e-9 base edge
			poly([]Point{{5 + tiny, 5}, {6, 5}, {6, 6}}),               // sharing its corner
			poly([]Point{{5 + tiny, 4}, {6, 4}, {5 + tiny, 5 - tiny}}), // a 1e-9 gap below it
		},
		"near_1e6": {
			shift(rect(0, 0, 1, 1), far), shift(rect(1, 0, 2, 1), far), // shared edge
			shift(rect(0.25, 0.25, 0.5, 0.5), far),              // contained
			shift(rect(1+1e-6, 0, 3, 1), far),                   // 1e-6 gap
			shift(poly([]Point{{0, 0}, {3, 0.5}, {0, 1}}), far), // long thin, crossing
			shift(line(Point{-1, 0.5}, Point{4, 0.5}), far),
			shift(NewPoint(1, 0.5), far),
		},
		"lines_and_points": {
			line(Point{0, 0}, Point{4, 4}), line(Point{0, 4}, Point{4, 0}), // cross
			line(Point{2, 2}, Point{6, 2}),              // T from the crossing
			line(Point{4, 4}, Point{6, 6}, Point{8, 4}), // endpoint touch
			line(Point{1, 1}, Point{3, 3}),              // collinear sub-run
			rect(1, 1, 3, 3),
			multi(KindMultiPoint, NewPoint(2, 2), NewPoint(9, 9)),
			multi(KindMultiLineString, line(Point{0, 2}, Point{1, 2}), line(Point{5, 0}, Point{5, 5})),
			multi(KindMultiPolygon, rect(3, 3, 5, 5), rect(6, 6, 7, 7)),
		},
	}
	return groups
}

// corpusPairs is every generated pair, every join shape, and every
// ordered pair within each adversarial group.
func corpusPairs(t testing.TB) []pairCase {
	t.Helper()
	out := generatedPairs(t, 1, 400)
	out = append(out, joinShapes(t, 120)...)
	for name, g := range adversarialGroups(t) {
		for i := range g {
			for j := range g {
				out = append(out, pairCase{name, g[i], g[j]})
			}
		}
	}
	return out
}

var allMasks = []Mask{MaskAnyInteract, MaskEqual, MaskInside, MaskContains, MaskCoveredBy, MaskCovers, MaskTouch, MaskOverlap}
