package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The spatial join decides a pair from its two leaf MBRs alone when both
// are single points (sjoin.JoinFunction.emit): for a valid geometry whose
// MBR is a point, the geometry is that point, so the primary filter's
// MBR test already is the exact predicate. These tests are the proof
// obligation behind that route: on every pair of point-degenerate shapes
// the exact ANYINTERACT and within-distance predicates answer exactly as
// the MBR tests do, bit for bit, at ties and at float extremes.

// pointShapes returns the valid geometries whose MBR is the single point
// p: a point, a zero-length line, a zero-length line of three vertices,
// a multipoint repeating p, and a multi-line of zero-length lines.
func pointShapes(t testing.TB, p Point) []Geometry {
	t.Helper()
	pt := NewPoint(p.X, p.Y)
	line := mustLine(t, p, p)
	line3 := mustLine(t, p, p, p)
	mp, err := NewMulti(KindMultiPoint, []Geometry{pt, pt})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := NewMulti(KindMultiLineString, []Geometry{line, line3})
	if err != nil {
		t.Fatal(err)
	}
	return []Geometry{pt, line, line3, mp, ml}
}

// pointPairs returns coordinate pairs that stress a decision taken on
// MBRs alone: hand-picked signed zeros, exact 3-4-5 ties, coordinates
// near 1e6, one-ulp and sub-eps separations, then n seeded pairs mixing
// the same ingredients.
func pointPairs(seed int64, n int) [][2]Point {
	negZero := math.Copysign(0, -1)
	out := [][2]Point{
		{{0, 0}, {negZero, negZero}},
		{{negZero, 0}, {0, negZero}},
		{{0, 0}, {3, 4}},
		{{negZero, negZero}, {-3, -4}},
		{{1e6, 1e6}, {1e6 + 3, 1e6 + 4}},
		{{1e6, -1e6}, {math.Nextafter(1e6, 2e6), -1e6}},
		{{-1e6, 1e6}, {math.Nextafter(-1e6, 0), math.Nextafter(1e6, 0)}},
		{{5, 5}, {5, 5}},
		{{1, 1}, {1 + 1e-13, 1}}, // closer than eps: still disjoint
		{{1e-310, 0}, {-1e-310, 0}},
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		var p Point
		switch i % 4 {
		case 0:
			p = Point{rng.Float64() * 1000, rng.Float64() * 1000}
		case 1:
			p = Point{1e6 + rng.Float64(), -1e6 - rng.Float64()}
		case 2:
			p = Point{snap(rng.Float64() * 1000), snap(rng.Float64() * 1000)}
		default:
			p = Point{rng.NormFloat64() * 1e-300, rng.NormFloat64()}
		}
		q := p
		switch rng.Intn(5) {
		case 0: // identical
		case 1: // an exact 3-4-5 tie on the snapped grid
			k := float64(1+rng.Intn(8)) / 4
			sx, sy := float64(1-2*rng.Intn(2)), float64(1-2*rng.Intn(2))
			p = Point{snap(p.X), snap(p.Y)}
			q = Point{p.X + sx*3*k, p.Y + sy*4*k}
		case 2: // one ulp apart on one or both axes
			q.X = math.Nextafter(p.X, math.Inf(1))
			if rng.Intn(2) == 0 {
				q.Y = math.Nextafter(p.Y, math.Inf(-1))
			}
		case 3: // nearby
			q = Point{p.X + (rng.Float64()*4 - 2), p.Y + (rng.Float64()*4 - 2)}
		default: // far
			q = Point{rng.Float64() * 1000, rng.Float64() * 1000}
		}
		out = append(out, [2]Point{p, q})
	}
	return out
}

// distancesFor returns the within-distance thresholds tried on p, q:
// fixed ones, the pair's own distance (a tie) and its float neighbours.
func distancesFor(p, q Point) []float64 {
	d := p.Dist(q)
	return []float64{0, 1e-9, 1.5, 5, d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1))}
}

// checkPointPair asserts the two exact predicates the join decides on
// MBRs equal their MBR tests for every pair of shapes of p and q.
func checkPointPair(t *testing.T, p, q Point) {
	t.Helper()
	ds := distancesFor(p, q)
	for _, a := range pointShapes(t, p) {
		ma := MBROf(a)
		if !ma.IsPoint() {
			t.Fatalf("%v: MBR %v is not a point", a, ma)
		}
		for _, b := range pointShapes(t, q) {
			mb := MBROf(b)
			if got, want := Relate(a, b, MaskAnyInteract), ma.Intersects(mb); got != want {
				t.Fatalf("Relate(%v, %v, ANYINTERACT) = %v, MBR test %v", a, b, got, want)
			}
			for _, d := range ds {
				if got, want := WithinDistance(a, b, d), ma.Dist(mb) <= d; got != want {
					t.Fatalf("WithinDistance(%v, %v, %v) = %v, MBR test %v (MBR distance %v)", a, b, d, got, want, ma.Dist(mb))
				}
			}
		}
	}
}

// TestPointShapesDecidedByMBR is the equivalence net under the join's
// index-decided route, over the hand-picked and seeded coordinate pairs.
func TestPointShapesDecidedByMBR(t *testing.T) {
	pairs := pointPairs(23, 4000)
	for _, pq := range pairs {
		checkPointPair(t, pq[0], pq[1])
		checkPointPair(t, pq[1], pq[0])
	}
}

// TestPointShapesTies pins the exact ties by hand: two shapes exactly d
// apart are within d and not within the next float below it.
func TestPointShapesTies(t *testing.T) {
	cases := []struct {
		p, q Point
		d    float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{10, 10}, Point{10.75, 11}, 1.25},
		{Point{1e6, 1e6}, Point{1e6 - 6, 1e6 + 8}, 10},
		{Point{2, 2}, Point{2, 3.5}, 1.5},
	}
	for _, c := range cases {
		for _, a := range pointShapes(t, c.p) {
			for _, b := range pointShapes(t, c.q) {
				if !WithinDistance(a, b, c.d) {
					t.Errorf("WithinDistance(%v, %v, %v) = false at the tie", a, b, c.d)
				}
				if below := math.Nextafter(c.d, 0); WithinDistance(a, b, below) {
					t.Errorf("WithinDistance(%v, %v, %v) = true below the tie", a, b, below)
				}
				if Relate(a, b, MaskAnyInteract) {
					t.Errorf("Relate(%v, %v, ANYINTERACT) = true for points %v apart", a, b, c.d)
				}
			}
		}
	}
}
