package geom

import (
	"math"
	"testing"
)

// withinDistances are the thresholds every WithinDistance comparison
// runs at, besides the pair's own exact distance and its neighbours.
var withinDistances = []float64{0, 1e-9, 0.5, 1, 3, 7, 20}

// checkAgainstOracle compares every mask, Distance, and WithinDistance
// at several thresholds between the pruned predicates and the oracle
// (reference_test.go).
func checkAgainstOracle(t *testing.T, c pairCase) {
	t.Helper()
	for _, m := range allMasks {
		if got, want := Relate(c.a, c.b, m), refRelate(c.a, c.b, m); got != want {
			t.Errorf("%s: Relate(%v) = %v, oracle %v\n a = %v\n b = %v", c.name, m, got, want, c.a, c.b)
		}
	}
	dist, want := Distance(c.a, c.b), refDistance(c.a, c.b)
	if dist != want {
		t.Errorf("%s: Distance = %v, oracle %v\n a = %v\n b = %v", c.name, dist, want, c.a, c.b)
	}
	ds := append([]float64{want, math.Nextafter(want, 0), math.Nextafter(want, math.Inf(1))}, withinDistances...)
	for _, d := range ds {
		if got, want := WithinDistance(c.a, c.b, d), refWithinDistance(c.a, c.b, d); got != want {
			t.Errorf("%s: WithinDistance(%g) = %v, oracle %v\n a = %v\n b = %v", c.name, d, got, want, c.a, c.b)
		}
	}
}

// TestOracleEquivalence is the secondary filter's safety net: on the
// whole corpus the pruned predicates answer exactly as the unpruned
// oracle does.
func TestOracleEquivalence(t *testing.T) {
	for _, c := range corpusPairs(t) {
		checkAgainstOracle(t, c)
	}
}

// TestOracleEquivalenceJoinScale runs the four join pair shapes at the
// vertex counts the block-group generator produces (40–400).
func TestOracleEquivalenceJoinScale(t *testing.T) {
	for _, verts := range []int{40, 220, 400} {
		for _, c := range joinShapes(t, verts) {
			checkAgainstOracle(t, c)
		}
	}
}

// mapPoints returns a copy of g with every vertex mapped by f and, when
// rot > 0, every ring's start vertex moved forward by rot (mod length)
// and, when rev, every ring's direction reversed.
func mapPoints(g Geometry, f func(Point) Point, rot int, rev bool) Geometry {
	ring := func(r []Point, closed bool) []Point {
		out := make([]Point, len(r))
		for i := range r {
			j := i
			if closed {
				j = (i + rot) % len(r)
			}
			if rev {
				j = len(r) - 1 - j
			}
			out[i] = f(r[j])
		}
		return out
	}
	out := Geometry{Kind: g.Kind}
	switch g.Kind {
	case KindPoint, KindLineString:
		out.Pts = ring(g.Pts, false)
	case KindPolygon:
		for _, r := range g.Rings {
			out.Rings = append(out.Rings, ring(r, true))
		}
	default:
		for _, e := range g.Elems {
			out.Elems = append(out.Elems, mapPoints(e, f, rot, rev))
		}
	}
	return out
}

// TestPredicateInvariance checks that every mask and WithinDistance
// keep their answer, and Distance its value, when both operands are
// translated, scaled by a power of two, rotated by 90°, re-started at
// another ring vertex, or reversed in direction. The generated corpus
// lies on a power-of-two grid, so each of these maps is exact in
// float64 and no answer may move.
func TestPredicateInvariance(t *testing.T) {
	type variant struct {
		name  string
		f     func(Point) Point
		scale float64
		rot   int
		rev   bool
	}
	id := func(p Point) Point { return p }
	variants := []variant{
		{"translate", func(p Point) Point { return Point{p.X + 37*gridStep + 512, p.Y - 3*gridStep - 256} }, 1, 0, false},
		{"scale_x8", func(p Point) Point { return Point{p.X * 8, p.Y * 8} }, 8, 0, false},
		{"scale_1/16", func(p Point) Point { return Point{p.X / 16, p.Y / 16} }, 1.0 / 16, 0, false},
		{"rotate_90", func(p Point) Point { return Point{-p.Y, p.X} }, 1, 0, false},
		{"start_vertex", id, 1, 3, false},
		{"reverse", id, 1, 0, true},
	}
	pairs := append(generatedPairs(t, 2, 250), joinShapes(t, 120)...)
	for _, v := range variants {
		for _, c := range pairs {
			a, b := mapPoints(c.a, v.f, v.rot, v.rev), mapPoints(c.b, v.f, v.rot, v.rev)
			for _, m := range allMasks {
				if got, want := Relate(a, b, m), Relate(c.a, c.b, m); got != want {
					t.Errorf("%s %s: Relate(%v) = %v, untransformed %v\n a = %v\n b = %v", v.name, c.name, m, got, want, c.a, c.b)
				}
			}
			d0 := Distance(c.a, c.b)
			d1 := Distance(a, b)
			// Translation and reversal round the projection step of
			// pointSegDist differently; scaling and rotation are exact.
			if math.Abs(d1-d0*v.scale) > 1e-9*(1+d1) {
				t.Errorf("%s %s: Distance = %v, untransformed %v × %v", v.name, c.name, d1, d0, v.scale)
			}
			for _, d := range withinDistances {
				if math.Abs(d-d0) <= 1e-9*(1+d) {
					continue // on the threshold: rounding may decide it
				}
				if got, want := WithinDistance(a, b, d*v.scale), WithinDistance(c.a, c.b, d); got != want {
					t.Errorf("%s %s: WithinDistance(%g) = %v, untransformed %v", v.name, c.name, d, got, want)
				}
			}
		}
	}
}

// TestMaskDualities checks INSIDE↔CONTAINS, COVEREDBY↔COVERS and the
// symmetry of the symmetric masks, of Distance and of WithinDistance at
// every threshold over the whole corpus.
func TestMaskDualities(t *testing.T) {
	for _, c := range corpusPairs(t) {
		if Relate(c.a, c.b, MaskInside) != Relate(c.b, c.a, MaskContains) {
			t.Errorf("%s: INSIDE(a, b) ≠ CONTAINS(b, a)\n a = %v\n b = %v", c.name, c.a, c.b)
		}
		if Relate(c.a, c.b, MaskCoveredBy) != Relate(c.b, c.a, MaskCovers) {
			t.Errorf("%s: COVEREDBY(a, b) ≠ COVERS(b, a)\n a = %v\n b = %v", c.name, c.a, c.b)
		}
		for _, m := range allMasks {
			if m.Symmetric() && Relate(c.a, c.b, m) != Relate(c.b, c.a, m) {
				t.Errorf("%s: %v not symmetric\n a = %v\n b = %v", c.name, m, c.a, c.b)
			}
		}
		// A self-join under a distance refines each unordered pair once
		// and returns both orientations (sjoin's mirror route), so the
		// distance predicate must not depend on the operand order.
		if d, e := Distance(c.a, c.b), Distance(c.b, c.a); d != e && !(math.IsNaN(d) && math.IsNaN(e)) {
			t.Errorf("%s: Distance(a, b) = %v, Distance(b, a) = %v\n a = %v\n b = %v", c.name, d, e, c.a, c.b)
		}
		for _, d := range withinDistances {
			if WithinDistance(c.a, c.b, d) != WithinDistance(c.b, c.a, d) {
				t.Errorf("%s: WithinDistance not symmetric at %g\n a = %v\n b = %v", c.name, d, c.a, c.b)
			}
		}
	}
}

// TestJoinShapes pins what each join pair shape is, so the benchmarks
// and allocation tests measure the case their name says.
func TestJoinShapes(t *testing.T) {
	for _, c := range joinShapes(t, 220) {
		inter := Intersects(c.a, c.b)
		mbr := MBROf(c.a).Intersects(MBROf(c.b))
		d := Distance(c.a, c.b)
		var ok bool
		switch c.name {
		case "contained":
			ok = Relate(c.a, c.b, MaskInside)
		case "crossing":
			ok = Relate(c.a, c.b, MaskOverlap)
		case "mbr_disjoint":
			ok = mbr && !inter
		case "near7":
			ok = d > 0 && d <= 7
		}
		if !ok {
			t.Errorf("%s: intersects %v, MBRs meet %v, distance %g", c.name, inter, mbr, d)
		}
	}
}

// TestToleranceFalsePositive pins the one way the pruned predicates may
// answer differently from the oracle: segIntersects calling two
// segments 1.5 apart "touching". Edge cd runs at an angle of 2.1e-12
// to ab, starting 2 units past the point where its line crosses ab.
// orient's scale-relative tolerance calls c collinear with ab (the
// band around ab's line grows with cd's million-unit span) while d is
// not, and ab's ends lie on opposite sides of cd's line, so the split
// test passes on segments that never meet. The oracle, testing every
// edge pair, reports the contact; the enumerator's window puts ab and cd
// 1.5 apart, far beyond τ (contactTol), and never tests them — the
// geometrically right answer.
func TestToleranceFalsePositive(t *testing.T) {
	const theta = 2.1e-12
	x := Point{0.5, 0}
	a, b := Point{0, 0}, Point{1, 0}
	c := Point{x.X + 2, 2 * theta}
	d := Point{x.X + 2 + 1e6, (2 + 1e6) * theta}
	if !segIntersects(a, b, c, d) {
		t.Fatal("segIntersects no longer reports the false contact; the oracle and the pruned predicates should now agree here")
	}
	gap := math.Min(math.Min(pointSegDist(a, c, d), pointSegDist(b, c, d)), math.Min(pointSegDist(c, a, b), pointSegDist(d, a, b)))
	if gap < 1.4 {
		t.Fatalf("segments are %g apart, want about 1.5", gap)
	}
	// An extra edge on each line string makes their MBRs overlap, so the
	// MBR prefilter does not decide the pair before the edges do; the
	// nearest true approach is 0.36, from c to la's second edge.
	la := mustLine(t, a, b, Point{5, -1})
	lb := mustLine(t, c, d, Point{d.X, -5})
	if !refIntersects(la, lb) || !refWithinDistance(la, lb, 0.3) {
		t.Errorf("oracle: Intersects %v, WithinDistance(0.3) %v; want the false contact", refIntersects(la, lb), refWithinDistance(la, lb, 0.3))
	}
	if Intersects(la, lb) || WithinDistance(la, lb, 0.3) || !WithinDistance(la, lb, 0.37) {
		t.Errorf("pruned: Intersects %v, WithinDistance(0.3) %v, (0.37) %v; want false, false, true",
			Intersects(la, lb), WithinDistance(la, lb, 0.3), WithinDistance(la, lb, 0.37))
	}
	// Distance's reach is a vertex-to-vertex bound (2.5 here), which
	// keeps ab and cd, so it reports the oracle's 0.
	if got, want := Distance(la, lb), refDistance(la, lb); got != want {
		t.Errorf("Distance = %g, oracle %g", got, want)
	}
}
