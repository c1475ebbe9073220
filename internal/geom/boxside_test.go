package geom

import (
	"math"
	"math/rand"
	"testing"
)

// BoxSide decides a join candidate from its MBR alone, so every answer
// it gives must be the one the exact kernels give on any geometry with
// that MBR. These tests hold it to Intersects / WithinDistance and to
// the oracle (reference_test.go) on the corpus, on hand-built boxes at
// the tolerance, in and around holes, degenerate boxes and
// multipolygons, and under the fuzzer.

// kernelWithin is the exact predicate a box decision replaces: contact
// at reach 0, distance at most reach otherwise.
func kernelWithin(a, b Geometry, reach float64) bool {
	if reach == 0 {
		return Intersects(a, b)
	}
	return WithinDistance(a, b, reach)
}

// checkBoxSide classifies MBROf(a) against g and, when BoxSide decides,
// requires the exact kernel in both operand orders and the oracle to
// agree. It returns the decision.
func checkBoxSide(t *testing.T, name string, a, g Geometry, reach float64) int {
	t.Helper()
	s := BoxSide(MBROf(a), g, reach)
	if s == 0 {
		return 0
	}
	want := s == 1
	oracle := refWithinDistance(a, g, reach)
	if reach == 0 {
		oracle = refIntersects(a, g)
	}
	if kernelWithin(a, g, reach) != want || kernelWithin(g, a, reach) != want || oracle != want {
		t.Errorf("%s: BoxSide(reach %g) = %d, kernel %v / %v, oracle %v\n a = %v\n g = %v",
			name, reach, s, kernelWithin(a, g, reach), kernelWithin(g, a, reach), oracle, a, g)
	}
	return s
}

// TestBoxSideAgreesWithKernel runs every corpus pair, both ways round,
// at every WithinDistance threshold of the oracle test. The corpus must
// give the test teeth: both decisions occur.
func TestBoxSideAgreesWithKernel(t *testing.T) {
	hits, misses := 0, 0
	for _, c := range corpusPairs(t) {
		for _, reach := range withinDistances {
			for _, s := range []int{checkBoxSide(t, c.name, c.a, c.b, reach), checkBoxSide(t, c.name, c.b, c.a, reach)} {
				switch s {
				case 1:
					hits++
				case -1:
					misses++
				}
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("corpus gave %d true hits and %d true misses; want both", hits, misses)
	}
}

// boxGeom returns a geometry whose MBR is r: a rectangle, a line along a
// zero-width box, or a point.
func boxGeom(t *testing.T, r MBR) Geometry {
	t.Helper()
	switch {
	case r.IsPoint():
		return NewPoint(r.MinX, r.MinY)
	case r.Width() == 0 || r.Height() == 0:
		return mustLine(t, Point{r.MinX, r.MinY}, Point{r.MaxX, r.MaxY})
	default:
		return mustRect(t, r.MinX, r.MinY, r.MaxX, r.MaxY)
	}
}

// TestBoxSideCases pins the decision on hand-built boxes, and holds
// each nonzero one to the kernel on the box's own geometry.
func TestBoxSideCases(t *testing.T) {
	holed := mustPolygon(t, []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}, []Point{{3, 3}, {7, 3}, {7, 7}, {3, 7}})
	multi, err := NewMulti(KindMultiPolygon, []Geometry{mustRect(t, 0, 0, 2, 2), mustRect(t, 5, 0, 7, 2)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		r     MBR
		g     Geometry
		reach float64
		want  int
	}{
		{"in the solid part", MBR{1, 1, 2, 9}, holed, 0, 1},
		{"in the solid part, beyond reach of the rings", MBR{1, 1, 2, 2}, holed, 0.5, 1},
		{"in the solid part, within reach of a ring", MBR{1, 1, 2, 2}, holed, 1, 0},
		{"inside the hole", MBR{4, 4, 6, 6}, holed, 0, -1},
		{"inside the hole, beyond reach", MBR{4, 4, 6, 6}, holed, 0.5, -1},
		{"inside the hole, within reach of its ring", MBR{4, 4, 6, 6}, holed, 1.5, 0},
		{"around the hole", MBR{2, 2, 8, 8}, holed, 0, 0},
		{"touching the hole's ring", MBR{3, 4, 5, 6}, holed, 0, 0},
		{"outside, beyond reach", MBR{12, 2, 14, 4}, holed, 1.5, -1},
		{"outside, within reach", MBR{12, 2, 14, 4}, holed, 2, 0},
		{"outside, MBRs overlapping", MBR{-1, -1, 11, 11}, holed, 0, 0},
		{"point in the solid part", MBR{1, 1, 1, 1}, holed, 0, 1},
		{"point in the hole", MBR{5, 5, 5, 5}, holed, 0, -1},
		{"point on the outer ring", MBR{0, 5, 0, 5}, holed, 0, 0},
		{"point on a vertex", MBR{10, 10, 10, 10}, holed, 0, 0},
		{"zero-width box in the solid part", MBR{1, 1, 1, 9}, holed, 0, 1},
		{"zero-height box across the hole", MBR{1, 5, 9, 5}, holed, 0, 0},
		{"zero-width box in the hole", MBR{5, 4, 5, 6}, holed, 0, -1},
		{"in the second member", MBR{5.5, 0.5, 6.5, 1.5}, multi, 0, 1},
		{"between the members", MBR{3, 0.5, 4, 1.5}, multi, 0, -1},
		{"between the members, within reach", MBR{3, 0.5, 4, 1.5}, multi, 7, 0},
		{"across both members", MBR{1, 1, 6, 1.5}, multi, 0, 0},
		{"a line string", MBR{1, 1, 2, 2}, mustLine(t, Point{0, 0}, Point{10, 10}), 0, 0},
		{"a point", MBR{1, 1, 2, 2}, NewPoint(5, 5), 0, 0},
		{"an empty box", EmptyMBR(), holed, 0, 0},
	}
	for _, c := range cases {
		if got := BoxSide(c.r, c.g, c.reach); got != c.want {
			t.Errorf("%s: BoxSide = %d, want %d", c.name, got, c.want)
		}
		if c.want != 0 {
			checkBoxSide(t, c.name, boxGeom(t, c.r), c.g, c.reach)
		}
	}
}

// TestBoxSideAtTolerance pins where a box stops being decided: a box
// that, grown by reach + τ (contactTol over the box and the polygon,
// with its shortest edge), meets an edge's box is undecided, one ulp
// further away is decided. The box sits inside a square, next to its
// right edge.
func TestBoxSideAtTolerance(t *testing.T) {
	sq := mustRect(t, 0, 0, 10, 10)
	for _, reach := range []float64{0, 1e-9, 0.5} {
		lim := reach + contactTol(MBROf(sq), 10)
		// The largest MaxX whose grown box stops short of the edge, and
		// the next float up, whose grown box reaches it.
		x := 10 - lim
		for x+lim >= 10 {
			x = math.Nextafter(x, 0)
		}
		for math.Nextafter(x, 11)+lim < 10 {
			x = math.Nextafter(x, 11)
		}
		in, at := MBR{5, 4, x, 6}, MBR{5, 4, math.Nextafter(x, 11), 6}
		if got := BoxSide(at, sq, reach); got != 0 {
			t.Errorf("reach %g: box %g from the edge (limit %g): BoxSide = %d, want 0", reach, 10-at.MaxX, lim, got)
		}
		if got := checkBoxSide(t, "just beyond the limit", boxGeom(t, in), sq, reach); got != 1 {
			t.Errorf("reach %g: box %g from the edge (limit %g): BoxSide = %d, want 1", reach, 10-in.MaxX, lim, got)
		}
	}
}

// TestBoxSideDropsFalsePositive pins the one way a true miss may answer
// differently from the exact kernel: a tolerance false positive that
// the kernel reports because the *candidate* has an edge shorter than
// any of the polygon's. The candidate is a triangle whose 1e-6 edge
// crosses the line of the polygon's bottom edge 1e-8 past its corner
// (10, 0). With that edge as ab, orient's band around ab's line is
// eps·(1 + S)/|ab| ≈ 1e-6 wide, so it calls the corner collinear, and
// ab's ends lie on either side of the bottom edge's line: segIntersects
// reports contact, and τ of the kernels' clip, which shrinks with the
// candidate's 1e-6 edge, keeps that pair. BoxSide knows only the
// candidate's MBR, 1e-8 clear of every edge box — far beyond its τ,
// which uses the polygon's shortest edge — and answers the geometrically
// right "disjoint". The polygon's MBR covers the candidate's, so the
// kernels' MBR test does not decide the pair first.
func TestBoxSideDropsFalsePositive(t *testing.T) {
	const gap, h = 1e-8, 5e-7
	g := mustPolygon(t, []Point{{0, 0}, {10, 0}, {10, 10}, {30, 10}, {30, 20}, {0, 20}})
	c := mustPolygon(t, []Point{{10 + gap, -h}, {11, 0}, {10 + gap, h}})
	if d := pointSegDist(Point{10, 0}, Point{10 + gap, -h}, Point{10 + gap, h}); d < gap/2 {
		t.Fatalf("fixture: the corner is %g from the short edge, want about %g", d, gap)
	}
	if !Intersects(c, g) || !refIntersects(c, g) || !WithinDistance(c, g, 0) {
		t.Errorf("kernel %v, oracle %v, WithinDistance(0) %v: want the false contact",
			Intersects(c, g), refIntersects(c, g), WithinDistance(c, g, 0))
	}
	if got := BoxSide(MBROf(c), g, 0); got != -1 {
		t.Errorf("BoxSide = %d, want -1 (the box is %g clear of the polygon)", got, gap)
	}
}

// TestBoxSideAllocFree pins the join's per-candidate box test at zero
// allocations on the join pair shapes and on a multipolygon.
func TestBoxSideAllocFree(t *testing.T) {
	m, err := NewMulti(KindMultiPolygon, []Geometry{mustRect(t, 0, 0, 2, 2), mustRect(t, 5, 0, 7, 2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append(joinShapes(t, 220), pairCase{"multipolygon", mustRect(t, 3, 0.5, 4, 1.5), m}) {
		r := MBROf(c.a)
		for _, reach := range []float64{0, 7} {
			if n := testing.AllocsPerRun(20, func() { BoxSide(r, c.b, reach) }); n != 0 {
				t.Errorf("%s, reach %g: %v allocations per call, want 0", c.name, reach, n)
			}
		}
	}
}

// FuzzBoxSide draws a radial polygon and a second geometry (a radial
// polygon, a county-like polygon, a line string or a point), both on
// the corpus's power-of-two grid, and holds any decision on the second
// one's MBR to the exact kernel.
func FuzzBoxSide(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), 0.0, 0.0, 10.0)
	f.Add(int64(2), uint8(1), uint8(1), 3.0, 2.0, 1.0)
	f.Add(int64(3), uint8(2), uint8(2), 20.0, -5.0, 4.0)
	f.Add(int64(4), uint8(3), uint8(0), -1.0, 1.0, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, kind, reachSel uint8, dx, dy, size float64) {
		if !(math.Abs(dx) <= 100 && math.Abs(dy) <= 100 && size >= 0.5 && size <= 50) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		g := genStar(t, rng, 0, 0, 1+rng.Float64()*20, 8+rng.Intn(120))
		cx, cy := snap(dx), snap(dy)
		var h Geometry
		switch kind % 4 {
		case 0:
			h = genStar(t, rng, cx, cy, size, 8+rng.Intn(120))
		case 1:
			h = genCounty(t, rng, cx, cy, snap(size), 1+rng.Intn(8))
		case 2:
			h = mustLine(t, Point{cx, cy}, Point{snap(cx + size), snap(cy - size/2)}, Point{snap(cx + size/3), snap(cy + size)})
		default:
			h = NewPoint(cx, cy)
		}
		reach := []float64{0, 1e-9, 0.5, 7}[reachSel%4]
		checkBoxSide(t, "fuzz", h, g, reach)
	})
}
