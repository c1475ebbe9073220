package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmptyMBR(t *testing.T) {
	e := EmptyMBR()
	if !e.IsEmpty() {
		t.Fatalf("EmptyMBR not empty")
	}
	if e.Area() != 0 || e.Margin() != 0 {
		t.Errorf("empty MBR area/margin nonzero")
	}
	m := MBR{0, 0, 1, 1}
	if e.Union(m) != m || m.Union(e) != m {
		t.Errorf("empty MBR is not the Union identity")
	}
	if e.Intersects(m) || m.Intersects(e) {
		t.Errorf("empty MBR intersects something")
	}
	if e.Contains(m) || m.Contains(e) {
		t.Errorf("Contains with empty operand should be false")
	}
}

func TestMBRIsPoint(t *testing.T) {
	for _, c := range []struct {
		m    MBR
		want bool
	}{
		{MBR{}, true}, // the origin: a real point, not "no MBR"
		{MBR{3, 4, 3, 4}, true},
		{MBROf(NewPoint(-1, 2)), true},
		{MBROf(mustLine(t, Point{5, 5}, Point{5, 5})), true},
		{MBR{3, 4, 3, 5}, false}, // a vertical segment
		{MBR{3, 4, math.Nextafter(3, 4), 4}, false},
		{MBROf(mustRect(t, 0, 0, 1, 1)), false},
		{EmptyMBR(), false},
		{MBR{math.NaN(), 0, math.NaN(), 0}, false},
	} {
		if got := c.m.IsPoint(); got != c.want {
			t.Errorf("%v.IsPoint() = %v, want %v", c.m, got, c.want)
		}
	}
}

func TestMBRBasics(t *testing.T) {
	m := MBR{0, 0, 4, 2}
	if m.Width() != 4 || m.Height() != 2 || m.Area() != 8 || m.Margin() != 6 {
		t.Errorf("basic accessors wrong: %+v", m)
	}
	if c := m.Center(); c != (Point{2, 1}) {
		t.Errorf("Center = %v, want (2,1)", c)
	}
	if !m.Valid() {
		t.Errorf("valid MBR reported invalid")
	}
	if (MBR{MinX: math.NaN(), MaxX: 1, MaxY: 1}).Valid() {
		t.Errorf("NaN MBR reported valid")
	}
}

func TestMBRIntersects(t *testing.T) {
	a := MBR{0, 0, 2, 2}
	cases := []struct {
		b    MBR
		want bool
	}{
		{MBR{1, 1, 3, 3}, true},
		{MBR{2, 2, 3, 3}, true}, // corner touch counts
		{MBR{3, 3, 4, 4}, false},
		{MBR{0.5, 0.5, 1.5, 1.5}, true}, // contained
		{MBR{-1, 0, 0, 2}, true},        // edge touch
		{MBR{-2, -2, -1, -1}, false},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("Intersects(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("Intersects not symmetric for %v", c.b)
		}
	}
}

func TestMBRContains(t *testing.T) {
	a := MBR{0, 0, 10, 10}
	if !a.Contains(MBR{1, 1, 2, 2}) || !a.Contains(a) {
		t.Errorf("Contains false negatives")
	}
	if a.Contains(MBR{5, 5, 11, 6}) {
		t.Errorf("Contains false positive")
	}
	if !a.ContainsPoint(Point{0, 0}) || a.ContainsPoint(Point{-1, 5}) {
		t.Errorf("ContainsPoint wrong")
	}
}

func TestMBRExpandAndDist(t *testing.T) {
	a := MBR{0, 0, 1, 1}
	b := MBR{4, 0, 5, 1}
	if got := a.Dist(b); math.Abs(got-3) > 1e-12 {
		t.Errorf("Dist = %g, want 3", got)
	}
	if got := a.Dist(MBR{0.5, 0.5, 2, 2}); got != 0 {
		t.Errorf("overlapping Dist = %g, want 0", got)
	}
	// Diagonal separation.
	c := MBR{4, 4, 5, 5}
	if got := a.Dist(c); math.Abs(got-3*math.Sqrt2) > 1e-12 {
		t.Errorf("diagonal Dist = %g, want %g", got, 3*math.Sqrt2)
	}
	if !a.Expand(3).Intersects(b) {
		t.Errorf("Expand(3) should reach b")
	}
	if a.Expand(2.9).Intersects(b) {
		t.Errorf("Expand(2.9) should not reach b")
	}
}

func TestMBREnlargement(t *testing.T) {
	a := MBR{0, 0, 2, 2}
	if got := a.Enlargement(MBR{1, 1, 2, 2}); got != 0 {
		t.Errorf("contained Enlargement = %g, want 0", got)
	}
	if got := a.Enlargement(MBR{0, 0, 4, 2}); math.Abs(got-4) > 1e-12 {
		t.Errorf("Enlargement = %g, want 4", got)
	}
}

func TestMBROf(t *testing.T) {
	outer := []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	hole := []Point{{2, 2}, {4, 2}, {4, 4}, {2, 4}}
	g := mustPolygon(t, outer, hole)
	if m := MBROf(g); m != (MBR{0, 0, 10, 10}) {
		t.Errorf("polygon MBR = %v", m)
	}
	mp, _ := NewMulti(KindMultiPoint, []Geometry{NewPoint(-1, 5), NewPoint(3, -2)})
	if m := MBROf(mp); m != (MBR{-1, -2, 3, 5}) {
		t.Errorf("multipoint MBR = %v", m)
	}
	if m := MBROf(NewPoint(7, 8)); m != (MBR{7, 8, 7, 8}) {
		t.Errorf("point MBR = %v", m)
	}
}

// --- property tests ---

// boundedMBR maps four arbitrary floats to a well-formed MBR in a
// moderate coordinate range.
func boundedMBR(a, b, c, d float64) MBR {
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1000)
	}
	x1, x2 := clamp(a), clamp(b)
	y1, y2 := clamp(c), clamp(d)
	return MBR{math.Min(x1, x2), math.Min(y1, y2), math.Max(x1, x2) + 1, math.Max(y1, y2) + 1}
}

func TestMBRUnionContainsOperands(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		m := boundedMBR(a, b, c, d)
		o := boundedMBR(e, g, h, i)
		u := m.Union(o)
		return u.Contains(m) && u.Contains(o)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMBRIntersectionSound(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		m := boundedMBR(a, b, c, d)
		o := boundedMBR(e, g, h, i)
		x := m.Intersect(o)
		if m.Intersects(o) != !x.IsEmpty() {
			// Degenerate zero-area overlaps are still "intersecting".
			if x.MinX > x.MaxX || x.MinY > x.MaxY {
				return !m.Intersects(o)
			}
		}
		if x.IsEmpty() {
			return true
		}
		return m.Contains(x) && o.Contains(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMBRDistZeroIffIntersects(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		m := boundedMBR(a, b, c, d)
		o := boundedMBR(e, g, h, i)
		return (m.Dist(o) == 0) == m.Intersects(o)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMBROfContainsAllVertices(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 6 {
			return true
		}
		pts := make([]Point, 0, len(raw)/2)
		for i := 0; i+1 < len(raw) && len(pts) < 32; i += 2 {
			x, y := raw[i], raw[i+1]
			if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
				return true
			}
			pts = append(pts, Point{math.Mod(x, 1e6), math.Mod(y, 1e6)})
		}
		if len(pts) < 2 {
			return true
		}
		g, err := NewLineString(pts)
		if err != nil {
			return true
		}
		m := MBROf(g)
		for _, p := range pts {
			if !m.ContainsPoint(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
