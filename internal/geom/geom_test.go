package geom

import (
	"errors"
	"math"
	"testing"
)

func mustPolygon(t testing.TB, rings ...[]Point) Geometry {
	t.Helper()
	g, err := NewPolygon(rings...)
	if err != nil {
		t.Fatalf("NewPolygon: %v", err)
	}
	return g
}

func mustRect(t testing.TB, minX, minY, maxX, maxY float64) Geometry {
	t.Helper()
	g, err := NewRect(minX, minY, maxX, maxY)
	if err != nil {
		t.Fatalf("NewRect: %v", err)
	}
	return g
}

func mustLine(t testing.TB, pts ...Point) Geometry {
	t.Helper()
	g, err := NewLineString(pts)
	if err != nil {
		t.Fatalf("NewLineString: %v", err)
	}
	return g
}

func TestNewPoint(t *testing.T) {
	p := NewPoint(3, 4)
	if p.Kind != KindPoint || p.Pts[0] != (Point{3, 4}) {
		t.Fatalf("unexpected point %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestNewLineStringErrors(t *testing.T) {
	if _, err := NewLineString([]Point{{0, 0}}); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("1-point line: got %v, want ErrTooFewPoints", err)
	}
	if _, err := NewLineString([]Point{{0, 0}, {math.NaN(), 1}}); !errors.Is(err, ErrNotFinite) {
		t.Errorf("NaN line: got %v, want ErrNotFinite", err)
	}
}

func TestNewPolygonNormalisesOrientation(t *testing.T) {
	// Supply the outer ring clockwise; constructor must flip it to CCW.
	cw := []Point{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	g := mustPolygon(t, cw)
	if a := signedArea(g.Rings[0]); a <= 0 {
		t.Errorf("outer ring area = %g, want positive (CCW)", a)
	}
	// Supply a hole counter-clockwise; constructor must flip it to CW.
	outer := []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	holeCCW := []Point{{2, 2}, {4, 2}, {4, 4}, {2, 4}}
	g = mustPolygon(t, outer, holeCCW)
	if a := signedArea(g.Rings[1]); a >= 0 {
		t.Errorf("hole ring area = %g, want negative (CW)", a)
	}
}

func TestNewPolygonClosedRingAccepted(t *testing.T) {
	closed := []Point{{0, 0}, {1, 0}, {1, 1}, {0, 0}}
	g := mustPolygon(t, closed)
	if len(g.Rings[0]) != 3 {
		t.Errorf("ring length = %d, want 3 (closing vertex dropped)", len(g.Rings[0]))
	}
}

func TestNewPolygonErrors(t *testing.T) {
	if _, err := NewPolygon(); !errors.Is(err, ErrEmpty) {
		t.Errorf("no rings: got %v, want ErrEmpty", err)
	}
	if _, err := NewPolygon([]Point{{0, 0}, {1, 1}}); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("2-point ring: got %v, want ErrTooFewPoints", err)
	}
	if _, err := NewPolygon([]Point{{0, 0}, {1, 1}, {2, 2}}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("collinear ring: got %v, want ErrDegenerate", err)
	}
}

func TestNewRect(t *testing.T) {
	g := mustRect(t, 1, 2, 3, 5)
	if got, want := g.Area(), 6.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Area = %g, want %g", got, want)
	}
	if _, err := NewRect(3, 2, 1, 5); err == nil {
		t.Errorf("inverted rect: want error")
	}
}

func TestNewMulti(t *testing.T) {
	mp, err := NewMulti(KindMultiPoint, []Geometry{NewPoint(0, 0), NewPoint(1, 1)})
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	if mp.NumVertices() != 2 {
		t.Errorf("NumVertices = %d, want 2", mp.NumVertices())
	}
	if _, err := NewMulti(KindMultiPolygon, []Geometry{NewPoint(0, 0)}); !errors.Is(err, ErrBadElement) {
		t.Errorf("mismatched element: got %v, want ErrBadElement", err)
	}
	if _, err := NewMulti(KindPoint, nil); !errors.Is(err, ErrBadKind) {
		t.Errorf("bad kind: got %v, want ErrBadKind", err)
	}
	if _, err := NewMulti(KindMultiPoint, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty multi: got %v, want ErrEmpty", err)
	}
}

func TestAreaWithHole(t *testing.T) {
	outer := []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	hole := []Point{{2, 2}, {4, 2}, {4, 4}, {2, 4}}
	g := mustPolygon(t, outer, hole)
	if got, want := g.Area(), 100.0-4.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("Area = %g, want %g", got, want)
	}
}

func TestLength(t *testing.T) {
	l := mustLine(t, Point{0, 0}, Point{3, 4})
	if got := l.Length(); math.Abs(got-5) > 1e-12 {
		t.Errorf("line Length = %g, want 5", got)
	}
	sq := mustRect(t, 0, 0, 2, 2)
	if got := sq.Length(); math.Abs(got-8) > 1e-12 {
		t.Errorf("square perimeter = %g, want 8", got)
	}
	if got := NewPoint(1, 1).Length(); got != 0 {
		t.Errorf("point Length = %g, want 0", got)
	}
}

func TestCentroid(t *testing.T) {
	sq := mustRect(t, 0, 0, 2, 2)
	c := sq.Centroid()
	if math.Abs(c.X-1) > 1e-12 || math.Abs(c.Y-1) > 1e-12 {
		t.Errorf("Centroid = %+v, want (1,1)", c)
	}
}

func TestTranslate(t *testing.T) {
	g := mustRect(t, 0, 0, 1, 1).Translate(5, 7)
	m := MBROf(g)
	want := MBR{5, 7, 6, 8}
	if m != want {
		t.Errorf("translated MBR = %v, want %v", m, want)
	}
	// Original unchanged by construction (Translate copies).
	l := mustLine(t, Point{0, 0}, Point{1, 1})
	l2 := l.Translate(1, 0)
	if l.Pts[0] != (Point{0, 0}) || l2.Pts[0] != (Point{1, 0}) {
		t.Errorf("Translate mutated source or produced wrong copy")
	}
}

func TestEqual(t *testing.T) {
	a := mustPolygon(t, []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}})
	// Same square with rotated starting vertex and opposite direction.
	b := mustPolygon(t, []Point{{2, 2}, {2, 0}, {0, 0}, {0, 2}})
	if !a.Equal(b) {
		t.Errorf("rotated/reversed square not Equal")
	}
	c := mustPolygon(t, []Point{{0, 0}, {3, 0}, {3, 3}, {0, 3}})
	if a.Equal(c) {
		t.Errorf("different squares reported Equal")
	}
	l1 := mustLine(t, Point{0, 0}, Point{1, 1}, Point{2, 0})
	l2 := mustLine(t, Point{2, 0}, Point{1, 1}, Point{0, 0})
	if !l1.Equal(l2) {
		t.Errorf("reversed line not Equal")
	}
}

func TestNumVertices(t *testing.T) {
	outer := []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	hole := []Point{{2, 2}, {4, 2}, {4, 4}, {2, 4}}
	g := mustPolygon(t, outer, hole)
	if got := g.NumVertices(); got != 8 {
		t.Errorf("NumVertices = %d, want 8", got)
	}
}

func TestValidateRejectsBadKind(t *testing.T) {
	var g Geometry
	if err := g.Validate(); !errors.Is(err, ErrBadKind) {
		t.Errorf("zero Geometry Validate: got %v, want ErrBadKind", err)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNone:            "NONE",
		KindPoint:           "POINT",
		KindLineString:      "LINESTRING",
		KindPolygon:         "POLYGON",
		KindMultiPoint:      "MULTIPOINT",
		KindMultiLineString: "MULTILINESTRING",
		KindMultiPolygon:    "MULTIPOLYGON",
		Kind(200):           "KIND(200)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestEqualMatchesMultisets checks that holes and multi members pair up
// one to one: a repeated member on one side is not matched twice.
func TestEqualMatchesMultisets(t *testing.T) {
	outer := []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	h1, h2 := []Point{{1, 1}, {2, 1}, {2, 2}}, []Point{{5, 5}, {6, 5}, {6, 6}}
	twice := Geometry{Kind: KindPolygon, Rings: [][]Point{outer, h1, h1}}
	if twice.Equal(mustPolygon(t, outer, h1, h2)) || mustPolygon(t, outer, h1, h2).Equal(twice) {
		t.Errorf("polygon with a repeated hole reported Equal to one with two different holes")
	}
	if !mustPolygon(t, outer, h1, h2).Equal(mustPolygon(t, outer, h2, h1)) {
		t.Errorf("hole order changed Equal")
	}
	a, b := NewPoint(1, 1), NewPoint(2, 2)
	aa := Geometry{Kind: KindMultiPoint, Elems: []Geometry{a, a}}
	ab := Geometry{Kind: KindMultiPoint, Elems: []Geometry{a, b}}
	ba := Geometry{Kind: KindMultiPoint, Elems: []Geometry{b, a}}
	if aa.Equal(ab) || ab.Equal(aa) {
		t.Errorf("multipoint with a repeated member reported Equal to one with two different members")
	}
	if !ab.Equal(ba) {
		t.Errorf("member order changed Equal")
	}
}
