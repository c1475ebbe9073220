package geom

import (
	"math"
	"testing"
	"unsafe"
)

// Bounded attaches a memo of a geometry's first chain span, and every
// kernel that reads it must give the answer it gives without it, bit
// for bit: the memo holds the same floats span() and MBROf compute.

// boundedSides returns the four ways a pair can carry the memo: on
// neither side, on either one, on both.
func boundedSides(c pairCase) [4][2]Geometry {
	return [4][2]Geometry{
		{c.a, c.b},
		{Bounded(c.a), c.b},
		{c.a, Bounded(c.b)},
		{Bounded(c.a), Bounded(c.b)},
	}
}

// sameBits reports whether two floats are the same bit pattern.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// sameMBR reports whether two rectangles are the same bit patterns.
func sameMBR(m, n MBR) bool {
	return sameBits(m.MinX, n.MinX) && sameBits(m.MinY, n.MinY) &&
		sameBits(m.MaxX, n.MaxX) && sameBits(m.MaxY, n.MaxY)
}

// TestBoundedAnswersIdentical runs every relate mask, WithinDistance and
// BoxSide at every oracle threshold, and Distance, over the corpus and
// the join shapes at join scale, with the memo on neither side, either
// side or both, and requires the answers of the unbounded pair.
func TestBoundedAnswersIdentical(t *testing.T) {
	pairs := append(corpusPairs(t), joinShapes(t, 220)...)
	bounded := 0
	for _, c := range pairs {
		sides := boundedSides(c)
		if sides[3][0].memo != nil || sides[3][1].memo != nil {
			bounded++
		}
		base := sides[0]
		for k, s := range sides[1:] {
			a, b := s[0], s[1]
			for _, m := range allMasks {
				if got, want := Relate(a, b, m), Relate(base[0], base[1], m); got != want {
					t.Errorf("%s, sides %d: Relate(%v) = %v, unbounded %v", c.name, k+1, m, got, want)
				}
			}
			for _, d := range withinDistances {
				if got, want := WithinDistance(a, b, d), WithinDistance(base[0], base[1], d); got != want {
					t.Errorf("%s, sides %d: WithinDistance(%g) = %v, unbounded %v", c.name, k+1, d, got, want)
				}
				if got, want := BoxSide(MBROf(a), b, d), BoxSide(MBROf(base[0]), base[1], d); got != want {
					t.Errorf("%s, sides %d: BoxSide(%g) = %d, unbounded %d", c.name, k+1, d, got, want)
				}
				if got, want := BoxSide(MBROf(b), a, d), BoxSide(MBROf(base[1]), base[0], d); got != want {
					t.Errorf("%s, sides %d: BoxSide(%g) swapped = %d, unbounded %d", c.name, k+1, d, got, want)
				}
			}
			if got, want := Distance(a, b), Distance(base[0], base[1]); !sameBits(got, want) {
				t.Errorf("%s, sides %d: Distance = %v, unbounded %v", c.name, k+1, got, want)
			}
		}
	}
	if bounded == 0 {
		t.Fatal("no corpus pair carried a memo")
	}
}

// TestBoundedMemo holds the memo of each kind to what the kernels
// compute without it: MBROf and the first chain's span, bit for bit.
// Points and multi kinds get none, and a memo rides along every copy.
func TestBoundedMemo(t *testing.T) {
	multi, err := NewMulti(KindMultiPolygon, []Geometry{mustRect(t, 0, 0, 1, 1), mustRect(t, 2, 2, 3, 3)})
	if err != nil {
		t.Fatal(err)
	}
	mline, err := NewMulti(KindMultiLineString, []Geometry{mustLine(t, Point{0, 0}, Point{1, 1})})
	if err != nil {
		t.Fatal(err)
	}
	mpoint, err := NewMulti(KindMultiPoint, []Geometry{NewPoint(1, 2), NewPoint(3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []Geometry{NewPoint(1, 2), multi, mline, mpoint} {
		if bg := Bounded(g); bg.memo != nil || bg.MemoBytes() != 0 {
			t.Errorf("%v: Bounded attached a memo", g.Kind)
		}
	}
	var gs []Geometry
	for _, c := range append(corpusPairs(t), joinShapes(t, 220)...) {
		gs = append(gs, c.a, c.b)
	}
	// Signed zeros: the memo's box must keep the zero the kernels keep.
	negZero := math.Copysign(0, -1)
	gs = append(gs,
		mustLine(t, Point{0, 0}, Point{negZero, 3}, Point{2, 0}),
		mustPolygon(t, []Point{{0, 0}, {1, 0}, {negZero, 1}}),
	)
	kinds := map[Kind]int{}
	for _, g := range gs {
		if g.Kind != KindLineString && g.Kind != KindPolygon {
			continue
		}
		kinds[g.Kind]++
		bg := Bounded(g)
		if bg.memo == nil || bg.MemoBytes() != int(unsafe.Sizeof(bounds{})) {
			t.Fatalf("%v: no memo, or MemoBytes %d is not the memo's size", g.Kind, bg.MemoBytes())
		}
		box, short := g.chain(0).span()
		if !sameMBR(bg.memo.box, box) || !sameBits(bg.memo.short, short) {
			t.Errorf("%v: memo %v/%v, span %v/%v", g.Kind, bg.memo.box, bg.memo.short, box, short)
		}
		if m := MBROf(g); !sameMBR(bg.memo.box, m) {
			t.Errorf("%v: memo box %v, MBROf %v", g.Kind, bg.memo.box, m)
		}
		if m := MBROf(bg); !sameMBR(m, box) {
			t.Errorf("%v: bounded MBROf %v, span %v", g.Kind, m, box)
		}
		if again := Bounded(bg); again.memo != bg.memo {
			t.Errorf("%v: Bounded replaced a memo", g.Kind)
		}
		var buf [1]Geometry
		if p := bg.primitives(&buf); p[0].chain(0).memo != bg.memo {
			t.Errorf("%v: the memo did not ride along a copy", g.Kind)
		}
		if g.chains() > 1 && bg.chain(1).memo != nil {
			t.Errorf("%v: a hole chain carries the outer ring's memo", g.Kind)
		}
	}
	if kinds[KindLineString] == 0 || kinds[KindPolygon] == 0 {
		t.Fatalf("corpus covered kinds %v; want lines and polygons", kinds)
	}
}

// TestBoundedAllocFloor pins Bounded at one allocation for a line or a
// polygon (the memo) and none for a point, a multi kind or a geometry
// that already carries a memo.
func TestBoundedAllocFloor(t *testing.T) {
	multi, err := NewMulti(KindMultiPolygon, []Geometry{mustRect(t, 0, 0, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	poly := joinShapes(t, 220)[0].a
	var sink Geometry
	for _, c := range []struct {
		name string
		g    Geometry
		want float64
	}{
		{"line", mustLine(t, Point{0, 0}, Point{1, 1}, Point{2, 0}), 1},
		{"polygon", poly, 1},
		{"point", NewPoint(1, 2), 0},
		{"multipolygon", multi, 0},
		{"bounded", Bounded(poly), 0},
	} {
		if n := testing.AllocsPerRun(50, func() { sink = Bounded(c.g) }); n != c.want {
			t.Errorf("Bounded(%s): %v allocations, want %v", c.name, n, c.want)
		}
	}
	_ = sink
}
