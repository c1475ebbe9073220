package geom

import (
	"math/rand"
	"testing"
)

// The secondary filter's kernels on the four join pair shapes. The
// -benchmem allocation counts are deterministic, so `make bench-smoke`
// runs these in its allocs lane; the timings are a layer number, not a
// claim (claims come from the repository benchmark).

func BenchmarkIntersects(b *testing.B) {
	for _, c := range joinShapes(b, 220) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Intersects(c.a, c.b)
			}
		})
	}
}

// BenchmarkWithinDistance runs at the join_refine self-join's distance.
func BenchmarkWithinDistance(b *testing.B) {
	for _, c := range joinShapes(b, 220) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				WithinDistance(c.a, c.b, 7)
			}
		})
	}
}

// BenchmarkBoxSide classifies each shape's candidate MBR against its
// partner at the reach its join uses (7 for the county neighbours).
func BenchmarkBoxSide(b *testing.B) {
	for _, c := range joinShapes(b, 220) {
		r, reach := MBROf(c.a), shapeReach(c)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BoxSide(r, c.b, reach)
			}
		})
	}
}

// BenchmarkRefine prices the secondary filter's per-candidate work on
// join_refine's primary statement (block groups × zones, ANYINTERACT).
// One op is ten candidates in the proportions BoxSide sorts that
// statement's candidates into at seed 1 (204 hits, 130 misses, 313
// undecided of 647): three block groups inside a zone, two in the
// sliver of a zone's MBR below its slanted edge, five crossing a zone's
// boundary. "exact" runs Intersects on every candidate; "box" runs
// BoxSide first and Intersects only on the undecided.
func BenchmarkRefine(b *testing.B) {
	shapes := joinShapes(b, 220)
	var ring []Point
	corners := []Point{{0, 0}, {60, 12}, {60, 60}, {0, 60}}
	for i, c := range corners {
		d := corners[(i+1)%len(corners)]
		for k := 0; k <= 8; k++ {
			f := float64(k) / 9
			ring = append(ring, Point{c.X + (d.X-c.X)*f, c.Y + (d.Y-c.Y)*f})
		}
	}
	sliver := pairCase{"sliver", genStar(b, rand.New(rand.NewSource(5)), 50, 3, 1.5, 220), mustPolygon(b, ring)}
	mix := []struct {
		c    pairCase
		n    int
		side int
	}{{shapes[0], 3, 1}, {sliver, 2, -1}, {shapes[1], 5, 0}}
	var cands []pairCase
	for _, m := range mix {
		if s := BoxSide(MBROf(m.c.a), m.c.b, 0); s != m.side || !MBROf(m.c.a).Intersects(MBROf(m.c.b)) {
			b.Fatalf("%s: BoxSide = %d, want %d, on a primary-filter candidate", m.c.name, s, m.side)
		}
		for range m.n {
			cands = append(cands, m.c)
		}
	}
	modes := []struct {
		name   string
		refine func(c pairCase) bool
	}{
		{"exact", func(c pairCase) bool { return Intersects(c.a, c.b) }},
		{"box", func(c pairCase) bool {
			if s := BoxSide(MBROf(c.a), c.b, 0); s != 0 {
				return s == 1
			}
			return Intersects(c.a, c.b)
		}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range cands {
					m.refine(c)
				}
			}
		})
	}
}

// shapeReach is the reach the join of a join shape tests at: the
// counties self-join's distance for the neighbours, contact otherwise.
func shapeReach(c pairCase) float64 {
	if c.name == "near7" {
		return 7
	}
	return 0
}

// TestPredicatesAllocFree pins the exact predicates the joins call per
// candidate at zero heap allocations on polygon pairs: the join shapes,
// an edge-sharing pair, on which TOUCH and OVERLAP run every stage of
// the interior test, and equal polygons and multi-polygons whose holes
// and members come in another order, on which EQUAL matches them up.
func TestPredicatesAllocFree(t *testing.T) {
	outer := []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	h1, h2 := []Point{{1, 1}, {2, 1}, {2, 2}}, []Point{{5, 5}, {6, 5}, {6, 6}}
	d1, d2 := mustPolygon(t, outer, h1, h2), mustPolygon(t, outer, h2, h1)
	m1, err := NewMulti(KindMultiPolygon, []Geometry{d1, mustRect(t, 20, 20, 21, 21)})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMulti(KindMultiPolygon, []Geometry{mustRect(t, 20, 20, 21, 21), d2})
	if err != nil {
		t.Fatal(err)
	}
	extra := []pairCase{
		{"shared_edge", mustRect(t, 0, 0, 2, 2), mustRect(t, 2, 0, 4, 2)},
		{"equal_holes", d1, d2},
		{"equal_multi", m1, m2},
	}
	for _, c := range append(joinShapes(t, 220), extra...) {
		calls := map[string]func(){
			"Intersects":     func() { Intersects(c.a, c.b) },
			"WithinDistance": func() { WithinDistance(c.a, c.b, 7) },
			"TOUCH":          func() { Relate(c.a, c.b, MaskTouch) },
			"OVERLAP":        func() { Relate(c.a, c.b, MaskOverlap) },
			"EQUAL":          func() { Relate(c.a, c.b, MaskEqual) },
		}
		for name, fn := range calls {
			if n := testing.AllocsPerRun(20, fn); n != 0 {
				t.Errorf("%s on %s: %v allocations per call, want 0", name, c.name, n)
			}
		}
	}
}
