package geom

import "testing"

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
