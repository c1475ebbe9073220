package geom

import (
	"math"
	"testing"
)

// pointInRingEdgeOrder is the ring walk pointInRing replaced, kept as
// its oracle: every edge from r[0] on, orientation before the box.
func pointInRingEdgeOrder(p Point, r []Point) int {
	n := len(r)
	inside := false
	for i := 0; i < n; i++ {
		a, b := r[i], r[(i+1)%n]
		if orient(a, b, p) == 0 && onSegment(a, b, p) {
			return 0
		}
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xCross := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if xCross > p.X {
				inside = !inside
			}
		}
	}
	if inside {
		return 1
	}
	return -1
}

// corpusRings returns every ring, outer and hole, of every polygon in
// the oracle corpus, multi-polygon members included.
func corpusRings(t *testing.T) [][]Point {
	var rings [][]Point
	var add func(g Geometry)
	add = func(g Geometry) {
		rings = append(rings, g.Rings...)
		for _, e := range g.Elems {
			add(e)
		}
	}
	for _, c := range corpusPairs(t) {
		add(c.a)
		add(c.b)
	}
	return rings
}

// ringProbes returns points on, next to and just off r's boundary: each
// vertex and each edge midpoint, both moved by ±eps and by ±1 ulp on
// each axis.
func ringProbes(r []Point) []Point {
	var out []Point
	near := func(p Point) {
		out = append(out, p)
		for _, d := range []float64{-eps, eps} {
			out = append(out, Point{p.X + d, p.Y}, Point{p.X, p.Y + d})
		}
		for _, to := range []float64{math.Inf(-1), math.Inf(1)} {
			out = append(out, Point{math.Nextafter(p.X, to), p.Y}, Point{p.X, math.Nextafter(p.Y, to)})
		}
	}
	a := r[len(r)-1]
	for _, b := range r {
		near(b)
		near(Point{(a.X + b.X) / 2, (a.Y + b.Y) / 2})
		a = b
	}
	return out
}

// TestPointInRingMatchesEdgeOrder checks the box-first walk against the
// old loop on the corpus rings, probed on, beside and just off every
// vertex and edge, and with the next ring's probes, which land inside
// and outside it.
func TestPointInRingMatchesEdgeOrder(t *testing.T) {
	rings := corpusRings(t)
	if len(rings) < 100 {
		t.Fatalf("corpus has %d rings", len(rings))
	}
	counts := map[int]int{}
	for i, r := range rings {
		next := rings[(i+1)%len(rings)]
		for _, probes := range [][]Point{ringProbes(r), ringProbes(next)} {
			for _, p := range probes {
				got, want := pointInRing(p, r), pointInRingEdgeOrder(p, r)
				if got != want {
					t.Fatalf("ring %d (%d vertices), point %v: %d, old loop %d", i, len(r), p, got, want)
				}
				counts[got]++
			}
		}
	}
	// The probes must reach all three answers, or the check is vacuous.
	for _, c := range []int{-1, 0, 1} {
		if counts[c] == 0 {
			t.Errorf("no probe classified %d (counts %v)", c, counts)
		}
	}
	t.Logf("%d rings, answers %v", len(rings), counts)
	if got := pointInRing(Point{1, 1}, nil); got != -1 {
		t.Errorf("empty ring: %d, want -1", got)
	}
}
