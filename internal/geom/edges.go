package geom

import "math"

// The one edge-pair enumerator. Every exact predicate and distance that
// compares two boundaries (predicates.go, distance.go) asks it for the
// edge pairs that could meet, instead of testing all n·m of them. For a
// join candidate lying strictly inside its partner — most of what the
// secondary filter sees — no edge of the partner comes near the
// candidate at all, and the enumerator answers after one pass over each
// side without a single segment test.

// chain is one side of an edge-pair enumeration: the vertices of a
// polyline, or of a ring when closed (its last vertex joins the first).
// A bounded geometry's first chain carries the geometry's memo
// (Geometry.chain), which span returns instead of walking the edges.
type chain struct {
	pts    []Point
	closed bool
	memo   *bounds
}

func path(pts []Point) chain { return chain{pts: pts} }
func ring(r []Point) chain   { return chain{pts: r, closed: true} }

// edges returns the number of edges of c.
func (c chain) edges() int {
	if c.closed {
		return len(c.pts)
	}
	return len(c.pts) - 1
}

// edge returns the end points of c's i-th edge.
func (c chain) edge(i int) (Point, Point) {
	j := i + 1
	if j == len(c.pts) {
		j = 0
	}
	return c.pts[i], c.pts[j]
}

// anyEdge reports whether fn holds for some edge of c.
func (c chain) anyEdge(fn func(a, b Point) bool) bool {
	for i, n := 0, c.edges(); i < n; i++ {
		if a, b := c.edge(i); fn(a, b) {
			return true
		}
	}
	return false
}

// span returns c's bounding box and the L∞ length of its shortest edge,
// from c's memo when it has one.
func (c chain) span() (MBR, float64) {
	if c.memo != nil {
		return c.memo.box, c.memo.short
	}
	m, short := EmptyMBR(), math.Inf(1)
	for i, n := 0, c.edges(); i < n; i++ {
		a, b := c.edge(i)
		m = MBR{min(m.MinX, a.X), min(m.MinY, a.Y), max(m.MaxX, a.X), max(m.MaxY, a.Y)}
		short = min(short, max(math.Abs(b.X-a.X), math.Abs(b.Y-a.Y)))
	}
	if !c.closed && len(c.pts) > 1 {
		// A path's last vertex starts no edge.
		p := c.pts[len(c.pts)-1]
		m = MBR{min(m.MinX, p.X), min(m.MinY, p.Y), max(m.MaxX, p.X), max(m.MaxY, p.Y)}
	}
	return m, short
}

// boxMeets reports whether the box of edge ab meets w.
func boxMeets(w MBR, a, b Point) bool {
	return min(a.X, b.X) <= w.MaxX && max(a.X, b.X) >= w.MinX &&
		min(a.Y, b.Y) <= w.MaxY && max(a.Y, b.Y) >= w.MinY
}

// countIn returns how many of c's edges have a box meeting w.
func (c chain) countIn(w MBR) int {
	n := 0
	for i, e := 0, c.edges(); i < e; i++ {
		if a, b := c.edge(i); boxMeets(w, a, b) {
			n++
		}
	}
	return n
}

// contactTol returns τ, the distance by which the enumerator grows its
// window and edge boxes so that clipping never drops a pair the segment
// kernels (segment.go) would find in contact near both segments. Let E
// be the larger side of union, the box of both chains, and ℓ the L∞
// length of the shortest edge on either side. segIntersects reports a
// contact in one of three ways:
//
//  1. All four orientations are non-zero and split both ways: the
//     segments cross, so their boxes overlap and any τ ≥ 0 keeps them.
//  2. A collinear branch: onSegment places an endpoint within eps of
//     the other segment's box on each axis, so τ ≥ eps keeps them.
//  3. The split test passes with some orientation zero: orient called
//     an endpoint, say c, collinear with edge ab, i.e. |(b−a)×(c−a)| ≤
//     eps·(1+S) with S = |b−a|₁ + |c−a|₁. All points lie in union, so
//     each L1 difference is at most 2E and S ≤ 4E; dividing by
//     |b−a|₂ ≥ ℓ puts c within eps·(1+4E)/ℓ of the line through a and
//     b. When c projects onto the segment that is its distance to the
//     segment, so the boxes lie that close.
//
// τ = eps·(1+4E)/min(1, ℓ) is at least eps and at least that band, so
// it dominates onSegment's tolerance and orient's. What it does not
// cover is case 3 with c in the band of the line but beyond the
// segment's end: there segIntersects reports segments farther apart
// than τ as touching, a tolerance false positive the clip rightly drops
// (TestToleranceFalsePositive pins one). segProperCross is case 1 only,
// and segSegDist is zero on contact and otherwise a Euclidean distance
// between the segments, so growing by d + τ keeps every pair within d.
// A zero-length edge makes τ infinite: nothing is clipped. Rounding
// cannot undo the argument: box tests compare stored coordinates
// exactly, subtracting a larger τ never rounds to a larger bound, and
// the cross product's rounding error is orders of magnitude below
// eps·(1+S) for coordinate differences under 10⁴.
func contactTol(union MBR, short float64) float64 {
	e := max(union.Width(), union.Height())
	return eps * (1 + 4*e) / min(1, short)
}

// edgePairs calls fn(a, b, c, d) for edges ab of p and cd of q whose
// boxes lie within reach + τ (contactTol) of each other, and stops at
// the first call that returns true; it reports whether one did. A pair
// it skips is farther apart than reach + τ, so for a test of contact
// (reach 0) or of distance at most reach the answer is the one the full
// n·m loop gives, tolerance false positives aside. Three steps:
//
//  1. Clip: keep the edges of each side whose box meets the window, the
//     overlap of the two chains' boxes grown by reach + τ; an edge of p
//     within reach + τ of q must meet q's box grown so, and p's own box.
//  2. If either side keeps no edge, no pair can qualify: return.
//  3. Pair: loop over the side that kept fewer edges, and test each of
//     its edges only against the other side's edges whose boxes meet
//     its own box grown by reach + τ.
//
// It allocates nothing; fn always receives p's edge first.
func edgePairs(p, q chain, reach float64, fn func(a, b, c, d Point) bool) bool {
	mp, sp := p.span()
	mq, sq := q.span()
	g := reach + contactTol(mp.Union(mq), min(sp, sq))
	w := MBR{
		MinX: max(mp.MinX, mq.MinX) - g, MinY: max(mp.MinY, mq.MinY) - g,
		MaxX: min(mp.MaxX, mq.MaxX) + g, MaxY: min(mp.MaxY, mq.MaxY) + g,
	}
	// Count the shorter chain first: a candidate strictly inside its
	// partner usually leaves the partner with no edge in the window.
	outer, inner, swapped := p, q, false
	if q.edges() < p.edges() {
		outer, inner, swapped = q, p, true
	}
	no := outer.countIn(w)
	if no == 0 {
		return false
	}
	ni := inner.countIn(w)
	if ni == 0 {
		return false
	}
	if ni < no {
		outer, inner, swapped = inner, outer, !swapped
	}
	for i, n := 0, outer.edges(); i < n; i++ {
		a, b := outer.edge(i)
		if !boxMeets(w, a, b) {
			continue
		}
		box := MBR{min(a.X, b.X) - g, min(a.Y, b.Y) - g, max(a.X, b.X) + g, max(a.Y, b.Y) + g}
		for j, m := 0, inner.edges(); j < m; j++ {
			c, d := inner.edge(j)
			if !boxMeets(box, c, d) {
				continue
			}
			var hit bool
			if swapped {
				hit = fn(c, d, a, b)
			} else {
				hit = fn(a, b, c, d)
			}
			if hit {
				return true
			}
		}
	}
	return false
}

// BoxSide classifies the rectangle r against the polygon or
// multipolygon g for a test of contact (reach 0) or of distance at most
// reach: +1 when r lies in g's interior, −1 when r lies outside g and
// farther than reach from it, 0 when it shows neither. Any geometry
// whose MBR is r then meets g (+1) or stays beyond reach of it (−1),
// without being read; the join's secondary filter decides a candidate
// from its leaf MBR this way.
//
// One pass over g's ring edges gives up (0) at the first edge whose box
// meets r grown by reach. Past it, the same test with r grown by
// reach + τ (contactTol over r and g's rings, with g's shortest edge)
// leaves no boundary point of g within reach + τ of r, so every point
// of r is on one side of g's boundary, and one pointInPolygon on r's
// centre says which. The clip of edgePairs skips exactly the edge pairs
// whose boxes lie farther apart than reach + its own τ, so Intersects
// and WithinDistance give the same answer on such a geometry — except
// that their τ also shrinks with the candidate's shortest edge, so a
// candidate with edges shorter than g's (and than 1) can meet a
// tolerance false positive that −1 drops, as the clip drops the one
// TestToleranceFalsePositive pins (TestBoxSideDropsFalsePositive pins
// this one). Other kinds of g, an empty r, and a zero-length edge (τ
// infinite) give 0. It allocates nothing.
func BoxSide(r MBR, g Geometry, reach float64) int {
	if r.IsEmpty() || g.Kind != KindPolygon && g.Kind != KindMultiPolygon {
		return 0
	}
	var buf [1]Geometry
	polys := g.primitives(&buf)
	if edgeBoxMeets(polys, r.Expand(reach)) {
		return 0
	}
	span, short := r, math.Inf(1)
	for _, p := range polys {
		for i := range p.Rings {
			m, s := p.chain(i).span()
			span, short = span.Union(m), min(short, s)
		}
	}
	if edgeBoxMeets(polys, r.Expand(reach+contactTol(span, short))) {
		return 0
	}
	c := r.Center()
	for _, p := range polys {
		if s := pointInPolygon(c, p); s >= 0 {
			return s
		}
	}
	return -1
}

// edgeBoxMeets reports whether the box of some ring edge of the polygons
// meets w. An edge's box misses w exactly when both its end points lie
// beyond the same side of w, so each vertex is classified once
// (outcode) and shared by its two edges.
func edgeBoxMeets(polys []Geometry, w MBR) bool {
	for _, p := range polys {
		for _, rg := range p.Rings {
			prev := outcode(rg[len(rg)-1], w) // the closing edge first
			for _, q := range rg {
				c := outcode(q, w)
				if c&prev == 0 {
					return true
				}
				prev = c
			}
		}
	}
	return false
}

// outcode returns the sides of w that p lies beyond, one bit each (the
// Cohen–Sutherland region code).
func outcode(p Point, w MBR) uint8 {
	var c uint8
	if p.X < w.MinX {
		c = 1
	} else if p.X > w.MaxX {
		c = 2
	}
	if p.Y < w.MinY {
		c |= 4
	} else if p.Y > w.MaxY {
		c |= 8
	}
	return c
}
