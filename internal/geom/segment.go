package geom

import "math"

// This file holds the low-level computational-geometry kernels:
// orientation tests, segment intersection, and point/segment distances.
// Everything above (predicates, relate masks, distances) is built from
// these few primitives, so their edge-case behaviour is tested heavily.

// eps is the tolerance used for orientation and on-segment tests. The
// synthetic datasets use coordinates in roughly [0, 1000], for which
// 1e-12 comfortably exceeds accumulated float error without swallowing
// genuine near-touches.
const eps = 1e-12

// orient returns the sign of the cross product (b-a) × (c-a):
// +1 if a→b→c turns counter-clockwise, -1 if clockwise, 0 if collinear
// (within eps, scaled by the segment magnitudes).
func orient(a, b, c Point) int {
	v := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	// Scale tolerance by the magnitude of the operands so the test is
	// meaningful for both tiny and huge coordinates.
	scale := math.Abs(b.X-a.X) + math.Abs(b.Y-a.Y) + math.Abs(c.X-a.X) + math.Abs(c.Y-a.Y)
	tol := eps * (1 + scale)
	switch {
	case v > tol:
		return 1
	case v < -tol:
		return -1
	default:
		return 0
	}
}

// onSegment reports whether p lies in segment ab's box grown by eps;
// for three points already known to be collinear, that is whether p
// lies on ab. The builtin min and max compile inline where math.Min and
// math.Max are calls, and agree with them on finite operands, which
// every stored vertex is.
func onSegment(a, b, p Point) bool {
	return min(a.X, b.X)-eps <= p.X && p.X <= max(a.X, b.X)+eps &&
		min(a.Y, b.Y)-eps <= p.Y && p.Y <= max(a.Y, b.Y)+eps
}

// segIntersects reports whether segments ab and cd share at least one
// point, including endpoint touches and collinear overlap.
func segIntersects(a, b, c, d Point) bool {
	o1 := orient(a, b, c)
	o2 := orient(a, b, d)
	o3 := orient(c, d, a)
	o4 := orient(c, d, b)
	if o1 != o2 && o3 != o4 {
		return true
	}
	// Collinear cases.
	if o1 == 0 && onSegment(a, b, c) {
		return true
	}
	if o2 == 0 && onSegment(a, b, d) {
		return true
	}
	if o3 == 0 && onSegment(c, d, a) {
		return true
	}
	if o4 == 0 && onSegment(c, d, b) {
		return true
	}
	return false
}

// segProperCross reports whether ab and cd cross at a single interior
// point of both segments (a "proper" crossing: no endpoint touches, no
// collinear overlap). Interior crossings distinguish OVERLAP from TOUCH.
func segProperCross(a, b, c, d Point) bool {
	o1 := orient(a, b, c)
	o2 := orient(a, b, d)
	o3 := orient(c, d, a)
	o4 := orient(c, d, b)
	return o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 && o1 != o2 && o3 != o4
}

// pointSegDist returns the distance from p to segment ab.
func pointSegDist(p, a, b Point) float64 {
	ab := b.Sub(a)
	len2 := ab.Dot(ab)
	if len2 == 0 {
		return p.Dist(a)
	}
	t := p.Sub(a).Dot(ab) / len2
	switch {
	case t <= 0:
		return p.Dist(a)
	case t >= 1:
		return p.Dist(b)
	default:
		proj := a.Add(ab.Scale(t))
		return p.Dist(proj)
	}
}

// segSegDist returns the minimum distance between segments ab and cd
// (zero if they intersect).
func segSegDist(a, b, c, d Point) float64 {
	if segIntersects(a, b, c, d) {
		return 0
	}
	return math.Min(
		math.Min(pointSegDist(a, c, d), pointSegDist(b, c, d)),
		math.Min(pointSegDist(c, a, b), pointSegDist(d, a, b)),
	)
}

// pointInRing classifies p against the implicitly closed ring r:
// +1 strictly inside, 0 on the boundary, -1 strictly outside.
// It uses the standard crossing-number ray cast with boundary detection.
// The boundary test checks the edge's box (±eps) before the costlier
// orientation; both are pure and the crossing parity does not depend on
// the order edges are visited in, so walking from the closing edge on
// answers exactly as walking from r[0] would.
func pointInRing(p Point, r []Point) int {
	if len(r) == 0 {
		return -1
	}
	inside := false
	a := r[len(r)-1]
	for _, b := range r {
		if onSegment(a, b, p) && orient(a, b, p) == 0 {
			return 0
		}
		// Crossing-number step: does the edge straddle the horizontal
		// line through p, and is the crossing to the right of p?
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xCross := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if xCross > p.X {
				inside = !inside
			}
		}
		a = b
	}
	if inside {
		return 1
	}
	return -1
}

// pointInPolygon classifies p against polygon g (which must be
// KindPolygon): +1 strictly interior, 0 on the boundary (outer ring or
// hole ring), -1 exterior (outside the outer ring or strictly inside a
// hole).
func pointInPolygon(p Point, g Geometry) int {
	c := pointInRing(p, g.Rings[0])
	if c <= 0 {
		return c
	}
	for _, h := range g.Rings[1:] {
		switch pointInRing(p, h) {
		case 0:
			return 0
		case 1:
			return -1
		}
	}
	return 1
}
