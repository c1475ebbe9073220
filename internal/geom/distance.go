package geom

import "math"

// Distance returns the minimum Euclidean distance between g and h
// (zero if they intersect). It is exact: sdo_nn ranks by it.
func Distance(g, h Geometry) float64 {
	if Intersects(g, h) {
		return 0
	}
	best := math.Inf(1)
	anyPrimPair(g, h, func(a, b Geometry) bool {
		if d := primDistance(a, b, 0); d < best {
			best = d
		}
		return false
	})
	return best
}

// WithinDistance reports whether the minimum distance between g and h is
// at most d. A distance of 0 is equivalent to ANYINTERACT, matching the
// paper's note that intersection is "distance of 0". It is the exact
// evaluator behind within-distance joins (the paper's Table 1 distance
// sweep), and one thresholded pass: after the MBR rejection, a shared
// point, else some pair of boundary edges within d; it never computes
// the distance itself.
func WithinDistance(g, h Geometry, d float64) bool {
	mg, mh := MBROf(g), MBROf(h)
	if d < 0 || mg.Dist(mh) > d {
		return false
	}
	return mg.Intersects(mh) && anyPrimPair(g, h, primIntersects) ||
		anyPrimPair(g, h, func(a, b Geometry) bool { return primDistance(a, b, d) <= d })
}

// primDistance returns the distance between two disjoint primitives or,
// when stop > 0, a value no greater than stop as soon as some pair of
// their boundaries is found within it (and one above it if none is).
// Between lines and polygons only edge pairs that could improve on the
// best distance so far, and lie within stop, are tested: any vertex
// pair's distance bounds the minimum from above, so the closest pair is
// always among them and the distance stays exact.
func primDistance(a, b Geometry, stop float64) float64 {
	if a.Kind > b.Kind {
		a, b = b, a
	}
	switch {
	case b.Kind == KindPoint:
		return a.Pts[0].Dist(b.Pts[0])
	case a.Kind == KindPoint:
		return pointBoundaryDist(a.Pts[0], b)
	}
	best := math.Inf(1)
	chainPairs(a, b, func(p, q chain) bool {
		reach := math.Min(best, p.pts[0].Dist(q.pts[0]))
		if stop > 0 {
			reach = math.Min(reach, stop)
		}
		edgePairs(p, q, reach, func(a, b, c, d Point) bool {
			if dd := segSegDist(a, b, c, d); dd < best {
				best = dd
			}
			return best <= stop
		})
		return best <= stop
	})
	return best
}

// pointBoundaryDist returns the distance from p to the nearest boundary
// edge of line or polygon g.
func pointBoundaryDist(p Point, g Geometry) float64 {
	best := math.Inf(1)
	anyBoundaryEdge(g, func(a, b Point) bool {
		if d := pointSegDist(p, a, b); d < best {
			best = d
		}
		return false
	})
	return best
}
