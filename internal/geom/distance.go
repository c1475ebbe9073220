package geom

import "math"

// Distance returns the minimum Euclidean distance between g and h
// (zero if they intersect). It is the exact evaluator behind
// within-distance joins (the paper's Table 1 distance sweep).
func Distance(g, h Geometry) float64 {
	if Intersects(g, h) {
		return 0
	}
	best := math.Inf(1)
	var gb, hb [1]Geometry
	hs := h.primitives(&hb)
	for _, a := range g.primitives(&gb) {
		for _, b := range hs {
			if d := primDistance(a, b); d < best {
				best = d
			}
		}
	}
	return best
}

// WithinDistance reports whether the minimum distance between g and h is
// at most d. A distance of 0 is equivalent to ANYINTERACT, matching the
// paper's note that intersection is "distance of 0".
func WithinDistance(g, h Geometry, d float64) bool {
	if d < 0 {
		return false
	}
	// Cheap sound rejection before the exact test.
	if MBROf(g).Dist(MBROf(h)) > d {
		return false
	}
	return Distance(g, h) <= d
}

// primDistance computes the distance between two non-intersecting
// primitives. (Intersection is ruled out by the caller; for safety the
// polygon cases still detect containment and return zero.)
func primDistance(a, b Geometry) float64 {
	if a.Kind > b.Kind {
		a, b = b, a
	}
	switch {
	case a.Kind == KindPoint && b.Kind == KindPoint:
		return a.Pts[0].Dist(b.Pts[0])
	case a.Kind == KindPoint && b.Kind == KindLineString:
		return pointPathDist(a.Pts[0], b.Pts)
	case a.Kind == KindPoint && b.Kind == KindPolygon:
		if pointInPolygon(a.Pts[0], b) >= 0 {
			return 0
		}
		return pointRingsDist(a.Pts[0], b.Rings)
	case a.Kind == KindLineString && b.Kind == KindLineString:
		return pathPathDist(a.Pts, b.Pts)
	case a.Kind == KindLineString && b.Kind == KindPolygon:
		if linePolyIntersects(a, b) {
			return 0
		}
		best := math.Inf(1)
		for _, r := range b.Rings {
			if d := pathRingDist(a.Pts, r); d < best {
				best = d
			}
		}
		return best
	default: // polygon-polygon
		if polyPolyIntersects(a, b) {
			return 0
		}
		best := math.Inf(1)
		for _, r := range a.Rings {
			for _, s := range b.Rings {
				if d := ringRingDist(r, s); d < best {
					best = d
				}
			}
		}
		return best
	}
}

func pointPathDist(p Point, pts []Point) float64 {
	best := math.Inf(1)
	pathEdges(pts, func(a, b Point) bool {
		if d := pointSegDist(p, a, b); d < best {
			best = d
		}
		return true
	})
	return best
}

func pointRingsDist(p Point, rings [][]Point) float64 {
	best := math.Inf(1)
	for _, r := range rings {
		ringEdges(r, func(a, b Point) bool {
			if d := pointSegDist(p, a, b); d < best {
				best = d
			}
			return true
		})
	}
	return best
}

func pathPathDist(p, q []Point) float64 {
	best := math.Inf(1)
	pathEdges(p, func(a, b Point) bool {
		pathEdges(q, func(c, d Point) bool {
			if dd := segSegDist(a, b, c, d); dd < best {
				best = dd
			}
			return true
		})
		return best > 0
	})
	return best
}

func pathRingDist(pts []Point, r []Point) float64 {
	best := math.Inf(1)
	pathEdges(pts, func(a, b Point) bool {
		ringEdges(r, func(c, d Point) bool {
			if dd := segSegDist(a, b, c, d); dd < best {
				best = dd
			}
			return true
		})
		return best > 0
	})
	return best
}

func ringRingDist(r, s []Point) float64 {
	best := math.Inf(1)
	ringEdges(r, func(a, b Point) bool {
		ringEdges(s, func(c, d Point) bool {
			if dd := segSegDist(a, b, c, d); dd < best {
				best = dd
			}
			return true
		})
		return best > 0
	})
	return best
}
