package geom

import "math"

// The oracle: the exact predicates as they stood before the edge-pair
// enumerator (edges.go) replaced their nested edge loops, copied
// verbatim with every name prefixed "ref". Each boundary test here
// compares every edge of one side with every edge of the other, so it
// is slow and independent of the enumerator's window, tolerance and
// survivor pairing; oracle_test.go holds the pruned predicates to it.
// Only the segment kernels (segment.go) and Geometry.Equal are shared.
// Do not "fix" or speed up anything in this file: its value is that it
// does not change.

// ringEdges calls fn for each edge of the implicitly closed ring r.
// fn returning false stops the iteration early.
func ringEdges(r []Point, fn func(a, b Point) bool) {
	n := len(r)
	for i := 0; i < n; i++ {
		if !fn(r[i], r[(i+1)%n]) {
			return
		}
	}
}

// pathEdges calls fn for each edge of the open polyline pts.
func pathEdges(pts []Point, fn func(a, b Point) bool) {
	for i := 1; i < len(pts); i++ {
		if !fn(pts[i-1], pts[i]) {
			return
		}
	}
}

// refIntersects reports whether g and h share at least one point
// (Oracle's ANYINTERACT relationship). Both geometries must be valid.
func refIntersects(g, h Geometry) bool {
	if !MBROf(g).Intersects(MBROf(h)) {
		return false
	}
	var gb, hb [1]Geometry
	gs := g.primitives(&gb)
	hs := h.primitives(&hb)
	for _, a := range gs {
		for _, b := range hs {
			if refPrimIntersects(a, b) {
				return true
			}
		}
	}
	return false
}

// refPrimIntersects dispatches the primitive × primitive intersection test.
func refPrimIntersects(a, b Geometry) bool {
	// Normalise so a.Kind <= b.Kind in the dispatch order
	// point < line < polygon.
	if a.Kind > b.Kind {
		a, b = b, a
	}
	switch {
	case a.Kind == KindPoint && b.Kind == KindPoint:
		return a.Pts[0].Dist(b.Pts[0]) <= eps
	case a.Kind == KindPoint && b.Kind == KindLineString:
		return refPointOnPath(a.Pts[0], b.Pts)
	case a.Kind == KindPoint && b.Kind == KindPolygon:
		return pointInPolygon(a.Pts[0], b) >= 0
	case a.Kind == KindLineString && b.Kind == KindLineString:
		return refPathsIntersect(a.Pts, b.Pts)
	case a.Kind == KindLineString && b.Kind == KindPolygon:
		return refLinePolyIntersects(a, b)
	case a.Kind == KindPolygon && b.Kind == KindPolygon:
		return refPolyPolyIntersects(a, b)
	default:
		return false
	}
}

// refPointOnPath reports whether p lies on the polyline pts.
func refPointOnPath(p Point, pts []Point) bool {
	found := false
	pathEdges(pts, func(a, b Point) bool {
		if orient(a, b, p) == 0 && onSegment(a, b, p) {
			found = true
			return false
		}
		return true
	})
	return found
}

// refPathsIntersect reports whether two open polylines share a point.
func refPathsIntersect(p, q []Point) bool {
	found := false
	pathEdges(p, func(a, b Point) bool {
		pathEdges(q, func(c, d Point) bool {
			if segIntersects(a, b, c, d) {
				found = true
				return false
			}
			return true
		})
		return !found
	})
	return found
}

// refPathRingIntersect reports whether the open polyline pts intersects the
// implicitly closed ring r.
func refPathRingIntersect(pts []Point, r []Point) bool {
	found := false
	pathEdges(pts, func(a, b Point) bool {
		ringEdges(r, func(c, d Point) bool {
			if segIntersects(a, b, c, d) {
				found = true
				return false
			}
			return true
		})
		return !found
	})
	return found
}

// refRingsIntersect reports whether two implicitly closed rings share a
// boundary point.
func refRingsIntersect(r, s []Point) bool {
	found := false
	ringEdges(r, func(a, b Point) bool {
		ringEdges(s, func(c, d Point) bool {
			if segIntersects(a, b, c, d) {
				found = true
				return false
			}
			return true
		})
		return !found
	})
	return found
}

// refLinePolyIntersects reports whether line string l shares a point with
// polygon p (boundary or interior).
func refLinePolyIntersects(l, p Geometry) bool {
	// Any vertex of the line inside/on the polygon?
	for _, v := range l.Pts {
		if pointInPolygon(v, p) >= 0 {
			return true
		}
	}
	// Any edge crossing any ring? (Covers the case where the line passes
	// through the polygon without a vertex inside, and the case where it
	// only clips a hole boundary.)
	for _, r := range p.Rings {
		if refPathRingIntersect(l.Pts, r) {
			return true
		}
	}
	return false
}

// refPolyPolyIntersects reports whether two polygons share a point.
func refPolyPolyIntersects(p, q Geometry) bool {
	// Boundary-boundary contact.
	for _, r := range p.Rings {
		for _, s := range q.Rings {
			if refRingsIntersect(r, s) {
				return true
			}
		}
	}
	// No boundary contact: either disjoint or one strictly inside the
	// other. A single vertex test per direction decides it (holes are
	// handled by pointInPolygon).
	if pointInPolygon(p.Rings[0][0], q) > 0 {
		return true
	}
	if pointInPolygon(q.Rings[0][0], p) > 0 {
		return true
	}
	return false
}

// refBoundariesIntersect reports whether the boundaries of g and h share a
// point. For points the boundary is the point itself; for lines the
// polyline; for polygons all rings.
func refBoundariesIntersect(g, h Geometry) bool {
	var gb, hb [1]Geometry
	gs := g.primitives(&gb)
	hs := h.primitives(&hb)
	for _, a := range gs {
		for _, b := range hs {
			if refPrimBoundariesIntersect(a, b) {
				return true
			}
		}
	}
	return false
}

func refPrimBoundariesIntersect(a, b Geometry) bool {
	if a.Kind > b.Kind {
		a, b = b, a
	}
	switch {
	case a.Kind == KindPoint && b.Kind == KindPoint:
		return a.Pts[0].Dist(b.Pts[0]) <= eps
	case a.Kind == KindPoint && b.Kind == KindLineString:
		return refPointOnPath(a.Pts[0], b.Pts)
	case a.Kind == KindPoint && b.Kind == KindPolygon:
		return pointInPolygon(a.Pts[0], b) == 0
	case a.Kind == KindLineString && b.Kind == KindLineString:
		return refPathsIntersect(a.Pts, b.Pts)
	case a.Kind == KindLineString && b.Kind == KindPolygon:
		for _, r := range b.Rings {
			if refPathRingIntersect(a.Pts, r) {
				return true
			}
		}
		return false
	default: // polygon-polygon
		for _, r := range a.Rings {
			for _, s := range b.Rings {
				if refRingsIntersect(r, s) {
					return true
				}
			}
		}
		return false
	}
}

// refInteriorsIntersect reports whether the interiors of g and h share a
// point. For a point the interior is the point; for a line the polyline
// minus its two endpoints; for a polygon the open region.
func refInteriorsIntersect(g, h Geometry) bool {
	var gb, hb [1]Geometry
	gs := g.primitives(&gb)
	hs := h.primitives(&hb)
	for _, a := range gs {
		for _, b := range hs {
			if refPrimInteriorsIntersect(a, b) {
				return true
			}
		}
	}
	return false
}

func refPrimInteriorsIntersect(a, b Geometry) bool {
	// Interior intersection is symmetric, so normalising operand order
	// is safe.
	if a.Kind > b.Kind {
		a, b = b, a
	}
	switch {
	case a.Kind == KindPoint && b.Kind == KindPoint:
		return a.Pts[0].Dist(b.Pts[0]) <= eps
	case a.Kind == KindPoint && b.Kind == KindLineString:
		return refPointOnPathInterior(a.Pts[0], b.Pts)
	case a.Kind == KindPoint && b.Kind == KindPolygon:
		return pointInPolygon(a.Pts[0], b) > 0
	case a.Kind == KindLineString && b.Kind == KindLineString:
		return refLineInteriorsIntersect(a.Pts, b.Pts)
	case a.Kind == KindLineString && b.Kind == KindPolygon:
		return refLineInteriorInPolygonInterior(a, b)
	default:
		return refPolyInteriorsIntersect(a, b)
	}
}

// refPointOnPathInterior reports whether p lies on pts excluding the two
// polyline endpoints.
func refPointOnPathInterior(p Point, pts []Point) bool {
	if !refPointOnPath(p, pts) {
		return false
	}
	return p.Dist(pts[0]) > eps && p.Dist(pts[len(pts)-1]) > eps
}

// refLineInteriorsIntersect reports whether two polylines intersect at a
// point interior to both (any shared point that is not exclusively an
// endpoint-endpoint touch).
func refLineInteriorsIntersect(p, q []Point) bool {
	if !refPathsIntersect(p, q) {
		return false
	}
	// A proper segment crossing is always interior-interior.
	cross := false
	pathEdges(p, func(a, b Point) bool {
		pathEdges(q, func(c, d Point) bool {
			if segProperCross(a, b, c, d) {
				cross = true
				return false
			}
			return true
		})
		return !cross
	})
	if cross {
		return true
	}
	// Otherwise all contacts are touches/overlaps; check whether some
	// contact point is interior to both polylines. Sample candidate
	// points: all vertices of each line lying on the other.
	for _, v := range p {
		if refPointOnPathInterior(v, q) && refPointOnPathInterior(v, p) {
			return true
		}
	}
	for _, v := range q {
		if refPointOnPathInterior(v, p) && refPointOnPathInterior(v, q) {
			return true
		}
	}
	return false
}

// refLineInteriorInPolygonInterior reports whether the interior of line l
// reaches the interior of polygon p.
func refLineInteriorInPolygonInterior(l, p Geometry) bool {
	// Any vertex strictly inside?
	for _, v := range l.Pts {
		if pointInPolygon(v, p) > 0 {
			return true
		}
	}
	// Any edge properly crossing a ring means the line passes from
	// outside to inside (or between interior regions).
	crossed := false
	pathEdges(l.Pts, func(a, b Point) bool {
		for _, r := range p.Rings {
			ringEdges(r, func(c, d Point) bool {
				if segProperCross(a, b, c, d) {
					crossed = true
					return false
				}
				return true
			})
			if crossed {
				return false
			}
		}
		// Edge midpoints catch the case of a segment whose endpoints
		// both lie on the boundary but whose middle runs inside.
		mid := Point{(a.X + b.X) / 2, (a.Y + b.Y) / 2}
		if pointInPolygon(mid, p) > 0 {
			crossed = true
			return false
		}
		return true
	})
	return crossed
}

// refPolyInteriorsIntersect reports whether the open interiors of two
// polygons overlap.
func refPolyInteriorsIntersect(p, q Geometry) bool {
	// A proper edge crossing forces interior overlap.
	for _, r := range p.Rings {
		for _, s := range q.Rings {
			proper := false
			ringEdges(r, func(a, b Point) bool {
				ringEdges(s, func(c, d Point) bool {
					if segProperCross(a, b, c, d) {
						proper = true
						return false
					}
					return true
				})
				return !proper
			})
			if proper {
				return true
			}
		}
	}
	// No proper crossings: interiors overlap iff some vertex of one is
	// strictly inside the other, or (pure boundary-sharing cases) some
	// boundary edge midpoint of one is strictly inside the other.
	for _, r := range p.Rings {
		for _, v := range r {
			if pointInPolygon(v, q) > 0 && pointInPolygon(v, p) >= 0 {
				return true
			}
		}
	}
	for _, s := range q.Rings {
		for _, v := range s {
			if pointInPolygon(v, p) > 0 && pointInPolygon(v, q) >= 0 {
				return true
			}
		}
	}
	// Edge midpoints: handles equal polygons and containment with all
	// vertices on the boundary.
	mids := func(g Geometry) []Point {
		var out []Point
		for _, r := range g.Rings {
			ringEdges(r, func(a, b Point) bool {
				out = append(out, Point{(a.X + b.X) / 2, (a.Y + b.Y) / 2})
				return true
			})
		}
		return out
	}
	for _, m := range mids(p) {
		if pointInPolygon(m, q) > 0 {
			return true
		}
	}
	for _, m := range mids(q) {
		if pointInPolygon(m, p) > 0 {
			return true
		}
	}
	// Final fallback: centroid of the MBR intersection.
	c := MBROf(p).Intersect(MBROf(q)).Center()
	return pointInPolygon(c, p) > 0 && pointInPolygon(c, q) > 0
}

// refCoveredBy reports whether every point of g lies in (interior or
// boundary of) h. It backs the COVEREDBY/COVERS/INSIDE/CONTAINS masks.
func refCoveredBy(g, h Geometry) bool {
	if !MBROf(h).Contains(MBROf(g)) {
		return false
	}
	var gb, hb [1]Geometry
	hs := h.primitives(&hb)
	for _, a := range g.primitives(&gb) {
		if !refPrimCoveredByAny(a, hs) {
			return false
		}
	}
	return true
}

// refPrimCoveredByAny reports whether primitive a is covered by the union
// of the primitives hs. For simplicity (and matching how the synthetic
// datasets are built) a must be covered by a single member; geometries
// spanning multiple members of a multi-polygon are reported not covered,
// which keeps the predicate conservative (sound for CONTAINS pruning in
// joins, never claiming coverage that does not hold).
func refPrimCoveredByAny(a Geometry, hs []Geometry) bool {
	for _, b := range hs {
		if refPrimCoveredBy(a, b) {
			return true
		}
	}
	return false
}

func refPrimCoveredBy(a, b Geometry) bool {
	switch {
	case a.Kind == KindPoint:
		switch b.Kind {
		case KindPoint:
			return a.Pts[0].Dist(b.Pts[0]) <= eps
		case KindLineString:
			return refPointOnPath(a.Pts[0], b.Pts)
		default:
			return pointInPolygon(a.Pts[0], b) >= 0
		}
	case a.Kind == KindLineString:
		switch b.Kind {
		case KindPolygon:
			return refLineCoveredByPolygon(a, b)
		case KindLineString:
			return refLineCoveredByLine(a.Pts, b.Pts)
		default:
			return false
		}
	case a.Kind == KindPolygon:
		if b.Kind != KindPolygon {
			return false
		}
		return refPolyCoveredByPoly(a, b)
	}
	return false
}

// refLineCoveredByPolygon reports whether every point of line l lies in
// polygon p (closed region).
func refLineCoveredByPolygon(l, p Geometry) bool {
	for _, v := range l.Pts {
		if pointInPolygon(v, p) < 0 {
			return false
		}
	}
	// No edge may properly cross a ring (that would exit the region),
	// and edge midpoints must stay in the closed region (catches edges
	// hopping across a concavity or a hole).
	ok := true
	pathEdges(l.Pts, func(a, b Point) bool {
		for _, r := range p.Rings {
			crossed := false
			ringEdges(r, func(c, d Point) bool {
				if segProperCross(a, b, c, d) {
					crossed = true
					return false
				}
				return true
			})
			if crossed {
				ok = false
				return false
			}
		}
		mid := Point{(a.X + b.X) / 2, (a.Y + b.Y) / 2}
		if pointInPolygon(mid, p) < 0 {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// refLineCoveredByLine reports whether polyline a is a sub-path of
// polyline b: every vertex of a on b and every edge midpoint of a on b.
func refLineCoveredByLine(a, b []Point) bool {
	for _, v := range a {
		if !refPointOnPath(v, b) {
			return false
		}
	}
	ok := true
	pathEdges(a, func(p, q Point) bool {
		mid := Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
		if !refPointOnPath(mid, b) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// refPolyCoveredByPoly reports whether polygon a lies entirely within the
// closed region of polygon b.
func refPolyCoveredByPoly(a, b Geometry) bool {
	// Every vertex of a inside/on b.
	for _, r := range a.Rings {
		for _, v := range r {
			if pointInPolygon(v, b) < 0 {
				return false
			}
		}
	}
	// No proper boundary crossing.
	for _, r := range a.Rings {
		for _, s := range b.Rings {
			proper := false
			ringEdges(r, func(p, q Point) bool {
				ringEdges(s, func(c, d Point) bool {
					if segProperCross(p, q, c, d) {
						proper = true
						return false
					}
					return true
				})
				return !proper
			})
			if proper {
				return false
			}
		}
	}
	// Edge midpoints of a must remain in b (catches concavities).
	for _, r := range a.Rings {
		out := false
		ringEdges(r, func(p, q Point) bool {
			mid := Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
			if pointInPolygon(mid, b) < 0 {
				out = true
				return false
			}
			return true
		})
		if out {
			return false
		}
	}
	// No hole of b may poke into the interior of a: if a hole boundary
	// of b lies strictly inside a, part of a would be excluded from b.
	for _, h := range b.Rings[1:] {
		if pointInPolygon(h[0], a) > 0 {
			// The hole starts inside a. It excludes area from b, so a is
			// not fully covered (unless a has a matching hole, which the
			// midpoint test above would usually have caught; be
			// conservative here).
			hp := Geometry{Kind: KindPolygon, Rings: [][]Point{h}}
			if !refCoveredByAnyHole(hp, a) {
				return false
			}
		}
	}
	return true
}

// refCoveredByAnyHole reports whether polygon hole hp is covered by one of
// a's own holes, meaning the excluded region was already excluded.
func refCoveredByAnyHole(hp, a Geometry) bool {
	for _, h := range a.Rings[1:] {
		ah := Geometry{Kind: KindPolygon, Rings: [][]Point{h}}
		if refPolyCoveredByPoly(hp, ah) {
			return true
		}
	}
	return false
}

// refDistance returns the minimum Euclidean distance between g and h
// (zero if they intersect). It is the exact evaluator behind
// within-distance joins (the paper's Table 1 distance sweep).
func refDistance(g, h Geometry) float64 {
	if refIntersects(g, h) {
		return 0
	}
	best := math.Inf(1)
	var gb, hb [1]Geometry
	hs := h.primitives(&hb)
	for _, a := range g.primitives(&gb) {
		for _, b := range hs {
			if d := refPrimDistance(a, b); d < best {
				best = d
			}
		}
	}
	return best
}

// refWithinDistance reports whether the minimum distance between g and h is
// at most d. A distance of 0 is equivalent to ANYINTERACT, matching the
// paper's note that intersection is "distance of 0".
func refWithinDistance(g, h Geometry, d float64) bool {
	if d < 0 {
		return false
	}
	// Cheap sound rejection before the exact test.
	if MBROf(g).Dist(MBROf(h)) > d {
		return false
	}
	return refDistance(g, h) <= d
}

// refPrimDistance computes the distance between two non-intersecting
// primitives. (Intersection is ruled out by the caller; for safety the
// polygon cases still detect containment and return zero.)
func refPrimDistance(a, b Geometry) float64 {
	if a.Kind > b.Kind {
		a, b = b, a
	}
	switch {
	case a.Kind == KindPoint && b.Kind == KindPoint:
		return a.Pts[0].Dist(b.Pts[0])
	case a.Kind == KindPoint && b.Kind == KindLineString:
		return refPointPathDist(a.Pts[0], b.Pts)
	case a.Kind == KindPoint && b.Kind == KindPolygon:
		if pointInPolygon(a.Pts[0], b) >= 0 {
			return 0
		}
		return refPointRingsDist(a.Pts[0], b.Rings)
	case a.Kind == KindLineString && b.Kind == KindLineString:
		return refPathPathDist(a.Pts, b.Pts)
	case a.Kind == KindLineString && b.Kind == KindPolygon:
		if refLinePolyIntersects(a, b) {
			return 0
		}
		best := math.Inf(1)
		for _, r := range b.Rings {
			if d := refPathRingDist(a.Pts, r); d < best {
				best = d
			}
		}
		return best
	default: // polygon-polygon
		if refPolyPolyIntersects(a, b) {
			return 0
		}
		best := math.Inf(1)
		for _, r := range a.Rings {
			for _, s := range b.Rings {
				if d := refRingRingDist(r, s); d < best {
					best = d
				}
			}
		}
		return best
	}
}

func refPointPathDist(p Point, pts []Point) float64 {
	best := math.Inf(1)
	pathEdges(pts, func(a, b Point) bool {
		if d := pointSegDist(p, a, b); d < best {
			best = d
		}
		return true
	})
	return best
}

func refPointRingsDist(p Point, rings [][]Point) float64 {
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

func refPathPathDist(p, q []Point) float64 {
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

func refPathRingDist(pts []Point, r []Point) float64 {
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

func refRingRingDist(r, s []Point) float64 {
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

// refRelate evaluates the topological relationship m between g and h.
// It is the exact (secondary-filter) equivalent of Oracle's
// sdo_relate(g, h, 'mask=M').
func refRelate(g, h Geometry, m Mask) bool {
	switch m {
	case MaskAnyInteract:
		return refIntersects(g, h)
	case MaskEqual:
		return g.Equal(h)
	case MaskInside:
		return refCoveredBy(g, h) && !refBoundariesIntersect(g, h)
	case MaskContains:
		return refCoveredBy(h, g) && !refBoundariesIntersect(h, g)
	case MaskCoveredBy:
		return refCoveredBy(g, h) && refBoundariesIntersect(g, h) && !g.Equal(h)
	case MaskCovers:
		return refCoveredBy(h, g) && refBoundariesIntersect(h, g) && !g.Equal(h)
	case MaskTouch:
		return refIntersects(g, h) && !refInteriorsIntersect(g, h)
	case MaskOverlap:
		return refInteriorsIntersect(g, h) && !refCoveredBy(g, h) && !refCoveredBy(h, g)
	default:
		return false
	}
}
