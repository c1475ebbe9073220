package geom

// This file implements the exact intersection test between arbitrary
// geometry pairs — the heart of the "secondary filter" that the paper's
// two-stage join applies to each candidate pair after the index-level
// MBR (primary) filter.

// Intersects reports whether g and h share at least one point
// (Oracle's ANYINTERACT relationship). Both geometries must be valid.
func Intersects(g, h Geometry) bool {
	if !MBROf(g).Intersects(MBROf(h)) {
		return false
	}
	var gb, hb [1]Geometry
	gs := g.primitives(&gb)
	hs := h.primitives(&hb)
	for _, a := range gs {
		for _, b := range hs {
			if primIntersects(a, b) {
				return true
			}
		}
	}
	return false
}

// primIntersects dispatches the primitive × primitive intersection test.
func primIntersects(a, b Geometry) bool {
	// Normalise so a.Kind <= b.Kind in the dispatch order
	// point < line < polygon.
	if a.Kind > b.Kind {
		a, b = b, a
	}
	switch {
	case a.Kind == KindPoint && b.Kind == KindPoint:
		return a.Pts[0].Dist(b.Pts[0]) <= eps
	case a.Kind == KindPoint && b.Kind == KindLineString:
		return pointOnPath(a.Pts[0], b.Pts)
	case a.Kind == KindPoint && b.Kind == KindPolygon:
		return pointInPolygon(a.Pts[0], b) >= 0
	case a.Kind == KindLineString && b.Kind == KindLineString:
		return pathsIntersect(a.Pts, b.Pts)
	case a.Kind == KindLineString && b.Kind == KindPolygon:
		return linePolyIntersects(a, b)
	case a.Kind == KindPolygon && b.Kind == KindPolygon:
		return polyPolyIntersects(a, b)
	default:
		return false
	}
}

// pointOnPath reports whether p lies on the polyline pts.
func pointOnPath(p Point, pts []Point) bool {
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

// pathsIntersect reports whether two open polylines share a point.
func pathsIntersect(p, q []Point) bool {
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

// pathRingIntersect reports whether the open polyline pts intersects the
// implicitly closed ring r.
func pathRingIntersect(pts []Point, r []Point) bool {
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

// ringsIntersect reports whether two implicitly closed rings share a
// boundary point.
func ringsIntersect(r, s []Point) bool {
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

// linePolyIntersects reports whether line string l shares a point with
// polygon p (boundary or interior).
func linePolyIntersects(l, p Geometry) bool {
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
		if pathRingIntersect(l.Pts, r) {
			return true
		}
	}
	return false
}

// polyPolyIntersects reports whether two polygons share a point.
func polyPolyIntersects(p, q Geometry) bool {
	// Boundary-boundary contact.
	for _, r := range p.Rings {
		for _, s := range q.Rings {
			if ringsIntersect(r, s) {
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

// boundariesIntersect reports whether the boundaries of g and h share a
// point. For points the boundary is the point itself; for lines the
// polyline; for polygons all rings.
func boundariesIntersect(g, h Geometry) bool {
	var gb, hb [1]Geometry
	gs := g.primitives(&gb)
	hs := h.primitives(&hb)
	for _, a := range gs {
		for _, b := range hs {
			if primBoundariesIntersect(a, b) {
				return true
			}
		}
	}
	return false
}

func primBoundariesIntersect(a, b Geometry) bool {
	if a.Kind > b.Kind {
		a, b = b, a
	}
	switch {
	case a.Kind == KindPoint && b.Kind == KindPoint:
		return a.Pts[0].Dist(b.Pts[0]) <= eps
	case a.Kind == KindPoint && b.Kind == KindLineString:
		return pointOnPath(a.Pts[0], b.Pts)
	case a.Kind == KindPoint && b.Kind == KindPolygon:
		return pointInPolygon(a.Pts[0], b) == 0
	case a.Kind == KindLineString && b.Kind == KindLineString:
		return pathsIntersect(a.Pts, b.Pts)
	case a.Kind == KindLineString && b.Kind == KindPolygon:
		for _, r := range b.Rings {
			if pathRingIntersect(a.Pts, r) {
				return true
			}
		}
		return false
	default: // polygon-polygon
		for _, r := range a.Rings {
			for _, s := range b.Rings {
				if ringsIntersect(r, s) {
					return true
				}
			}
		}
		return false
	}
}

// interiorsIntersect reports whether the interiors of g and h share a
// point. For a point the interior is the point; for a line the polyline
// minus its two endpoints; for a polygon the open region.
func interiorsIntersect(g, h Geometry) bool {
	var gb, hb [1]Geometry
	gs := g.primitives(&gb)
	hs := h.primitives(&hb)
	for _, a := range gs {
		for _, b := range hs {
			if primInteriorsIntersect(a, b) {
				return true
			}
		}
	}
	return false
}

func primInteriorsIntersect(a, b Geometry) bool {
	// Interior intersection is symmetric, so normalising operand order
	// is safe.
	if a.Kind > b.Kind {
		a, b = b, a
	}
	switch {
	case a.Kind == KindPoint && b.Kind == KindPoint:
		return a.Pts[0].Dist(b.Pts[0]) <= eps
	case a.Kind == KindPoint && b.Kind == KindLineString:
		return pointOnPathInterior(a.Pts[0], b.Pts)
	case a.Kind == KindPoint && b.Kind == KindPolygon:
		return pointInPolygon(a.Pts[0], b) > 0
	case a.Kind == KindLineString && b.Kind == KindLineString:
		return lineInteriorsIntersect(a.Pts, b.Pts)
	case a.Kind == KindLineString && b.Kind == KindPolygon:
		return lineInteriorInPolygonInterior(a, b)
	default:
		return polyInteriorsIntersect(a, b)
	}
}

// pointOnPathInterior reports whether p lies on pts excluding the two
// polyline endpoints.
func pointOnPathInterior(p Point, pts []Point) bool {
	if !pointOnPath(p, pts) {
		return false
	}
	return p.Dist(pts[0]) > eps && p.Dist(pts[len(pts)-1]) > eps
}

// lineInteriorsIntersect reports whether two polylines intersect at a
// point interior to both (any shared point that is not exclusively an
// endpoint-endpoint touch).
func lineInteriorsIntersect(p, q []Point) bool {
	if !pathsIntersect(p, q) {
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
		if pointOnPathInterior(v, q) && pointOnPathInterior(v, p) {
			return true
		}
	}
	for _, v := range q {
		if pointOnPathInterior(v, p) && pointOnPathInterior(v, q) {
			return true
		}
	}
	return false
}

// lineInteriorInPolygonInterior reports whether the interior of line l
// reaches the interior of polygon p.
func lineInteriorInPolygonInterior(l, p Geometry) bool {
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

// polyInteriorsIntersect reports whether the open interiors of two
// polygons overlap.
func polyInteriorsIntersect(p, q Geometry) bool {
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

// coveredBy reports whether every point of g lies in (interior or
// boundary of) h. It backs the COVEREDBY/COVERS/INSIDE/CONTAINS masks.
func coveredBy(g, h Geometry) bool {
	if !MBROf(h).Contains(MBROf(g)) {
		return false
	}
	var gb, hb [1]Geometry
	hs := h.primitives(&hb)
	for _, a := range g.primitives(&gb) {
		if !primCoveredByAny(a, hs) {
			return false
		}
	}
	return true
}

// primCoveredByAny reports whether primitive a is covered by the union
// of the primitives hs. For simplicity (and matching how the synthetic
// datasets are built) a must be covered by a single member; geometries
// spanning multiple members of a multi-polygon are reported not covered,
// which keeps the predicate conservative (sound for CONTAINS pruning in
// joins, never claiming coverage that does not hold).
func primCoveredByAny(a Geometry, hs []Geometry) bool {
	for _, b := range hs {
		if primCoveredBy(a, b) {
			return true
		}
	}
	return false
}

func primCoveredBy(a, b Geometry) bool {
	switch {
	case a.Kind == KindPoint:
		switch b.Kind {
		case KindPoint:
			return a.Pts[0].Dist(b.Pts[0]) <= eps
		case KindLineString:
			return pointOnPath(a.Pts[0], b.Pts)
		default:
			return pointInPolygon(a.Pts[0], b) >= 0
		}
	case a.Kind == KindLineString:
		switch b.Kind {
		case KindPolygon:
			return lineCoveredByPolygon(a, b)
		case KindLineString:
			return lineCoveredByLine(a.Pts, b.Pts)
		default:
			return false
		}
	case a.Kind == KindPolygon:
		if b.Kind != KindPolygon {
			return false
		}
		return polyCoveredByPoly(a, b)
	}
	return false
}

// lineCoveredByPolygon reports whether every point of line l lies in
// polygon p (closed region).
func lineCoveredByPolygon(l, p Geometry) bool {
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

// lineCoveredByLine reports whether polyline a is a sub-path of
// polyline b: every vertex of a on b and every edge midpoint of a on b.
func lineCoveredByLine(a, b []Point) bool {
	for _, v := range a {
		if !pointOnPath(v, b) {
			return false
		}
	}
	ok := true
	pathEdges(a, func(p, q Point) bool {
		mid := Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
		if !pointOnPath(mid, b) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// polyCoveredByPoly reports whether polygon a lies entirely within the
// closed region of polygon b.
func polyCoveredByPoly(a, b Geometry) bool {
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
			if !coveredByAnyHole(hp, a) {
				return false
			}
		}
	}
	return true
}

// coveredByAnyHole reports whether polygon hole hp is covered by one of
// a's own holes, meaning the excluded region was already excluded.
func coveredByAnyHole(hp, a Geometry) bool {
	for _, h := range a.Rings[1:] {
		ah := Geometry{Kind: KindPolygon, Rings: [][]Point{h}}
		if polyCoveredByPoly(hp, ah) {
			return true
		}
	}
	return false
}
