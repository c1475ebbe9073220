package geom

// This file implements the exact intersection test between arbitrary
// geometry pairs — the heart of the "secondary filter" that the paper's
// two-stage join applies to each candidate pair after the index-level
// MBR (primary) filter. Every comparison of two boundaries goes through
// edgePairs (edges.go), which skips the edge pairs that cannot meet.

// Intersects reports whether g and h share at least one point
// (Oracle's ANYINTERACT relationship). Both geometries must be valid.
func Intersects(g, h Geometry) bool {
	return MBROf(g).Intersects(MBROf(h)) && anyPrimPair(g, h, primIntersects)
}

// anyPrimPair reports whether fn holds for some primitive of g and
// some primitive of h.
func anyPrimPair(g, h Geometry, fn func(a, b Geometry) bool) bool {
	var gb, hb [1]Geometry
	hs := h.primitives(&hb)
	for _, a := range g.primitives(&gb) {
		for _, b := range hs {
			if fn(a, b) {
				return true
			}
		}
	}
	return false
}

// chains returns the number of boundary chains of line or polygon g:
// one path for a line string, one ring per polygon ring.
func (g Geometry) chains() int {
	if g.Kind == KindLineString {
		return 1
	}
	return len(g.Rings)
}

// chain returns g's i-th boundary chain. The first one carries g's memo
// (Bounded), if g has one.
func (g Geometry) chain(i int) chain {
	c := path(g.Pts)
	if g.Kind != KindLineString {
		c = ring(g.Rings[i])
	}
	if i == 0 {
		c.memo = g.memo
	}
	return c
}

// chainPairs reports whether fn holds for some pair of a boundary chain
// of a and one of b, both lines or polygons.
func chainPairs(a, b Geometry, fn func(p, q chain) bool) bool {
	for i := 0; i < a.chains(); i++ {
		for j := 0; j < b.chains(); j++ {
			if fn(a.chain(i), b.chain(j)) {
				return true
			}
		}
	}
	return false
}

// boundariesMeet reports whether some edge of a's boundary and some
// edge of b's satisfy meet (segIntersects or segProperCross).
func boundariesMeet(a, b Geometry, meet func(a, b, c, d Point) bool) bool {
	return chainPairs(a, b, func(p, q chain) bool { return edgePairs(p, q, 0, meet) })
}

// anyBoundaryEdge reports whether fn holds for some boundary edge of
// line or polygon g.
func anyBoundaryEdge(g Geometry, fn func(a, b Point) bool) bool {
	for i := 0; i < g.chains(); i++ {
		if g.chain(i).anyEdge(fn) {
			return true
		}
	}
	return false
}

func mid(a, b Point) Point { return Point{(a.X + b.X) / 2, (a.Y + b.Y) / 2} }

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
		return boundariesMeet(a, b, segIntersects)
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
	return path(pts).anyEdge(func(a, b Point) bool { return orient(a, b, p) == 0 && onSegment(a, b, p) })
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
	return boundariesMeet(l, p, segIntersects)
}

// polyPolyIntersects reports whether two polygons share a point.
func polyPolyIntersects(p, q Geometry) bool {
	// Boundary-boundary contact.
	if boundariesMeet(p, q, segIntersects) {
		return true
	}
	// No boundary contact: either disjoint or one strictly inside the
	// other. A single vertex test per direction decides it (holes are
	// handled by pointInPolygon).
	return pointInPolygon(p.Rings[0][0], q) > 0 || pointInPolygon(q.Rings[0][0], p) > 0
}

// boundariesIntersect reports whether the boundaries of g and h share a
// point. For points the boundary is the point itself; for lines the
// polyline; for polygons all rings.
func boundariesIntersect(g, h Geometry) bool {
	return anyPrimPair(g, h, primBoundariesIntersect)
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
	default: // lines and polygons: their edges meet
		return boundariesMeet(a, b, segIntersects)
	}
}

// interiorsIntersect reports whether the interiors of g and h share a
// point. For a point the interior is the point; for a line the polyline
// minus its two endpoints; for a polygon the open region.
func interiorsIntersect(g, h Geometry) bool {
	return anyPrimPair(g, h, primInteriorsIntersect)
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
		return lineInteriorsIntersect(a, b)
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

// lineInteriorsIntersect reports whether two line strings intersect at
// a point interior to both (any shared point that is not exclusively an
// endpoint-endpoint touch).
func lineInteriorsIntersect(a, b Geometry) bool {
	if !boundariesMeet(a, b, segIntersects) {
		return false
	}
	// A proper segment crossing is always interior-interior.
	if boundariesMeet(a, b, segProperCross) {
		return true
	}
	// Otherwise all contacts are touches/overlaps; check whether some
	// contact point is interior to both polylines. Sample candidate
	// points: all vertices of each line lying on the other.
	p, q := a.Pts, b.Pts
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
	// outside to inside (or between interior regions). Edge midpoints
	// catch the case of a segment whose endpoints both lie on the
	// boundary but whose middle runs inside.
	return boundariesMeet(l, p, segProperCross) ||
		anyBoundaryEdge(l, func(a, b Point) bool { return pointInPolygon(mid(a, b), p) > 0 })
}

// polyInteriorsIntersect reports whether the open interiors of two
// polygons overlap.
func polyInteriorsIntersect(p, q Geometry) bool {
	// A proper edge crossing forces interior overlap.
	if boundariesMeet(p, q, segProperCross) {
		return true
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
	if anyBoundaryEdge(p, func(a, b Point) bool { return pointInPolygon(mid(a, b), q) > 0 }) ||
		anyBoundaryEdge(q, func(a, b Point) bool { return pointInPolygon(mid(a, b), p) > 0 }) {
		return true
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
	return !boundariesMeet(l, p, segProperCross) &&
		!anyBoundaryEdge(l, func(a, b Point) bool { return pointInPolygon(mid(a, b), p) < 0 })
}

// lineCoveredByLine reports whether polyline a is a sub-path of
// polyline b: every vertex of a on b and every edge midpoint of a on b.
func lineCoveredByLine(a, b []Point) bool {
	for _, v := range a {
		if !pointOnPath(v, b) {
			return false
		}
	}
	return !path(a).anyEdge(func(p, q Point) bool { return !pointOnPath(mid(p, q), b) })
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
	// No proper boundary crossing, and edge midpoints of a must remain
	// in b (catches concavities).
	if boundariesMeet(a, b, segProperCross) ||
		anyBoundaryEdge(a, func(p, q Point) bool { return pointInPolygon(mid(p, q), b) < 0 }) {
		return false
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
