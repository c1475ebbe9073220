package geom

import (
	"fmt"
	"math"
)

// MBR is an axis-aligned minimum bounding rectangle. It is the index
// approximation stored in R-tree entries and compared by the primary
// filter of the two-stage join.
type MBR struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyMBR returns the identity element for Union: a rectangle that
// contains nothing and unions to its operand.
func EmptyMBR() MBR {
	return MBR{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether m is the empty rectangle.
func (m MBR) IsEmpty() bool { return m.MinX > m.MaxX || m.MinY > m.MaxY }

// IsPoint reports whether m is a single point. The MBR of a valid,
// non-empty geometry is a point exactly when the geometry is that point
// (a point, a multipoint of one repeated coordinate, a zero-length
// line), so for such a pair the MBR tests are the exact ANYINTERACT and
// within-distance predicates. The empty rectangle is not a point; the
// zero MBR is the origin.
func (m MBR) IsPoint() bool { return m.MinX == m.MaxX && m.MinY == m.MaxY }

// Valid reports whether m is a non-empty rectangle with finite bounds.
func (m MBR) Valid() bool {
	return !m.IsEmpty() &&
		!math.IsInf(m.MinX, 0) && !math.IsInf(m.MinY, 0) &&
		!math.IsInf(m.MaxX, 0) && !math.IsInf(m.MaxY, 0) &&
		!math.IsNaN(m.MinX) && !math.IsNaN(m.MinY) &&
		!math.IsNaN(m.MaxX) && !math.IsNaN(m.MaxY)
}

// Width returns the X extent of m.
func (m MBR) Width() float64 { return m.MaxX - m.MinX }

// Height returns the Y extent of m.
func (m MBR) Height() float64 { return m.MaxY - m.MinY }

// Area returns the area of m (zero for empty rectangles).
func (m MBR) Area() float64 {
	if m.IsEmpty() {
		return 0
	}
	return m.Width() * m.Height()
}

// Margin returns the half-perimeter of m, used by node split heuristics.
func (m MBR) Margin() float64 {
	if m.IsEmpty() {
		return 0
	}
	return m.Width() + m.Height()
}

// Center returns the center point of m.
func (m MBR) Center() Point { return Point{(m.MinX + m.MaxX) / 2, (m.MinY + m.MaxY) / 2} }

// Union returns the smallest rectangle containing both m and o.
func (m MBR) Union(o MBR) MBR {
	if m.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return m
	}
	return MBR{
		MinX: min(m.MinX, o.MinX),
		MinY: min(m.MinY, o.MinY),
		MaxX: max(m.MaxX, o.MaxX),
		MaxY: max(m.MaxY, o.MaxY),
	}
}

// Intersect returns the overlap of m and o, which may be empty.
func (m MBR) Intersect(o MBR) MBR {
	return MBR{
		MinX: max(m.MinX, o.MinX),
		MinY: max(m.MinY, o.MinY),
		MaxX: min(m.MaxX, o.MaxX),
		MaxY: min(m.MaxY, o.MaxY),
	}
}

// Intersects reports whether m and o share at least one point
// (boundary contact counts).
func (m MBR) Intersects(o MBR) bool {
	if m.IsEmpty() || o.IsEmpty() {
		return false
	}
	return m.MinX <= o.MaxX && o.MinX <= m.MaxX &&
		m.MinY <= o.MaxY && o.MinY <= m.MaxY
}

// Contains reports whether m contains all of o (boundary contact allowed).
func (m MBR) Contains(o MBR) bool {
	if m.IsEmpty() || o.IsEmpty() {
		return false
	}
	return m.MinX <= o.MinX && o.MaxX <= m.MaxX &&
		m.MinY <= o.MinY && o.MaxY <= m.MaxY
}

// ContainsPoint reports whether p lies in m (boundary inclusive).
func (m MBR) ContainsPoint(p Point) bool {
	return m.MinX <= p.X && p.X <= m.MaxX && m.MinY <= p.Y && p.Y <= m.MaxY
}

// Enlargement returns the area growth of m needed to absorb o. It drives
// the R-tree ChooseSubtree descent.
func (m MBR) Enlargement(o MBR) float64 {
	return m.Union(o).Area() - m.Area()
}

// Expand returns m grown by d on every side. Within-distance joins use
// it to turn a distance predicate into an MBR-intersection primary
// filter: dist(A, B) ≤ d ⇒ expand(mbr(A), d) intersects mbr(B).
func (m MBR) Expand(d float64) MBR {
	if m.IsEmpty() {
		return m
	}
	return MBR{m.MinX - d, m.MinY - d, m.MaxX + d, m.MaxY + d}
}

// Dist returns the minimum distance between the rectangles m and o
// (zero if they intersect). It lower-bounds the exact geometry distance,
// which makes it a sound primary filter for within-distance predicates.
func (m MBR) Dist(o MBR) float64 {
	if m.IsEmpty() || o.IsEmpty() {
		return math.Inf(1)
	}
	dx := max(0, o.MinX-m.MaxX, m.MinX-o.MaxX)
	dy := max(0, o.MinY-m.MaxY, m.MinY-o.MaxY)
	return math.Hypot(dx, dy)
}

// String formats m for logs and test failures.
func (m MBR) String() string {
	return fmt.Sprintf("MBR(%g,%g; %g,%g)", m.MinX, m.MinY, m.MaxX, m.MaxY)
}

// MBROf returns the minimum bounding rectangle of g, or the empty
// rectangle for an invalid geometry. It reads the memo of a bounded
// geometry (Bounded). Otherwise it folds the vertices with min and max,
// as chain.span does, so the two agree bit for bit, signed zeros
// included, and the memo can stand for either.
func MBROf(g Geometry) MBR {
	if g.memo != nil {
		return g.memo.box
	}
	m := EmptyMBR()
	grow := func(pts []Point) {
		for _, p := range pts {
			m = MBR{min(m.MinX, p.X), min(m.MinY, p.Y), max(m.MaxX, p.X), max(m.MaxY, p.Y)}
		}
	}
	switch g.Kind {
	case KindPoint, KindLineString:
		grow(g.Pts)
	case KindPolygon:
		// Holes lie inside the outer ring, so the outer ring determines
		// the MBR.
		if len(g.Rings) > 0 {
			grow(g.Rings[0])
		}
	default:
		for _, e := range g.Elems {
			m = m.Union(MBROf(e))
		}
	}
	return m
}
