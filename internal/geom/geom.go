// Package geom implements the 2-D geometry model used throughout the
// library. It is the stand-in for Oracle Spatial's sdo_geometry object
// type: simple primitive elements (points, line strings, polygons with
// holes) and complex elements composed of primitives (multi-points,
// multi-line-strings, multi-polygons).
//
// The package provides exact predicate evaluation (the "secondary filter"
// of the paper's two-stage join), minimum bounding rectangles (the
// "primary filter"), distance computation for within-distance joins, and
// WKT-style text I/O for the example programs and dataset tools.
package geom

import (
	"errors"
	"fmt"
	"math"
)

// Kind identifies the shape class of a Geometry, mirroring the gtype
// attribute of sdo_geometry.
type Kind uint8

// Supported geometry kinds.
const (
	// KindNone is the zero Kind; it marks an invalid or empty geometry.
	KindNone Kind = iota
	// KindPoint is a single coordinate pair.
	KindPoint
	// KindLineString is a polyline with at least two vertices.
	KindLineString
	// KindPolygon is a simple polygon with an outer ring and zero or
	// more hole rings. Rings are stored closed (first vertex repeated
	// as the last vertex is NOT required; rings are implicitly closed).
	KindPolygon
	// KindMultiPoint is a collection of points.
	KindMultiPoint
	// KindMultiLineString is a collection of line strings.
	KindMultiLineString
	// KindMultiPolygon is a collection of polygons.
	KindMultiPolygon
)

// String returns the OGC-style name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "NONE"
	case KindPoint:
		return "POINT"
	case KindLineString:
		return "LINESTRING"
	case KindPolygon:
		return "POLYGON"
	case KindMultiPoint:
		return "MULTIPOINT"
	case KindMultiLineString:
		return "MULTILINESTRING"
	case KindMultiPolygon:
		return "MULTIPOLYGON"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// Point is a 2-D coordinate.
type Point struct {
	X, Y float64
}

// Sub returns the vector p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Add returns the vector p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dot returns the dot product p · q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the 2-D cross product (z-component) p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Geometry is the sdo_geometry equivalent. Exactly one of the payload
// fields is populated depending on Kind:
//
//   - KindPoint:            Pts holds one vertex.
//   - KindLineString:       Pts holds the polyline vertices (≥ 2).
//   - KindPolygon:          Rings[0] is the outer ring (≥ 3 vertices,
//     counter-clockwise); Rings[1:] are holes (clockwise by convention,
//     orientation is normalised by the constructors).
//   - KindMulti*:           Elems holds the primitive members.
//
// A Geometry value is immutable by convention: callers must not mutate
// the slices after construction, which lets indexes share geometry
// storage without copying. Immutability also guards the memo Bounded
// attaches: it holds bounds computed from the vertices, and every copy
// of the value shares it.
type Geometry struct {
	Kind  Kind
	Pts   []Point
	Rings [][]Point
	Elems []Geometry
	memo  *bounds // set by Bounded, nil otherwise
}

// bounds is the memo Bounded attaches to a line or polygon: what its
// first boundary chain's span returns — the chain's box, which is also
// the geometry's MBR, and the L∞ length of its shortest edge.
type bounds struct {
	box   MBR
	short float64
}

// Bounded returns g carrying a memo of its bounds, so that MBROf and the
// exact predicates read them instead of walking g's vertices again. It
// is meant for a geometry many predicates will read, such as one a join
// caches. The memo holds the floats the kernels compute without it, so
// every answer on a bounded geometry is bit for bit the one on g. A line
// or polygon costs one allocation; a point, a multi kind, or a geometry
// already bounded is returned as it is. So is a line of fewer than two
// vertices, whose path has no edge, so its span is not its MBR.
func Bounded(g Geometry) Geometry {
	chained := g.Kind == KindLineString && len(g.Pts) >= 2 || g.Kind == KindPolygon && len(g.Rings) > 0
	if !chained || g.memo != nil {
		return g
	}
	box, short := g.chain(0).span()
	g.memo = &bounds{box, short}
	return g
}

// MemoBytes returns the bytes of the memo g carries: the size of one
// bounds if Bounded attached it, zero otherwise. Caches count it when
// they size a geometry.
func (g Geometry) MemoBytes() int {
	if g.memo == nil {
		return 0
	}
	return boundsBytes
}

// boundsBytes is the size of a bounds: an MBR and a float64.
const boundsBytes = 5 * 8

// Validation errors returned by the constructors and Validate.
var (
	ErrEmpty         = errors.New("geom: empty geometry")
	ErrTooFewPoints  = errors.New("geom: too few points")
	ErrDegenerate    = errors.New("geom: degenerate ring (zero area)")
	ErrBadKind       = errors.New("geom: invalid kind")
	ErrBadElement    = errors.New("geom: invalid collection element")
	ErrNotFinite     = errors.New("geom: coordinate is NaN or Inf")
	ErrRingNotClosed = errors.New("geom: ring not closed")
)

// NewPoint returns a point geometry.
func NewPoint(x, y float64) Geometry {
	return Geometry{Kind: KindPoint, Pts: []Point{{x, y}}}
}

// NewLineString returns a line-string geometry over the given vertices.
// It returns an error if fewer than two vertices are supplied or any
// coordinate is not finite.
func NewLineString(pts []Point) (Geometry, error) {
	if len(pts) < 2 {
		return Geometry{}, fmt.Errorf("linestring with %d points: %w", len(pts), ErrTooFewPoints)
	}
	if err := checkFinite(pts); err != nil {
		return Geometry{}, err
	}
	return Geometry{Kind: KindLineString, Pts: pts}, nil
}

// NewPolygon returns a polygon geometry. rings[0] is the outer ring and
// rings[1:] are holes. Rings may be supplied open or closed (an explicit
// trailing vertex equal to the first is dropped); each ring must have at
// least three distinct vertices and non-zero area. The outer ring is
// normalised to counter-clockwise orientation and holes to clockwise.
func NewPolygon(rings ...[]Point) (Geometry, error) {
	if len(rings) == 0 {
		return Geometry{}, ErrEmpty
	}
	norm := make([][]Point, len(rings))
	for i, r := range rings {
		r = dropClosingVertex(r)
		if len(r) < 3 {
			return Geometry{}, fmt.Errorf("ring %d with %d points: %w", i, len(r), ErrTooFewPoints)
		}
		if err := checkFinite(r); err != nil {
			return Geometry{}, err
		}
		a := signedArea(r)
		if a == 0 {
			return Geometry{}, fmt.Errorf("ring %d: %w", i, ErrDegenerate)
		}
		// Outer ring CCW (positive signed area), holes CW (negative).
		wantCCW := i == 0
		if (a > 0) != wantCCW {
			r = reversed(r)
		}
		norm[i] = r
	}
	return Geometry{Kind: KindPolygon, Rings: norm}, nil
}

// NewRect returns an axis-aligned rectangular polygon. It is the common
// shape for query windows and synthetic workloads.
func NewRect(minX, minY, maxX, maxY float64) (Geometry, error) {
	if !(minX < maxX && minY < maxY) {
		return Geometry{}, fmt.Errorf("rect [%g,%g]x[%g,%g]: %w", minX, maxX, minY, maxY, ErrDegenerate)
	}
	return NewPolygon([]Point{{minX, minY}, {maxX, minY}, {maxX, maxY}, {minX, maxY}})
}

// NewMulti returns a homogeneous multi-geometry of the given kind
// (KindMultiPoint, KindMultiLineString or KindMultiPolygon) over elems,
// each of which must be a valid geometry of the matching primitive kind.
func NewMulti(kind Kind, elems []Geometry) (Geometry, error) {
	if memberKind(kind) == KindNone {
		return Geometry{}, fmt.Errorf("kind %v: %w", kind, ErrBadKind)
	}
	g := Geometry{Kind: kind, Elems: elems}
	if err := g.Validate(); err != nil {
		return Geometry{}, err
	}
	return g, nil
}

// memberKind returns the primitive kind a collection kind holds, or
// KindNone when k is not a collection kind.
func memberKind(k Kind) Kind {
	switch k {
	case KindMultiPoint:
		return KindPoint
	case KindMultiLineString:
		return KindLineString
	case KindMultiPolygon:
		return KindPolygon
	}
	return KindNone
}

// Validate checks the structural invariants of g and returns the first
// violation found, or nil if g is well formed. It is the one list of
// rules: NewMulti and UnmarshalBinary apply it as it stands.
func (g Geometry) Validate() error {
	switch g.Kind {
	case KindPoint:
		if len(g.Pts) != 1 {
			return fmt.Errorf("point with %d coordinates: %w", len(g.Pts), ErrTooFewPoints)
		}
		return checkFinite(g.Pts)
	case KindLineString:
		if len(g.Pts) < 2 {
			return fmt.Errorf("linestring with %d points: %w", len(g.Pts), ErrTooFewPoints)
		}
		return checkFinite(g.Pts)
	case KindPolygon:
		if len(g.Rings) == 0 {
			return ErrEmpty
		}
		for i, r := range g.Rings {
			if len(r) < 3 {
				return fmt.Errorf("ring %d: %w", i, ErrTooFewPoints)
			}
			if err := checkFinite(r); err != nil {
				return err
			}
			if signedArea(r) == 0 {
				return fmt.Errorf("ring %d: %w", i, ErrDegenerate)
			}
		}
		return nil
	case KindMultiPoint, KindMultiLineString, KindMultiPolygon:
		if len(g.Elems) == 0 {
			return ErrEmpty
		}
		for i, e := range g.Elems {
			if want := memberKind(g.Kind); e.Kind != want {
				return fmt.Errorf("element %d is %v, want %v: %w", i, e.Kind, want, ErrBadElement)
			}
			if err := e.Validate(); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
		return nil
	default:
		return ErrBadKind
	}
}

// IsMulti reports whether g is a collection kind.
func (g Geometry) IsMulti() bool { return memberKind(g.Kind) != KindNone }

// primitives returns the primitive members of g, read-only: the element
// list of a multi kind, or g itself stored in the caller's one-slot
// buffer — a stack array at every call site, so the exact predicates
// allocate nothing to iterate their operands.
func (g Geometry) primitives(buf *[1]Geometry) []Geometry {
	if g.IsMulti() {
		return g.Elems
	}
	buf[0] = g
	return buf[:]
}

// NumVertices returns the total vertex count across all parts of g. It
// is the complexity measure the paper uses when discussing "large and
// complex" geometries (tessellation cost scales with it).
func (g Geometry) NumVertices() int {
	switch g.Kind {
	case KindPoint, KindLineString:
		return len(g.Pts)
	case KindPolygon:
		n := 0
		for _, r := range g.Rings {
			n += len(r)
		}
		return n
	default:
		n := 0
		for _, e := range g.Elems {
			n += e.NumVertices()
		}
		return n
	}
}

// Area returns the area of g: ring areas minus hole areas for polygons,
// summed over multi-polygon members; zero for points and lines.
func (g Geometry) Area() float64 {
	switch g.Kind {
	case KindPolygon:
		a := math.Abs(signedArea(g.Rings[0]))
		for _, h := range g.Rings[1:] {
			a -= math.Abs(signedArea(h))
		}
		return a
	case KindMultiPolygon:
		a := 0.0
		for _, e := range g.Elems {
			a += e.Area()
		}
		return a
	default:
		return 0
	}
}

// Length returns the total boundary length of g: perimeter for polygons,
// polyline length for line strings, zero for points.
func (g Geometry) Length() float64 {
	switch g.Kind {
	case KindLineString:
		return pathLength(g.Pts, false)
	case KindPolygon:
		l := 0.0
		for _, r := range g.Rings {
			l += pathLength(r, true)
		}
		return l
	case KindMultiLineString, KindMultiPolygon:
		l := 0.0
		for _, e := range g.Elems {
			l += e.Length()
		}
		return l
	default:
		return 0
	}
}

// Centroid returns the vertex-average centroid of g. It is used by the
// R-tree STR bulk loader for tile ordering, where the exact mass centroid
// is unnecessary.
func (g Geometry) Centroid() Point {
	var sx, sy float64
	n := 0
	add := func(pts []Point) {
		for _, p := range pts {
			sx += p.X
			sy += p.Y
		}
		n += len(pts)
	}
	switch g.Kind {
	case KindPoint, KindLineString:
		add(g.Pts)
	case KindPolygon:
		add(g.Rings[0])
	default:
		for _, e := range g.Elems {
			c := e.Centroid()
			sx += c.X
			sy += c.Y
			n++
		}
	}
	if n == 0 {
		return Point{}
	}
	return Point{sx / float64(n), sy / float64(n)}
}

// Translate returns a copy of g shifted by (dx, dy).
func (g Geometry) Translate(dx, dy float64) Geometry {
	shift := func(pts []Point) []Point {
		out := make([]Point, len(pts))
		for i, p := range pts {
			out[i] = Point{p.X + dx, p.Y + dy}
		}
		return out
	}
	out := Geometry{Kind: g.Kind}
	switch g.Kind {
	case KindPoint, KindLineString:
		out.Pts = shift(g.Pts)
	case KindPolygon:
		out.Rings = make([][]Point, len(g.Rings))
		for i, r := range g.Rings {
			out.Rings[i] = shift(r)
		}
	default:
		out.Elems = make([]Geometry, len(g.Elems))
		for i, e := range g.Elems {
			out.Elems[i] = e.Translate(dx, dy)
		}
	}
	return out
}

// Equal reports whether g and h describe the same point set, up to ring
// rotation and multi-element order. It implements the EQUAL relate mask.
func (g Geometry) Equal(h Geometry) bool {
	if g.Kind != h.Kind {
		return false
	}
	switch g.Kind {
	case KindPoint:
		return g.Pts[0] == h.Pts[0]
	case KindLineString:
		return pathsEqual(g.Pts, h.Pts)
	case KindPolygon:
		if len(g.Rings) != len(h.Rings) {
			return false
		}
		if !ringsEqual(g.Rings[0], h.Rings[0]) {
			return false
		}
		// Holes may appear in any order: each must occur as often in h.
		for _, r := range g.Rings[1:] {
			if countEqual(g.Rings[1:], r, ringsEqual) != countEqual(h.Rings[1:], r, ringsEqual) {
				return false
			}
		}
		return true
	default:
		if len(g.Elems) != len(h.Elems) {
			return false
		}
		// Members may appear in any order: each must occur as often in h.
		for _, e := range g.Elems {
			if countEqual(g.Elems, e, Geometry.Equal) != countEqual(h.Elems, e, Geometry.Equal) {
				return false
			}
		}
		return true
	}
}

// countEqual returns how many members of xs are eq to x. Comparing
// these counts matches two lists as multisets without a scratch slice,
// because each eq (ringsEqual, Geometry.Equal) is an equivalence.
func countEqual[T any](xs []T, x T, eq func(a, b T) bool) int {
	n := 0
	for _, y := range xs {
		if eq(x, y) {
			n++
		}
	}
	return n
}

// String returns the WKT form of g.
func (g Geometry) String() string { return MarshalWKT(g) }

// --- small internal helpers ---

// checkFinite rejects NaN and ±Inf coordinates. It runs on every decoded
// vertex, so it tests with one comparison per point: x − x is 0 for
// every finite x and NaN otherwise, and NaN ≠ 0.
func checkFinite(pts []Point) error {
	for _, p := range pts {
		if (p.X-p.X)+(p.Y-p.Y) != 0 {
			return ErrNotFinite
		}
	}
	return nil
}

// dropClosingVertex removes an explicit trailing vertex equal to the
// first one, so rings are stored implicitly closed.
func dropClosingVertex(r []Point) []Point {
	if len(r) >= 2 && r[0] == r[len(r)-1] {
		return r[:len(r)-1]
	}
	return r
}

// signedArea returns twice-signed-area/2 of an implicitly closed ring:
// positive for counter-clockwise orientation.
func signedArea(r []Point) float64 {
	if len(r) == 0 {
		return 0
	}
	a := 0.0
	for i := 1; i < len(r); i++ {
		a += r[i-1].Cross(r[i])
	}
	return (a + r[len(r)-1].Cross(r[0])) / 2
}

func reversed(r []Point) []Point {
	out := make([]Point, len(r))
	for i, p := range r {
		out[len(r)-1-i] = p
	}
	return out
}

func pathLength(pts []Point, closed bool) float64 {
	l := 0.0
	for i := 1; i < len(pts); i++ {
		l += pts[i-1].Dist(pts[i])
	}
	if closed && len(pts) > 2 {
		l += pts[len(pts)-1].Dist(pts[0])
	}
	return l
}

// pathsEqual reports whether two open polylines are identical forwards
// or backwards.
func pathsEqual(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	fwd, bwd := true, true
	n := len(a)
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			fwd = false
		}
		if a[i] != b[n-1-i] {
			bwd = false
		}
		if !fwd && !bwd {
			return false
		}
	}
	return fwd || bwd
}

// ringsEqual reports whether two implicitly closed rings describe the
// same cycle, up to rotation and direction.
func ringsEqual(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	n := len(a)
	for off := 0; off < n; off++ {
		if a[0] != b[off] {
			continue
		}
		fwd, bwd := true, true
		for i := 0; i < n; i++ {
			if a[i] != b[(off+i)%n] {
				fwd = false
			}
			if a[i] != b[((off-i)%n+n)%n] {
				bwd = false
			}
			if !fwd && !bwd {
				break
			}
		}
		if fwd || bwd {
			return true
		}
	}
	return false
}
