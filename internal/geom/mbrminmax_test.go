package geom

import (
	"math"
	"testing"
)

// The old forms of Union, Intersect and Dist, on math.Min and
// math.Max: the reference the builtin min and max must match.

func refUnion(m, o MBR) MBR {
	if m.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return m
	}
	return MBR{math.Min(m.MinX, o.MinX), math.Min(m.MinY, o.MinY), math.Max(m.MaxX, o.MaxX), math.Max(m.MaxY, o.MaxY)}
}

func refIntersect(m, o MBR) MBR {
	return MBR{math.Max(m.MinX, o.MinX), math.Max(m.MinY, o.MinY), math.Min(m.MaxX, o.MaxX), math.Min(m.MaxY, o.MaxY)}
}

func refDist(m, o MBR) float64 {
	if m.IsEmpty() || o.IsEmpty() {
		return math.Inf(1)
	}
	dx := math.Max(0, math.Max(o.MinX-m.MaxX, m.MinX-o.MaxX))
	dy := math.Max(0, math.Max(o.MinY-m.MaxY, m.MinY-o.MaxY))
	return math.Hypot(dx, dy)
}

// agrees reports whether a builtin result x stands for the math
// result y. With finite operands they are the same bits, signed zeros
// included. Where an operand is infinite or NaN, an intermediate NaN
// can meet an infinity: math.Min(-Inf, NaN) and math.Max(+Inf, NaN)
// return the infinity, the builtins NaN, as the spec says for any NaN
// operand. NaN also carries another payload. No MBR the program builds
// has such a bound: geometries and query windows reject NaN and ±Inf
// coordinates, distances must be finite and non-negative, and the
// empty rectangle never reaches the arithmetic.
func agrees(x, y float64, finite bool) bool {
	if finite || !math.IsNaN(x) {
		return sameBits(x, y)
	}
	return math.IsNaN(y) || math.IsInf(y, 0)
}

func agreesMBR(m, n MBR, finite bool) bool {
	return agrees(m.MinX, n.MinX, finite) && agrees(m.MinY, n.MinY, finite) &&
		agrees(m.MaxX, n.MaxX, finite) && agrees(m.MaxY, n.MaxY, finite)
}

func finiteMBR(m MBR) bool {
	for _, v := range [4]float64{m.MinX, m.MinY, m.MaxX, m.MaxY} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// TestMBRMinMaxMatchesMath compares Union, Intersect and Dist with
// their math.Min/math.Max forms over every ordered pair of corpus MBRs
// and of rectangles with ±0, ±Inf and NaN bounds: bit for bit between
// finite rectangles, signed zeros included, and as agrees allows
// otherwise.
func TestMBRMinMaxMatchesMath(t *testing.T) {
	var boxes []MBR
	for _, c := range corpusPairs(t) {
		boxes = append(boxes, MBROf(c.a))
	}
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1}
	for _, a := range special {
		for _, b := range special {
			boxes = append(boxes, MBR{a, b, 0, 0}, MBR{0, 0, a, b}, MBR{a, negZero, b, 0}, MBR{negZero, a, 0, b})
		}
	}
	boxes = append(boxes, EmptyMBR(), MBR{})
	for _, m := range boxes {
		for _, o := range boxes {
			finite := finiteMBR(m) && finiteMBR(o)
			if got, want := m.Union(o), refUnion(m, o); !agreesMBR(got, want, finite) {
				t.Fatalf("%v.Union(%v) = %v, want %v", m, o, got, want)
			}
			if got, want := m.Intersect(o), refIntersect(m, o); !agreesMBR(got, want, finite) {
				t.Fatalf("%v.Intersect(%v) = %v, want %v", m, o, got, want)
			}
			if got, want := m.Dist(o), refDist(m, o); !agrees(got, want, finite) {
				t.Fatalf("%v.Dist(%v) = %v, want %v", m, o, got, want)
			}
		}
	}
}
