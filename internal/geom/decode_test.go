package geom

import (
	"encoding/binary"
	"math"
	"testing"

	"spatialtf/internal/allocbound"
)

// TestUnmarshalBinaryRejectsInvalid feeds the decoder well-formed
// images of geometries no constructor would build. Snapshot import and
// every heap-row fetch decode through UnmarshalBinary, so each must be
// refused there rather than reach a predicate (a polygon with no rings
// made Centroid panic on the STR bulk-load path).
func TestUnmarshalBinaryRejectsInvalid(t *testing.T) {
	sq := []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]Geometry{
		"polygon with no rings":         {Kind: KindPolygon},
		"ring of 2 vertices":            {Kind: KindPolygon, Rings: [][]Point{{{0, 0}, {1, 1}}}},
		"hole of 0 vertices":            {Kind: KindPolygon, Rings: [][]Point{sq, {}}},
		"zero-area ring":                {Kind: KindPolygon, Rings: [][]Point{{{0, 0}, {1, 1}, {2, 2}}}},
		"linestring of 0 points":        {Kind: KindLineString},
		"linestring of 1 point":         {Kind: KindLineString, Pts: []Point{{1, 1}}},
		"point with 0 coordinates":      {Kind: KindPoint},
		"point with 2 coordinates":      {Kind: KindPoint, Pts: []Point{{1, 1}, {2, 2}}},
		"NaN point":                     {Kind: KindPoint, Pts: []Point{{nan, 0}}},
		"Inf linestring vertex":         {Kind: KindLineString, Pts: []Point{{0, 0}, {inf, 1}}},
		"NaN ring vertex":               {Kind: KindPolygon, Rings: [][]Point{{{0, 0}, {1, 0}, {1, nan}}}},
		"empty multipolygon":            {Kind: KindMultiPolygon},
		"multipolygon holding a point":  {Kind: KindMultiPolygon, Elems: []Geometry{NewPoint(1, 1)}},
		"multipoint holding a multi":    {Kind: KindMultiPoint, Elems: []Geometry{{Kind: KindMultiPoint, Elems: []Geometry{NewPoint(1, 1)}}}},
		"multilinestring with bad line": {Kind: KindMultiLineString, Elems: []Geometry{{Kind: KindLineString, Pts: []Point{{0, 0}}}}},
	}
	for name, g := range cases {
		if _, err := UnmarshalBinary(MarshalBinary(g)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepts it", name)
		}
	}
}

// fuzzSeeds are valid geometries of every kind, whose images and WKT
// seed both fuzz targets.
func fuzzSeeds(t testing.TB) []Geometry {
	out := []Geometry{
		NewPoint(1, 2),
		mustLine(t, Point{0, 0}, Point{1, 1}, Point{2, 0}),
		mustPolygon(t, []Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}, []Point{{3, 3}, {7, 3}, {7, 7}, {3, 7}}),
	}
	for _, c := range joinShapes(t, 40)[:2] {
		out = append(out, c.a)
	}
	for _, c := range generatedPairs(t, 3, 12) {
		if c.a.IsMulti() {
			out = append(out, c.a)
		}
	}
	return out
}

// checkDecoded is what both fuzz targets assert of anything a decoder
// accepts: it is valid, and the exact predicates and the bulk loader's
// centroid run on it without panicking.
func checkDecoded(t *testing.T, g Geometry) {
	if err := g.Validate(); err != nil {
		t.Fatalf("decoded geometry fails Validate: %v\n%v", err, g)
	}
	if !Relate(g, g, MaskAnyInteract) {
		t.Fatalf("valid geometry does not interact with itself: %v", g)
	}
	g.Centroid()
}

func FuzzGeomBinary(f *testing.F) {
	for _, g := range fuzzSeeds(f) {
		f.Add(MarshalBinary(g))
	}
	f.Add(MarshalBinary(Geometry{Kind: KindPolygon}))
	f.Add(MarshalBinary(Geometry{Kind: KindMultiPolygon, Elems: []Geometry{NewPoint(1, 1)}}))
	// A forged count: a line string of 2 Mi points (32 MiB) with none
	// behind it.
	f.Add(binary.AppendUvarint([]byte{byte(KindLineString), 1}, 2<<20))
	f.Fuzz(func(t *testing.T, b []byte) {
		var g Geometry
		var err error
		allocbound.Check(t, len(b), func() { g, err = UnmarshalBinary(b) })
		if err != nil {
			return
		}
		checkDecoded(t, g)
	})
}

func FuzzParseWKT(f *testing.F) {
	for _, g := range fuzzSeeds(f) {
		f.Add(MarshalWKT(g))
	}
	f.Add("POLYGON ((0 0, 1 1, 2 2, 0 0))")
	f.Add("MULTILINESTRING ((0 0, 1 1), (2 2))")
	f.Add("POINT (1e999 0)")
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ParseWKT(s)
		if err != nil {
			return
		}
		checkDecoded(t, g)
	})
}
