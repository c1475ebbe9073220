package geom

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary geometry codec. Geometry columns are stored in heap-table rows
// in this format (the analogue of sdo_geometry's on-disk object image).
//
// Layout (little endian):
//
//	byte    kind
//	uvarint part count   (1 for point/line, #rings for polygon, #elems for multi)
//	parts...
//
// For point/linestring the single part is a coordinate list:
//
//	uvarint n, then n × (float64 x, float64 y)
//
// For polygons each part is a ring coordinate list. For multi kinds each
// part is a recursively encoded primitive.

// AppendBinary appends the binary image of g to dst and returns it.
func AppendBinary(dst []byte, g Geometry) []byte {
	dst = append(dst, byte(g.Kind))
	switch g.Kind {
	case KindPoint, KindLineString:
		dst = binary.AppendUvarint(dst, 1)
		dst = appendCoords(dst, g.Pts)
	case KindPolygon:
		dst = binary.AppendUvarint(dst, uint64(len(g.Rings)))
		for _, r := range g.Rings {
			dst = appendCoords(dst, r)
		}
	default:
		dst = binary.AppendUvarint(dst, uint64(len(g.Elems)))
		for _, e := range g.Elems {
			dst = AppendBinary(dst, e)
		}
	}
	return dst
}

// MarshalBinary returns the binary image of g.
func MarshalBinary(g Geometry) []byte {
	return AppendBinary(make([]byte, 0, BinarySize(g)), g)
}

// BinarySize returns len(AppendBinary(nil, g)) without encoding, so
// callers that need a length prefix can append in place instead of
// marshalling to a throwaway buffer.
func BinarySize(g Geometry) int {
	n := 1 // kind byte
	switch g.Kind {
	case KindPoint, KindLineString:
		n += uvarintLen(1) + coordsSize(g.Pts)
	case KindPolygon:
		n += uvarintLen(uint64(len(g.Rings)))
		for _, r := range g.Rings {
			n += coordsSize(r)
		}
	default:
		n += uvarintLen(uint64(len(g.Elems)))
		for _, e := range g.Elems {
			n += BinarySize(e)
		}
	}
	return n
}

func coordsSize(pts []Point) int {
	return uvarintLen(uint64(len(pts))) + 16*len(pts)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func appendCoords(dst []byte, pts []Point) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	var buf [16]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Y))
		dst = append(dst, buf[:]...)
	}
	return dst
}

// UnmarshalBinary decodes a geometry previously produced by
// MarshalBinary/AppendBinary. Images arrive from outside the process
// (snapshot import), so a well-formed image of a geometry Validate
// rejects is an error here too: nothing downstream meets a polygon
// without rings or a NaN vertex.
func UnmarshalBinary(b []byte) (Geometry, error) {
	g, rest, err := decodeBinary(b)
	if err != nil {
		return Geometry{}, err
	}
	if len(rest) != 0 {
		return Geometry{}, fmt.Errorf("geom: %d trailing bytes after geometry", len(rest))
	}
	if err := g.Validate(); err != nil {
		return Geometry{}, fmt.Errorf("geom: invalid %v image: %w", g.Kind, err)
	}
	return g, nil
}

// maxGeomDepth bounds the nesting of multi-geometry elements. Legal
// images are at most two levels deep (a multi kind over primitives);
// the slack keeps the decoder's recursion bounded on adversarial input
// without rejecting anything the encoder can produce.
const maxGeomDepth = 16

func decodeBinary(b []byte) (Geometry, []byte, error) {
	return decodeBinaryDepth(b, 0)
}

func decodeBinaryDepth(b []byte, depth int) (Geometry, []byte, error) {
	if depth > maxGeomDepth {
		return Geometry{}, nil, fmt.Errorf("geom: geometry nested deeper than %d", maxGeomDepth)
	}
	if len(b) < 1 {
		return Geometry{}, nil, fmt.Errorf("geom: truncated geometry header")
	}
	kind := Kind(b[0])
	b = b[1:]
	nParts, n := binary.Uvarint(b)
	if n <= 0 {
		return Geometry{}, nil, fmt.Errorf("geom: truncated part count")
	}
	b = b[n:]
	switch kind {
	case KindPoint, KindLineString:
		if nParts != 1 {
			return Geometry{}, nil, fmt.Errorf("geom: %v with %d parts", kind, nParts)
		}
		pts, rest, err := decodeCoords(b)
		if err != nil {
			return Geometry{}, nil, err
		}
		return Geometry{Kind: kind, Pts: pts}, rest, nil
	case KindPolygon:
		// Each ring costs at least one count byte, so nParts beyond
		// len(b) cannot decode; checking first keeps the pre-allocation
		// bounded by the input size rather than by a forged count.
		if nParts > uint64(len(b)) {
			return Geometry{}, nil, fmt.Errorf("geom: %d rings in %d bytes", nParts, len(b))
		}
		rings := make([][]Point, 0, nParts)
		for i := uint64(0); i < nParts; i++ {
			pts, rest, err := decodeCoords(b)
			if err != nil {
				return Geometry{}, nil, err
			}
			rings = append(rings, pts)
			b = rest
		}
		return Geometry{Kind: kind, Rings: rings}, b, nil
	case KindMultiPoint, KindMultiLineString, KindMultiPolygon:
		// Each element costs at least a kind byte and a count byte.
		if nParts > uint64(len(b))/2 {
			return Geometry{}, nil, fmt.Errorf("geom: %d elements in %d bytes", nParts, len(b))
		}
		elems := make([]Geometry, 0, nParts)
		for i := uint64(0); i < nParts; i++ {
			e, rest, err := decodeBinaryDepth(b, depth+1)
			if err != nil {
				return Geometry{}, nil, err
			}
			elems = append(elems, e)
			b = rest
		}
		return Geometry{Kind: kind, Elems: elems}, b, nil
	default:
		return Geometry{}, nil, fmt.Errorf("geom: bad kind byte %d", kind)
	}
}

func decodeCoords(b []byte) ([]Point, []byte, error) {
	nPts, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, fmt.Errorf("geom: truncated coordinate count")
	}
	b = b[n:]
	// Compare in uint64 space: a forged 64-bit count times 16 would
	// overflow int and slip past a `len(b) < need` check.
	if nPts > uint64(len(b))/16 {
		return nil, nil, fmt.Errorf("geom: truncated coordinates: need %d points, have %d bytes", nPts, len(b))
	}
	need := int(nPts) * 16
	pts := make([]Point, nPts)
	for i := range pts {
		pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(b[i*16:]))
		pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(b[i*16+8:]))
	}
	return pts, b[need:], nil
}
