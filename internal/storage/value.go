package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"spatialtf/internal/geom"
)

// ColType identifies a column's value domain.
type ColType uint8

// Supported column types.
const (
	// TInt64 is a signed 64-bit integer column.
	TInt64 ColType = iota + 1
	// TFloat64 is a 64-bit floating-point column.
	TFloat64
	// TString is a UTF-8 string column.
	TString
	// TBytes is a raw byte-string column.
	TBytes
	// TGeometry is an sdo_geometry-style spatial column.
	TGeometry
)

// String returns the SQL-ish name of the type.
func (t ColType) String() string {
	switch t {
	case TInt64:
		return "INT"
	case TFloat64:
		return "FLOAT"
	case TString:
		return "VARCHAR"
	case TBytes:
		return "RAW"
	case TGeometry:
		return "GEOMETRY"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Value is a tagged union holding one column value. Exactly the field
// matching Type is meaningful.
type Value struct {
	Type ColType
	I    int64
	F    float64
	S    string
	B    []byte
	G    geom.Geometry
}

// Int returns an int64 value.
func Int(v int64) Value { return Value{Type: TInt64, I: v} }

// Float returns a float64 value.
func Float(v float64) Value { return Value{Type: TFloat64, F: v} }

// Str returns a string value.
func Str(v string) Value { return Value{Type: TString, S: v} }

// Bytes returns a raw bytes value.
func Bytes(v []byte) Value { return Value{Type: TBytes, B: v} }

// Geom returns a geometry value.
func Geom(g geom.Geometry) Value { return Value{Type: TGeometry, G: g} }

// String renders the value for logs and the CLI tools.
func (v Value) String() string {
	if v.Type == TString {
		return v.S
	}
	return string(v.AppendString(nil))
}

// AppendString appends the String form of v to dst.
func (v Value) AppendString(dst []byte) []byte {
	switch v.Type {
	case TInt64:
		return strconv.AppendInt(dst, v.I, 10)
	case TFloat64:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case TString:
		return append(dst, v.S...)
	case TBytes:
		return fmt.Appendf(dst, "0x%x", v.B)
	case TGeometry:
		return append(dst, geom.MarshalWKT(v.G)...)
	default:
		return append(dst, "NULL"...)
	}
}

// Row is one table row: one Value per schema column.
type Row []Value

// EncodeRow returns the binary image of row under schema — the same
// encoding heap pages store, exposed for snapshots and tools.
func EncodeRow(schema []Column, row Row) ([]byte, error) {
	return AppendRow(nil, schema, row)
}

// DecodeRow inverts EncodeRow.
func DecodeRow(schema []Column, b []byte) (Row, error) {
	row := make(Row, len(schema))
	if err := DecodeRowInto(row, schema, b, ""); err != nil {
		return nil, err
	}
	return row, nil
}

// AppendRow appends the binary image of row to dst (the wire codec
// encodes batch rows straight into the frame image with it). Layout per
// column: the schema fixes the type, so only payloads are stored:
//
//	TInt64:    8-byte little-endian two's complement
//	TFloat64:  8-byte IEEE bits
//	TString:   uvarint length + bytes
//	TBytes:    uvarint length + bytes
//	TGeometry: uvarint length + geom binary image
func AppendRow(dst []byte, schema []Column, row Row) ([]byte, error) {
	if len(row) != len(schema) {
		return nil, fmt.Errorf("storage: row has %d values, schema %d columns", len(row), len(schema))
	}
	for i, col := range schema {
		v := &row[i]
		if v.Type != col.Type {
			return nil, fmt.Errorf("storage: column %q expects %v, got %v", col.Name, col.Type, v.Type)
		}
		switch col.Type {
		case TInt64:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
		case TFloat64:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
		case TString:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		case TBytes:
			dst = binary.AppendUvarint(dst, uint64(len(v.B)))
			dst = append(dst, v.B...)
		case TGeometry:
			dst = binary.AppendUvarint(dst, uint64(geom.BinarySize(v.G)))
			dst = geom.AppendBinary(dst, v.G)
		default:
			return nil, fmt.Errorf("storage: column %q has bad type %v", col.Name, col.Type)
		}
	}
	return dst, nil
}

// DecodeRowInto parses a row image against schema into dst, which must
// have one slot per column (a row carved from a Batch slab). text, when
// not empty, is the same bytes as b held as a string: string columns
// are then cut from it instead of copied, so a whole batch of decoded
// rows shares one backing string. Every slot is overwritten.
func DecodeRowInto(dst Row, schema []Column, b []byte, text string) error {
	if len(dst) != len(schema) {
		return fmt.Errorf("storage: row has %d slots, schema %d columns", len(dst), len(schema))
	}
	if text != "" && len(text) != len(b) {
		return fmt.Errorf("storage: row image is %d bytes, its text %d", len(b), len(text))
	}
	size := len(b)
	for i, col := range schema {
		switch col.Type {
		case TInt64:
			if len(b) < 8 {
				return fmt.Errorf("storage: truncated int column %q", col.Name)
			}
			dst[i] = Int(int64(binary.LittleEndian.Uint64(b)))
			b = b[8:]
		case TFloat64:
			if len(b) < 8 {
				return fmt.Errorf("storage: truncated float column %q", col.Name)
			}
			dst[i] = Float(math.Float64frombits(binary.LittleEndian.Uint64(b)))
			b = b[8:]
		case TString:
			s, rest, err := decodeBlob(b, col.Name)
			if err != nil {
				return err
			}
			if text != "" {
				end := size - len(rest)
				dst[i] = Str(text[end-len(s) : end])
			} else {
				dst[i] = Str(string(s))
			}
			b = rest
		case TBytes:
			s, rest, err := decodeBlob(b, col.Name)
			if err != nil {
				return err
			}
			out := make([]byte, len(s))
			copy(out, s)
			dst[i] = Bytes(out)
			b = rest
		case TGeometry:
			s, rest, err := decodeBlob(b, col.Name)
			if err != nil {
				return err
			}
			g, err := geom.UnmarshalBinary(s)
			if err != nil {
				return fmt.Errorf("storage: column %q: %w", col.Name, err)
			}
			dst[i] = Geom(g)
			b = rest
		default:
			return fmt.Errorf("storage: column %q has bad type %v", col.Name, col.Type)
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("storage: %d trailing bytes after row", len(b))
	}
	return nil
}

// decodeColumn parses only column col of a row image, skipping every
// other column's payload without copying it. The hot secondary-filter
// path fetches a single geometry per candidate; decoding the siblings
// (string copies, vertex slices) would be pure waste there.
func decodeColumn(schema []Column, b []byte, col int) (Value, error) {
	for i, c := range schema {
		want := i == col
		switch c.Type {
		case TInt64, TFloat64:
			if len(b) < 8 {
				return Value{}, fmt.Errorf("storage: truncated column %q", c.Name)
			}
			if want {
				if c.Type == TInt64 {
					return Int(int64(binary.LittleEndian.Uint64(b))), nil
				}
				return Float(math.Float64frombits(binary.LittleEndian.Uint64(b))), nil
			}
			b = b[8:]
		case TString, TBytes, TGeometry:
			s, rest, err := decodeBlob(b, c.Name)
			if err != nil {
				return Value{}, err
			}
			if want {
				switch c.Type {
				case TString:
					return Str(string(s)), nil
				case TBytes:
					out := make([]byte, len(s))
					copy(out, s)
					return Bytes(out), nil
				}
				g, err := geom.UnmarshalBinary(s)
				if err != nil {
					return Value{}, fmt.Errorf("storage: column %q: %w", c.Name, err)
				}
				return Geom(g), nil
			}
			b = rest
		default:
			return Value{}, fmt.Errorf("storage: column %q has bad type %v", c.Name, c.Type)
		}
	}
	return Value{}, fmt.Errorf("storage: column %d out of range", col)
}

func decodeBlob(b []byte, col string) (payload, rest []byte, err error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, fmt.Errorf("storage: truncated length for column %q", col)
	}
	b = b[n:]
	if uint64(len(b)) < l {
		return nil, nil, fmt.Errorf("storage: truncated payload for column %q: need %d, have %d", col, l, len(b))
	}
	return b[:l], b[l:], nil
}
