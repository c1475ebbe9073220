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
	// TRowID tags a rowid value (Rid): the form a join result's rid1
	// and rid2 take from the table function to the wire. It is a value
	// tag only: no schema carries it. A rowid value stands in a TString
	// column, where AppendRow writes its page.slot text, so the bytes
	// it encodes to are those of that text as a string.
	TRowID
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
	case TRowID:
		return "ROWID"
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

// Rid returns a rowid value, the rowid packed in I as RowID.Int64 packs
// it, so the value holds no pointer.
func Rid(r RowID) Value { return Value{Type: TRowID, I: r.Int64()} }

// RowID returns the rowid of a Rid value.
func (v Value) RowID() RowID { return RowID{Page: uint32(v.I >> 16), Slot: uint16(v.I)} }

// String renders the value for logs and the CLI tools.
func (v Value) String() string {
	switch v.Type {
	case TString:
		return v.S
	case TRowID:
		return v.RowID().String()
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
	case TRowID:
		return v.RowID().AppendString(dst)
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
//
// A rowid value (Rid) in a TString column is written as its page.slot
// text, exactly as that text would be as a string.
func AppendRow(dst []byte, schema []Column, row Row) ([]byte, error) {
	if len(row) != len(schema) {
		return nil, fmt.Errorf("storage: row has %d values, schema %d columns", len(row), len(schema))
	}
	for i, col := range schema {
		v := &row[i]
		if v.Type != col.Type && (v.Type != TRowID || col.Type != TString) {
			return nil, fmt.Errorf("storage: column %q expects %v, got %v", col.Name, col.Type, v.Type)
		}
		switch col.Type {
		case TInt64:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
		case TFloat64:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
		case TString:
			if v.Type == TRowID {
				// The text is at most 16 bytes ("4294967295.65535"), so
				// its length is one uvarint byte, patched in behind it.
				at := len(dst)
				dst = v.RowID().AppendString(append(dst, 0))
				dst[at] = byte(len(dst) - at - 1)
				continue
			}
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
		p, rest, err := columnSpan(col, b)
		if err != nil {
			return err
		}
		if col.Type == TString && text != "" {
			end := size - len(rest)
			dst[i] = Str(text[end-len(p) : end])
		} else if dst[i], err = columnValue(col, p); err != nil {
			return err
		}
		b = rest
	}
	if len(b) != 0 {
		return fmt.Errorf("storage: %d trailing bytes after row", len(b))
	}
	return nil
}

// decodeColumns decodes columns cols of a row image into dst, one slot
// per entry of cols, in one walk of the image that stops after the last
// column asked for. Sibling columns are skipped by length, not decoded.
func decodeColumns(schema []Column, b []byte, cols []int, dst Row) error {
	last := -1
	for _, col := range cols {
		last = max(last, col)
	}
	for i := 0; i <= last; i++ {
		p, rest, err := columnSpan(schema[i], b)
		if err != nil {
			return err
		}
		for k, col := range cols {
			if col == i {
				if dst[k], err = columnValue(schema[i], p); err != nil {
					return err
				}
			}
		}
		b = rest
	}
	return nil
}

// columnSpan is the first half of the one per-column decode step: it
// splits the payload of column c off the head of a row image — the 8
// bytes of a number, the bytes behind the length of anything else.
func columnSpan(c Column, b []byte) (payload, rest []byte, err error) {
	switch c.Type {
	case TInt64, TFloat64:
		if len(b) < 8 {
			return nil, nil, fmt.Errorf("storage: truncated column %q", c.Name)
		}
		return b[:8], b[8:], nil
	case TString, TBytes, TGeometry:
		l, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, nil, fmt.Errorf("storage: truncated length for column %q", c.Name)
		}
		b = b[n:]
		if uint64(len(b)) < l {
			return nil, nil, fmt.Errorf("storage: truncated payload for column %q: need %d, have %d", c.Name, l, len(b))
		}
		return b[:l], b[l:], nil
	}
	return nil, nil, fmt.Errorf("storage: column %q has bad type %v", c.Name, c.Type)
}

// columnValue is the second half: it decodes a payload columnSpan split
// off into a value that owns its storage, so none aliases the image.
func columnValue(c Column, p []byte) (Value, error) {
	switch c.Type {
	case TInt64:
		return Int(int64(binary.LittleEndian.Uint64(p))), nil
	case TFloat64:
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(p))), nil
	case TString:
		return Str(string(p)), nil
	case TBytes:
		out := make([]byte, len(p))
		copy(out, p)
		return Bytes(out), nil
	}
	g, err := geom.UnmarshalBinary(p)
	if err != nil {
		return Value{}, fmt.Errorf("storage: column %q: %w", c.Name, err)
	}
	return Geom(g), nil
}
