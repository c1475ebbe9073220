package spatialtf

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"spatialtf/internal/storage"
)

// The catalogue codec: the one encoding of a table schema and of an
// index metadata row. Two envelopes carry it — catalog.bin (STFCAT01,
// dbdir.go), which adds a page-space id per table and a CRC tail, and
// the snapshot stream (STFSNAP1, snapshot.go), which adds the row
// images. Little endian throughout:
//
//	string  uvarint length, bytes
//	schema  uvarint ncols; per column (string name, byte type)
//	index   strings name/table/column/kind; uvarints fanout,
//	        tilingLevel, interiorEffort; 4 × float64 bounds
//
// Both envelopes may come from outside the process (a snapshot off the
// network, a data directory off a shared filesystem), so every count is
// checked against its limit before it sizes an allocation or a loop.
const (
	// maxCatalogEntries caps the table and index counts of an envelope.
	maxCatalogEntries = 1 << 16
	// maxCatalogCols caps columns per table, matching the wire
	// protocol's schema cap in wire.ParseDescribe.
	maxCatalogCols = 4096
	// maxCatalogString caps one name.
	maxCatalogString = 1 << 20
)

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendSchema(b []byte, schema []Column) []byte {
	b = binary.AppendUvarint(b, uint64(len(schema)))
	for _, c := range schema {
		b = appendString(b, c.Name)
		b = append(b, byte(c.Type))
	}
	return b
}

func appendIndexMeta(b []byte, m Metadata) []byte {
	for _, s := range []string{m.IndexName, m.TableName, m.ColumnName, string(m.Kind)} {
		b = appendString(b, s)
	}
	for _, v := range []int{m.Fanout, m.TilingLevel, m.InteriorEffort} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, f := range []float64{m.Bounds.MinX, m.Bounds.MinY, m.Bounds.MaxX, m.Bounds.MaxY} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// readCount reads a uvarint that sizes something. A value past limit is
// reported with both numbers; a read failure wraps the reader's error.
// The decoders' errors carry no package prefix: each envelope wraps them
// with which file, table or index it was reading.
func readCount(r *bufio.Reader, what string, limit uint64) (uint64, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	if n > limit {
		return 0, fmt.Errorf("%s %d exceeds limit %d", what, n, limit)
	}
	return n, nil
}

// readString reads a name into a buffer that grows with the bytes
// present, so a forged length costs no more than the input holds.
func readString(r *bufio.Reader, what string) (string, error) {
	l, err := readCount(r, what+" length", maxCatalogString)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	if _, err := io.CopyN(&b, r, int64(l)); err != nil {
		return "", fmt.Errorf("%s: %w", what, err)
	}
	return b.String(), nil
}

func readSchema(r *bufio.Reader) ([]Column, error) {
	ncols, err := readCount(r, "column count", maxCatalogCols)
	if err != nil {
		return nil, err
	}
	if ncols == 0 {
		return nil, fmt.Errorf("column count 0 (a table has at least one column)")
	}
	schema := make([]Column, ncols)
	for i := range schema {
		name, err := readString(r, "column name")
		if err != nil {
			return nil, err
		}
		typ, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("column %q type: %w", name, err)
		}
		schema[i] = Column{Name: name, Type: storage.ColType(typ)}
	}
	return schema, nil
}

func readIndexMeta(r *bufio.Reader) (Metadata, error) {
	var m Metadata
	var kind string
	for _, dst := range []*string{&m.IndexName, &m.TableName, &m.ColumnName, &kind} {
		s, err := readString(r, "name")
		if err != nil {
			return m, err
		}
		*dst = s
	}
	m.Kind = IndexKind(kind)
	for _, dst := range []*int{&m.Fanout, &m.TilingLevel, &m.InteriorEffort} {
		v, err := readCount(r, "parameter", math.MaxInt32)
		if err != nil {
			return m, err
		}
		*dst = int(v)
	}
	for _, dst := range []*float64{&m.Bounds.MinX, &m.Bounds.MinY, &m.Bounds.MaxX, &m.Bounds.MaxY} {
		var f [8]byte
		if _, err := io.ReadFull(r, f[:]); err != nil {
			return m, fmt.Errorf("bounds: %w", err)
		}
		*dst = math.Float64frombits(binary.LittleEndian.Uint64(f[:]))
	}
	return m, nil
}

// indexOptions turns a catalogued metadata row back into the options
// that recreate the index. Only a Quadtree takes its bounds from the
// row: an R-tree's recorded bounds describe the data, not a parameter.
func indexOptions(m Metadata, parallel int) IndexOptions {
	opt := IndexOptions{
		Fanout:         m.Fanout,
		TilingLevel:    m.TilingLevel,
		InteriorEffort: m.InteriorEffort,
		Parallel:       parallel,
	}
	if m.Kind == Quadtree {
		opt.Bounds = m.Bounds
	}
	return opt
}
