// Package storage implements the relational substrate the spatial layers
// sit on: slotted-page heap tables addressed by rowids, typed rows, and
// iterator cursors. It is the stand-in for the Oracle kernel facilities
// the paper's algorithms consume — fetch-by-rowid for the secondary
// filter, full-table-scan cursors for table functions, and stable rowids
// for join result pairs.
package storage

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// RowID addresses a row as (page, slot), matching the physical rowid
// notion the paper's join results are built from. RowIDs are stable for
// the life of the row: deletes leave tombstones and never move rows.
type RowID struct {
	Page uint32
	Slot uint16
}

// InvalidRowID is the zero-like sentinel returned on errors. Page 0 is
// never allocated to user data.
var InvalidRowID = RowID{}

// IsValid reports whether r could address a row.
func (r RowID) IsValid() bool { return r.Page != 0 }

// Less orders rowids by page then slot — physical storage order. The
// paper sorts join candidate pairs by first rowid so exact-geometry
// fetches sweep pages sequentially; this is the comparison it uses.
func (r RowID) Less(o RowID) bool {
	if r.Page != o.Page {
		return r.Page < o.Page
	}
	return r.Slot < o.Slot
}

// Compare returns -1, 0 or 1 ordering r against o.
func (r RowID) Compare(o RowID) int {
	switch {
	case r.Less(o):
		return -1
	case o.Less(r):
		return 1
	default:
		return 0
	}
}

// String renders the rowid in page.slot form — the text the SQL layer
// projects rid1/rid2 as, and what logs print.
func (r RowID) String() string {
	var buf [16]byte // "4294967295.65535"
	return string(r.AppendString(buf[:0]))
}

// AppendString appends the String form of r to dst.
func (r RowID) AppendString(dst []byte) []byte {
	dst = strconv.AppendUint(dst, uint64(r.Page), 10)
	dst = append(dst, '.')
	return strconv.AppendUint(dst, uint64(r.Slot), 10)
}

// AppendTo appends the 6-byte big-endian encoding of r to dst. Big
// endian keeps byte order consistent with Less, so encoded rowids can be
// used directly as B-tree key suffixes.
func (r RowID) AppendTo(dst []byte) []byte {
	var buf [6]byte
	binary.BigEndian.PutUint32(buf[0:], r.Page)
	binary.BigEndian.PutUint16(buf[4:], r.Slot)
	return append(dst, buf[:]...)
}

// Int64 packs r into an integer (page in the high bits, slot in the low
// 16) that orders like Less — the form a rowid value (Rid) holds it in,
// so a Value carrying a rowid has no pointer to keep.
func (r RowID) Int64() int64 { return int64(r.Page)<<16 | int64(r.Slot) }

// RowIDFromBytes decodes a rowid previously written by AppendTo.
func RowIDFromBytes(b []byte) (RowID, error) {
	if len(b) < 6 {
		return InvalidRowID, fmt.Errorf("storage: rowid needs 6 bytes, have %d", len(b))
	}
	return RowID{
		Page: binary.BigEndian.Uint32(b[0:]),
		Slot: binary.BigEndian.Uint16(b[4:]),
	}, nil
}
