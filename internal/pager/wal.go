package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Write-ahead log format (little endian).
//
// File header (28 bytes):
//
//	magic "STFWAL01" | version u32 | pageSize u32 | startLSN u64 | crc u32
//
// startLSN is the LSN the log begins at; it advances on every
// checkpoint rotation, which swaps in a fresh header via temp-file +
// rename. The header never changes in place.
//
// Record framing:
//
//	length u32 | type u8 | lsn u64 | tx u64 | body | crc u32
//
// length counts everything after itself (type through crc); crc is
// CRC-32C over type through body. Recovery reads records until the file
// ends, a length field is implausible, or a crc mismatches — everything
// from the first bad frame on is a torn tail and is ignored.
//
// Record bodies:
//
//	alloc:  space u32 | page u32 | kind u16       (page starts zeroed)
//	patch:  page u32 | n u16 | n × (off u16, len u16, bytes)
//	image:  space u32 | page u32 | kind u16 | payload (full page)
//	commit: empty — marks every earlier record of the same tx committed
const (
	walMagic   = "STFWAL01"
	walVersion = 1
	walHdrSize = 8 + 4 + 4 + 8 + 4

	// Record frame: type u8 + lsn u64 + tx u64 … crc u32.
	walRecMin = 1 + 8 + 8 + 4
	// maxWALRecord caps the length field before any allocation; it
	// comfortably exceeds a full-page image at the largest page size.
	maxWALRecord = 1 << 17
)

// Record types.
const (
	recAlloc  byte = 1
	recPatch  byte = 2
	recImage  byte = 3
	recCommit byte = 4
)

// castagnoli is the CRC-32C table shared by WAL records and page
// frames.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errWALEnd marks the end of the valid record prefix (clean EOF, torn
// tail, or corrupt frame — recovery treats them identically).
var errWALEnd = errors.New("pager: end of valid WAL prefix")

// walRecord is one decoded WAL record.
type walRecord struct {
	typ   byte
	lsn   uint64
	tx    uint64
	space uint32 // alloc, image
	page  uint32 // alloc, patch, image
	kind  uint16 // alloc, image
	// patches hold copies of the logged bytes (decode) or may alias
	// caller memory (encode).
	patches []Patch
	image   []byte
}

// encodeWALHeader builds the 28-byte file header.
func encodeWALHeader(pageSize int, startLSN uint64) []byte {
	h := make([]byte, walHdrSize)
	copy(h, walMagic)
	binary.LittleEndian.PutUint32(h[8:], walVersion)
	binary.LittleEndian.PutUint32(h[12:], uint32(pageSize))
	binary.LittleEndian.PutUint64(h[16:], startLSN)
	binary.LittleEndian.PutUint32(h[24:], crc32.Checksum(h[:24], castagnoli))
	return h
}

// decodeWALHeader validates a file header and returns its page size and
// start LSN.
func decodeWALHeader(h []byte) (pageSize int, startLSN uint64, err error) {
	if len(h) < walHdrSize {
		return 0, 0, fmt.Errorf("%w: WAL header truncated (%d bytes)", ErrCorrupt, len(h))
	}
	if string(h[:8]) != walMagic {
		return 0, 0, fmt.Errorf("%w: bad WAL magic %q", ErrCorrupt, h[:8])
	}
	if v := binary.LittleEndian.Uint32(h[8:]); v != walVersion {
		return 0, 0, fmt.Errorf("%w: WAL version %d (want %d)", ErrCorrupt, v, walVersion)
	}
	if crc := binary.LittleEndian.Uint32(h[24:]); crc != crc32.Checksum(h[:24], castagnoli) {
		return 0, 0, fmt.Errorf("%w: WAL header checksum mismatch", ErrCorrupt)
	}
	return int(binary.LittleEndian.Uint32(h[12:])), binary.LittleEndian.Uint64(h[16:]), nil
}

// appendWALRecord encodes r onto dst and returns the extended slice.
func appendWALRecord(dst []byte, r *walRecord) []byte {
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length backpatched below
	start := len(dst)
	dst = append(dst, r.typ)
	dst = binary.LittleEndian.AppendUint64(dst, r.lsn)
	dst = binary.LittleEndian.AppendUint64(dst, r.tx)
	switch r.typ {
	case recAlloc:
		dst = binary.LittleEndian.AppendUint32(dst, r.space)
		dst = binary.LittleEndian.AppendUint32(dst, r.page)
		dst = binary.LittleEndian.AppendUint16(dst, r.kind)
	case recPatch:
		dst = binary.LittleEndian.AppendUint32(dst, r.page)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.patches)))
		for _, p := range r.patches {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(p.Off))
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(p.Data)))
			dst = append(dst, p.Data...)
		}
	case recImage:
		dst = binary.LittleEndian.AppendUint32(dst, r.space)
		dst = binary.LittleEndian.AppendUint32(dst, r.page)
		dst = binary.LittleEndian.AppendUint16(dst, r.kind)
		dst = append(dst, r.image...)
	case recCommit:
	}
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-start))
	return dst
}

// decodeWALRecord decodes one record from the head of b, returning the
// record and the bytes consumed. It returns errWALEnd when b does not
// begin with a complete, checksum-valid frame. Every count is bounded
// before it sizes an allocation: forged records cannot over-allocate.
func decodeWALRecord(b []byte) (walRecord, int, error) {
	var r walRecord
	if len(b) < 4 {
		return r, 0, errWALEnd
	}
	l := binary.LittleEndian.Uint32(b)
	if l < walRecMin || l > maxWALRecord {
		return r, 0, errWALEnd
	}
	n := int(l)
	if len(b) < 4+n {
		return r, 0, errWALEnd
	}
	frame := b[4 : 4+n]
	body := frame[:n-4]
	if crc := binary.LittleEndian.Uint32(frame[n-4:]); crc != crc32.Checksum(body, castagnoli) {
		return r, 0, errWALEnd
	}
	r.typ = body[0]
	r.lsn = binary.LittleEndian.Uint64(body[1:])
	r.tx = binary.LittleEndian.Uint64(body[9:])
	rest := body[17:]
	switch r.typ {
	case recAlloc:
		if len(rest) != 10 {
			return r, 0, errWALEnd
		}
		r.space = binary.LittleEndian.Uint32(rest)
		r.page = binary.LittleEndian.Uint32(rest[4:])
		r.kind = binary.LittleEndian.Uint16(rest[8:])
	case recPatch:
		if len(rest) < 6 {
			return r, 0, errWALEnd
		}
		r.page = binary.LittleEndian.Uint32(rest)
		count := int(binary.LittleEndian.Uint16(rest[4:]))
		rest = rest[6:]
		// Each patch needs at least its 4-byte header; a count that
		// cannot fit in the remaining bytes is rejected before the
		// slice is sized.
		if count > len(rest)/4 {
			return r, 0, errWALEnd
		}
		r.patches = make([]Patch, 0, count)
		for i := 0; i < count; i++ {
			if len(rest) < 4 {
				return r, 0, errWALEnd
			}
			off := int(binary.LittleEndian.Uint16(rest))
			dlen := int(binary.LittleEndian.Uint16(rest[2:]))
			rest = rest[4:]
			if dlen > len(rest) {
				return r, 0, errWALEnd
			}
			data := make([]byte, dlen)
			copy(data, rest[:dlen])
			rest = rest[dlen:]
			r.patches = append(r.patches, Patch{Off: off, Data: data})
		}
		if len(rest) != 0 {
			return r, 0, errWALEnd
		}
	case recImage:
		if len(rest) < 10 {
			return r, 0, errWALEnd
		}
		r.space = binary.LittleEndian.Uint32(rest)
		r.page = binary.LittleEndian.Uint32(rest[4:])
		r.kind = binary.LittleEndian.Uint16(rest[8:])
		r.image = make([]byte, len(rest)-10)
		copy(r.image, rest[10:])
	case recCommit:
		if len(rest) != 0 {
			return r, 0, errWALEnd
		}
	default:
		return r, 0, errWALEnd
	}
	return r, 4 + n, nil
}
