package storage

import (
	"encoding/binary"
	"fmt"
)

// DefaultPageSize is the size of a regular heap page. Rows larger than
// the page payload are stored as a jumbo chain: a head page plus
// overflow pages, the moral equivalent of row chaining.
const DefaultPageSize = 8192

// page header layout (little endian):
//
//	offset 0: uint16 slot count
//	offset 2: uint16 free-space pointer (offset of first free payload byte,
//	          growing downward from the end of the page)
//	offset 4: slot directory, 4 bytes per slot: uint16 offset, uint16 length
//
// Row payload grows from the end of the page toward the directory.
// A slot with length 0xFFFF is a tombstone (deleted row). This layout
// is the pager page payload verbatim: what Mem holds in RAM is what
// Store writes to disk (behind the pager's own frame header, which
// carries the page LSN and checksum).
const (
	pageHeaderSize = 4
	slotEntrySize  = 4
	tombstoneLen   = 0xFFFF
)

// page is a view over a slotted heap page payload. All access is
// coordinated by the owning Heap's lock; the payload is pinned by the
// caller for the lifetime of the view. The methods use value receivers
// so a view can be built around any pinned frame's payload slice.
type page struct {
	buf []byte
}

// newPage returns a detached page of the given size (tests only; heaps
// get page payloads from their pager space).
func newPage(size int) *page {
	p := &page{buf: make([]byte, size)}
	initPage(p.buf)
	return p
}

// initPage formats a zeroed payload as an empty slotted page.
func initPage(buf []byte) {
	binary.LittleEndian.PutUint16(buf[0:], 0)
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(buf)))
}

func (p page) slotCount() int      { return int(binary.LittleEndian.Uint16(p.buf[0:])) }
func (p page) setSlotCount(n int)  { binary.LittleEndian.PutUint16(p.buf[0:], uint16(n)) }
func (p page) freePtr() int        { return int(binary.LittleEndian.Uint16(p.buf[2:])) }
func (p page) setFreePtr(v uint16) { binary.LittleEndian.PutUint16(p.buf[2:], v) }

func (p page) slotOffset(i int) int {
	return int(binary.LittleEndian.Uint16(p.buf[pageHeaderSize+i*slotEntrySize:]))
}
func (p page) slotLen(i int) int {
	return int(binary.LittleEndian.Uint16(p.buf[pageHeaderSize+i*slotEntrySize+2:]))
}

func (p page) setSlot(i, off, length int) {
	base := pageHeaderSize + i*slotEntrySize
	binary.LittleEndian.PutUint16(p.buf[base:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[base+2:], uint16(length))
}

// freeSpace returns the bytes available for one more row including its
// slot entry.
func (p page) freeSpace() int {
	dirEnd := pageHeaderSize + p.slotCount()*slotEntrySize
	free := p.freePtr() - dirEnd - slotEntrySize
	if free < 0 {
		return 0
	}
	return free
}

// maxRowLen is the largest row a regular page can hold.
func maxRowLen(pageSize int) int {
	return pageSize - pageHeaderSize - slotEntrySize
}

// insert places row in the page and returns its slot index. The caller
// must have checked freeSpace.
func (p page) insert(row []byte) (int, error) {
	if len(row) > p.freeSpace() {
		return 0, fmt.Errorf("storage: row of %d bytes exceeds page free space %d", len(row), p.freeSpace())
	}
	slot := p.slotCount()
	off := p.freePtr() - len(row)
	copy(p.buf[off:], row)
	p.setFreePtr(uint16(off))
	p.setSlot(slot, off, len(row))
	p.setSlotCount(slot + 1)
	return slot, nil
}

// fetch returns the row bytes at slot i, aliasing the page buffer. The
// caller must copy if it retains the bytes beyond the page pin.
func (p page) fetch(i int) ([]byte, error) {
	if i >= p.slotCount() {
		return nil, p.badSlot(i)
	}
	l := p.slotLen(i)
	if l == tombstoneLen {
		return nil, ErrRowDeleted
	}
	off := p.slotOffset(i)
	return p.buf[off : off+l], nil
}

// delete tombstones slot i. The payload bytes stay behind until enough
// of the page is dead that compact reclaims them in one pass.
func (p page) delete(i int) error {
	if i >= p.slotCount() {
		return p.badSlot(i)
	}
	if p.slotLen(i) == tombstoneLen {
		return ErrRowDeleted
	}
	p.setSlot(i, 0, tombstoneLen)
	return nil
}

// badSlot is the error for a slot past the page's directory: the rowid
// names no row, as an unknown page does.
func (p page) badSlot(i int) error {
	return fmt.Errorf("%w: slot %d out of range (page has %d)", ErrBadRowID, i, p.slotCount())
}

// liveRows calls fn for each non-deleted slot from slot from on until
// fn returns false, and returns the slot after the last one it passed.
func (p page) liveRows(from int, fn func(slot int, row []byte) bool) int {
	n := p.slotCount()
	for i := from; i < n; i++ {
		l := p.slotLen(i)
		if l == tombstoneLen {
			continue
		}
		off := p.slotOffset(i)
		if !fn(i, p.buf[off:off+l]) {
			return i + 1
		}
	}
	return n
}

// liveCount returns the number of non-deleted slots.
func (p page) liveCount() int {
	n, live := p.slotCount(), 0
	for i := 0; i < n; i++ {
		if p.slotLen(i) != tombstoneLen {
			live++
		}
	}
	return live
}

// deadBytes returns payload bytes occupied by tombstoned rows — space a
// compact would reclaim. Slot directory entries are never reclaimed
// (rowids are stable and never reused), so a page's directory only
// grows; the payload behind tombstones is the recoverable part.
func (p page) deadBytes() int {
	used := len(p.buf) - p.freePtr()
	live := 0
	n := p.slotCount()
	for i := 0; i < n; i++ {
		if l := p.slotLen(i); l != tombstoneLen {
			live += l
		}
	}
	return used - live
}

// compact rewrites the payload so live rows pack the end of the page
// contiguously, reclaiming tombstoned bytes. Slot indices are stable
// (tombstones keep their directory entries), so no rowid changes; only
// slot offsets move. The caller must log the page afterwards
// (RecordImage) — compaction moves too many ranges for patch records to
// be worthwhile.
func (p page) compact() {
	n := p.slotCount()
	scratch := make([]byte, len(p.buf))
	w := len(p.buf)
	for i := 0; i < n; i++ {
		l := p.slotLen(i)
		if l == tombstoneLen {
			continue
		}
		off := p.slotOffset(i)
		w -= l
		copy(scratch[w:], p.buf[off:off+l])
		p.setSlot(i, w, l)
	}
	copy(p.buf[w:], scratch[w:])
	p.setFreePtr(uint16(w))
}
