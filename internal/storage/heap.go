package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"spatialtf/internal/pager"
)

// Errors returned by heap operations.
var (
	ErrRowDeleted  = errors.New("storage: row deleted")
	ErrBadRowID    = errors.New("storage: invalid rowid")
	ErrRowTooLarge = errors.New("storage: row too large")
)

// Jumbo rows are chained across pages: a head page whose payload is
// [total length u32][next page u32][first chunk], then overflow pages
// of [next page u32][chunk]. The head's rowid is the row's address
// (slot 0); a total length of jumboTombstone marks a deleted jumbo row.
// Slot bookkeeping on regular pages uses uint16 offsets, so a single
// row keeps the historical just-under-64-KiB cap — ample for the
// synthetic geometry workloads (≈ 16 bytes per vertex).
const (
	jumboHeadHdr   = 8
	jumboOverHdr   = 4
	jumboTombstone = 0xFFFFFFFF
	maxJumboLen    = 0xFFFF - pageHeaderSize - slotEntrySize
)

// Heap is a heap file: an append-oriented collection of slotted pages
// on a pager space. It is safe for concurrent use; reads take a shared
// lock so parallel table-function instances can scan and fetch
// concurrently. Every mutation runs as one pager transaction, so on a
// durable space a crash leaves either the whole row operation or none
// of it.
type Heap struct {
	mu      sync.RWMutex
	space   pager.Space
	payload int
	// pages holds this heap's page ids in ascending order (the space
	// may interleave several heaps' pages). Append-only: cursors hold
	// indexes into it across lock releases.
	pages []uint32
	// lastPage is the slotted page currently receiving inserts.
	lastPage uint32
	// avail lists slotted pages (ascending, excluding lastPage) with
	// reclaimed space worth backfilling — pages compaction has carved
	// free bytes out of, and full pages demoted from lastPage.
	avail    []uint32
	rowCount int
}

// NewHeap returns an empty in-memory heap with the given page size
// (0 selects DefaultPageSize).
func NewHeap(pageSize int) *Heap {
	h, err := OpenHeap(pager.NewMem(pageSize))
	if err != nil {
		// A fresh Mem space has no pages to scan; opening it cannot fail.
		panic(err)
	}
	return h
}

// OpenHeap binds a heap to a pager space, rebuilding the in-memory
// bookkeeping (row count, insert target, backfill list) by scanning the
// space's pages. An empty space yields an empty heap.
func OpenHeap(space pager.Space) (*Heap, error) {
	h := &Heap{
		space:   space,
		payload: space.PayloadSize(),
		pages:   space.Pages(),
	}
	lastFree := 0
	for _, id := range h.pages {
		f, err := space.Pin(id)
		if err != nil {
			return nil, fmt.Errorf("storage: open heap page %d: %w", id, err)
		}
		switch f.Kind() {
		case pager.KindSlotted:
			p := page{buf: f.Data()}
			h.rowCount += p.liveCount()
			// The page seen so far as the insert target is demoted to
			// backfill if it still has room.
			if h.lastPage != 0 && lastFree >= h.availMin() {
				h.noteAvail(h.lastPage)
			}
			h.lastPage = id
			lastFree = p.freeSpace()
		case pager.KindJumboHead:
			if jumboLive(f.Data()) {
				h.rowCount++
			}
		}
		f.Unpin()
	}
	return h, nil
}

// availMin is the least free space that makes a page worth tracking for
// backfill.
func (h *Heap) availMin() int { return h.payload / 4 }

// compactAt is the dead-byte threshold that triggers in-place page
// compaction on delete.
func (h *Heap) compactAt() int { return h.payload / 4 }

// noteAvail adds id to the backfill list, keeping it sorted and
// duplicate-free.
func (h *Heap) noteAvail(id uint32) {
	for _, v := range h.avail {
		if v == id {
			return
		}
	}
	h.avail = append(h.avail, id)
	for i := len(h.avail) - 1; i > 0 && h.avail[i] < h.avail[i-1]; i-- {
		h.avail[i], h.avail[i-1] = h.avail[i-1], h.avail[i]
	}
}

// dropAvail removes id from the backfill list.
func (h *Heap) dropAvail(id uint32) {
	for i, v := range h.avail {
		if v == id {
			h.avail = append(h.avail[:i], h.avail[i+1:]...)
			return
		}
	}
}

// Insert appends row and returns its rowid. The row bytes are copied.
func (h *Heap) Insert(row []byte) (RowID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(row) > maxRowLen(h.payload) {
		return h.insertJumbo(row)
	}
	tx := h.space.Begin()
	f, err := h.pinInsertTarget(tx, len(row))
	if err != nil {
		h.space.Rollback(tx)
		return InvalidRowID, err
	}
	p := page{buf: f.Data()}
	slot, err := p.insert(row)
	if err != nil {
		f.Unpin()
		h.space.Rollback(tx)
		return InvalidRowID, err
	}
	off := p.slotOffset(slot)
	base := pageHeaderSize + slot*slotEntrySize
	h.space.Record(tx, f,
		pager.Patch{Off: 0, Data: p.buf[0:pageHeaderSize]},
		pager.Patch{Off: base, Data: p.buf[base : base+slotEntrySize]},
		pager.Patch{Off: off, Data: p.buf[off : off+len(row)]},
	)
	id := RowID{Page: f.ID(), Slot: uint16(slot)}
	f.Unpin()
	if err := h.space.Commit(tx); err != nil {
		return InvalidRowID, err
	}
	h.rowCount++
	return id, nil
}

// pinInsertTarget returns a pinned slotted page with room for a row of
// `need` bytes: the current insert target, a backfill page, or a fresh
// allocation.
func (h *Heap) pinInsertTarget(tx pager.Tx, need int) (*pager.Frame, error) {
	lastFree := 0
	if h.lastPage != 0 {
		f, err := h.space.Pin(h.lastPage)
		if err != nil {
			return nil, err
		}
		lastFree = (page{buf: f.Data()}).freeSpace()
		if lastFree >= need {
			return f, nil
		}
		f.Unpin()
	}
	// demote parks the outgoing insert target on the backfill list if it
	// can still take smaller rows.
	demote := func() {
		if h.lastPage != 0 && lastFree >= h.availMin() {
			h.noteAvail(h.lastPage)
		}
	}
	for i := 0; i < len(h.avail); i++ {
		f, err := h.space.Pin(h.avail[i])
		if err != nil {
			return nil, err
		}
		if (page{buf: f.Data()}).freeSpace() >= need {
			// Promote the backfill page to insert target so follow-up
			// inserts keep filling it instead of allocating fresh pages.
			h.avail = append(h.avail[:i], h.avail[i+1:]...)
			demote()
			h.lastPage = f.ID()
			return f, nil
		}
		f.Unpin()
	}
	f, err := h.space.Allocate(tx, pager.KindSlotted)
	if err != nil {
		return nil, err
	}
	initPage(f.Data())
	demote()
	h.pages = append(h.pages, f.ID())
	h.lastPage = f.ID()
	return f, nil
}

// insertJumbo stores an oversized row as a page chain. Overflow pages
// are built tail-first, each as its own committed pager transaction;
// the head page commits last, so a crash mid-chain leaves at most
// unreachable overflow pages, never a visible partial row.
func (h *Heap) insertJumbo(row []byte) (RowID, error) {
	if len(row) > maxJumboLen {
		return InvalidRowID, fmt.Errorf("%w: %d bytes (max %d)", ErrRowTooLarge, len(row), maxJumboLen)
	}
	headCap := h.payload - jumboHeadHdr
	overCap := h.payload - jumboOverHdr
	rest := len(row) - headCap
	nOver := 0
	if rest > 0 {
		nOver = (rest + overCap - 1) / overCap
	}
	next := uint32(0)
	for i := nOver - 1; i >= 0; i-- {
		start := headCap + i*overCap
		end := start + overCap
		if end > len(row) {
			end = len(row)
		}
		id, err := h.appendJumboPage(pager.KindOverflow, next, 0, row[start:end])
		if err != nil {
			return InvalidRowID, err
		}
		next = id
	}
	headEnd := headCap
	if headEnd > len(row) {
		headEnd = len(row)
	}
	id, err := h.appendJumboPage(pager.KindJumboHead, next, uint32(len(row)), row[:headEnd])
	if err != nil {
		return InvalidRowID, err
	}
	h.rowCount++
	return RowID{Page: id, Slot: 0}, nil
}

// appendJumboPage allocates, fills and commits one page of a jumbo
// chain, returning its id.
func (h *Heap) appendJumboPage(kind uint16, next, total uint32, chunk []byte) (uint32, error) {
	tx := h.space.Begin()
	f, err := h.space.Allocate(tx, kind)
	if err != nil {
		h.space.Rollback(tx)
		return 0, err
	}
	d := f.Data()
	hdr := jumboOverHdr
	if kind == pager.KindJumboHead {
		binary.LittleEndian.PutUint32(d[0:], total)
		binary.LittleEndian.PutUint32(d[4:], next)
		hdr = jumboHeadHdr
	} else {
		binary.LittleEndian.PutUint32(d[0:], next)
	}
	copy(d[hdr:], chunk)
	h.space.Record(tx, f, pager.Patch{Off: 0, Data: d[:hdr+len(chunk)]})
	id := f.ID()
	f.Unpin()
	if err := h.space.Commit(tx); err != nil {
		return 0, err
	}
	h.pages = append(h.pages, id)
	return id, nil
}

// jumboLive is the jumbo-head tombstone test: whether the head page
// payload d still holds its row.
func jumboLive(d []byte) bool {
	return binary.LittleEndian.Uint32(d) != jumboTombstone
}

// fetchJumbo assembles the row of a live jumbo head frame, appending
// to dst.
func (h *Heap) fetchJumbo(dst []byte, f *pager.Frame) ([]byte, error) {
	d := f.Data()
	total := binary.LittleEndian.Uint32(d)
	if int(total) > maxJumboLen {
		return nil, fmt.Errorf("storage: jumbo row of %d bytes exceeds cap %d", total, maxJumboLen)
	}
	next := binary.LittleEndian.Uint32(d[4:])
	take := int(total)
	if max := h.payload - jumboHeadHdr; take > max {
		take = max
	}
	out := append(dst[:0], d[jumboHeadHdr:jumboHeadHdr+take]...)
	remaining := int(total) - take
	for remaining > 0 {
		if next == 0 {
			return nil, fmt.Errorf("storage: jumbo chain truncated with %d bytes missing", remaining)
		}
		of, err := h.space.Pin(next)
		if err != nil {
			return nil, fmt.Errorf("storage: jumbo chain page %d: %w", next, err)
		}
		od := of.Data()
		next = binary.LittleEndian.Uint32(od)
		take = remaining
		if max := h.payload - jumboOverHdr; take > max {
			take = max
		}
		out = append(out, od[jumboOverHdr:jumboOverHdr+take]...)
		of.Unpin()
		remaining -= take
	}
	return out, nil
}

// view is the heap's one read by rowid: it calls fn with the image of
// the row at id under the heap's read lock. A slotted row's image is
// the pinned page's own bytes, not a copy, and a jumbo row is assembled
// first; fn must not retain it. A row deleted since its rowid was
// resolved, slotted or jumbo, is settled here and only here: view
// reports it not live, with a nil error, and never calls fn. A rowid
// that names no row fails with ErrBadRowID; fn's error is returned as
// it is. The caller names the rowid in the error.
func (h *Heap) view(id RowID, fn func(img []byte) error) (live bool, err error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	f, err := h.space.Pin(id.Page)
	if err != nil {
		return false, ErrBadRowID
	}
	defer f.Unpin()
	var img []byte
	switch f.Kind() {
	case pager.KindSlotted:
		p := page{buf: f.Data()}
		if img, err = p.fetch(int(id.Slot)); errors.Is(err, ErrRowDeleted) {
			return false, nil
		}
	case pager.KindJumboHead:
		if id.Slot != 0 {
			return false, ErrBadRowID
		}
		if !jumboLive(f.Data()) {
			return false, nil
		}
		img, err = h.fetchJumbo(nil, f)
	default:
		return false, ErrBadRowID
	}
	if err != nil {
		return false, err
	}
	if err := fn(img); err != nil {
		return false, err
	}
	return true, nil
}

// Delete tombstones the row at id. The rowid is never reused; when a
// delete pushes a page's dead payload past the compaction threshold the
// page is compacted in place, reclaiming the bytes for future inserts.
func (h *Heap) Delete(id RowID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	f, err := h.space.Pin(id.Page)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRowID, id)
	}
	defer f.Unpin()
	switch f.Kind() {
	case pager.KindSlotted:
		p := page{buf: f.Data()}
		if err := p.delete(int(id.Slot)); err != nil {
			return fmt.Errorf("delete %v: %w", id, err)
		}
		tx := h.space.Begin()
		compacted := p.deadBytes() >= h.compactAt()
		if compacted {
			p.compact()
			h.space.RecordImage(tx, f)
		} else {
			base := pageHeaderSize + int(id.Slot)*slotEntrySize
			h.space.Record(tx, f, pager.Patch{Off: base, Data: p.buf[base : base+slotEntrySize]})
		}
		if err := h.space.Commit(tx); err != nil {
			return err
		}
		if compacted && id.Page != h.lastPage && p.freeSpace() >= h.availMin() {
			h.noteAvail(id.Page)
		}
	case pager.KindJumboHead:
		d := f.Data()
		if id.Slot != 0 {
			return fmt.Errorf("%w: %v", ErrBadRowID, id)
		}
		if !jumboLive(d) {
			return fmt.Errorf("delete %v: %w", id, ErrRowDeleted)
		}
		tx := h.space.Begin()
		binary.LittleEndian.PutUint32(d[0:], jumboTombstone)
		h.space.Record(tx, f, pager.Patch{Off: 0, Data: d[:4]})
		if err := h.space.Commit(tx); err != nil {
			return err
		}
		// The chain's overflow pages stay until a reorganisation, like
		// Oracle row pieces.
	default:
		return fmt.Errorf("%w: %v", ErrBadRowID, id)
	}
	h.rowCount--
	return nil
}

// Len returns the number of live rows.
func (h *Heap) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.rowCount
}

// PageCount returns the number of allocated pages, the unit the I/O-ish
// statistics are reported in.
func (h *Heap) PageCount() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.pages)
}

// PageSpan returns the half-open page-id interval [lo, hi) covering the
// heap's pages. On a shared durable space the ids need not be dense —
// other tables' pages interleave — so range partitioning must work in
// id space, not page counts.
func (h *Heap) PageSpan() (lo, hi uint32) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if len(h.pages) == 0 {
		return 0, 0
	}
	return h.pages[0], h.pages[len(h.pages)-1] + 1
}

// Scan calls fn for every live row in storage order until fn returns
// false. The row slice passed to fn aliases the pinned page and must
// not be retained. Scan holds a shared lock for its duration; writers
// block until it finishes. A page that cannot be read ends the scan
// with its error.
func (h *Heap) Scan(fn func(id RowID, row []byte) bool) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.scanLocked(fn)
}

// ScanImages hands begin the live-row count and then fn every live row,
// all under one shared lock, so the count and the rows cannot disagree
// whatever DML is queued behind the scan. The first error from begin,
// fn or the scan ends it and is returned.
func (h *Heap) ScanImages(begin func(live int) error, fn func(row []byte) error) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	err := begin(h.rowCount)
	if err != nil {
		return err
	}
	if serr := h.scanLocked(func(_ RowID, row []byte) bool {
		err = fn(row)
		return err == nil
	}); serr != nil {
		return serr
	}
	return err
}

// scanLocked walks every page in storage order through visitPage until
// fn returns false. The caller holds the heap's read lock.
func (h *Heap) scanLocked(fn func(id RowID, row []byte) bool) error {
	for _, pid := range h.pages {
		f, err := h.space.Pin(pid)
		if err != nil {
			return fmt.Errorf("storage: scan page %d: %w", pid, err)
		}
		more := true
		_, err = h.visitPage(f, 0, func(id RowID, row []byte) bool {
			more = fn(id, row)
			return more
		})
		f.Unpin()
		if err != nil || !more {
			return err
		}
	}
	return nil
}

// visitPage is the heap's one page walk, shared by the scans and the
// table cursor: it calls fn with each live row of the pinned page f
// from slot from on, in slot order, until fn returns false, and returns
// the slot to resume at. A jumbo head page holds one row, at slot 0,
// assembled before fn sees it; a tombstoned head and an overflow page
// hold none. The caller holds the heap's read lock.
func (h *Heap) visitPage(f *pager.Frame, from int, fn func(id RowID, row []byte) bool) (next int, err error) {
	switch f.Kind() {
	case pager.KindSlotted:
		p := page{buf: f.Data()}
		return p.liveRows(from, func(slot int, row []byte) bool {
			return fn(RowID{Page: f.ID(), Slot: uint16(slot)}, row)
		}), nil
	case pager.KindJumboHead:
		if from > 0 || !jumboLive(f.Data()) {
			return 1, nil
		}
		row, err := h.fetchJumbo(nil, f)
		if err != nil {
			return 0, fmt.Errorf("storage: jumbo row at page %d: %w", f.ID(), err)
		}
		fn(RowID{Page: f.ID(), Slot: 0}, row)
		return 1, nil
	}
	return 0, nil
}
