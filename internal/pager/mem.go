package pager

import "fmt"

// Mem is the in-memory pager: a dense slice of pages with no I/O, no
// WAL and no eviction. Begin/Record/Commit are no-ops, so the embedded
// path pays nothing for the durability seam. Mem is not internally
// synchronised — the owning Heap's lock coordinates all access, exactly
// as it did for the former pages []*page slice.
type Mem struct {
	payload int
	// frames[0] is nil so page id 0 is never used.
	frames []*Frame
}

// NewMem returns an empty in-memory space with the given page payload
// size (0 selects DefaultPageSize; the minimum is 64, matching the
// storage layer's historical clamp).
func NewMem(payloadSize int) *Mem {
	if payloadSize <= 0 {
		payloadSize = DefaultPageSize
	}
	if payloadSize < 64 {
		payloadSize = 64
	}
	return &Mem{payload: payloadSize, frames: []*Frame{nil}}
}

// PayloadSize implements Space.
func (m *Mem) PayloadSize() int { return m.payload }

// Pages implements Space.
func (m *Mem) Pages() []uint32 {
	ids := make([]uint32, 0, len(m.frames)-1)
	for i := 1; i < len(m.frames); i++ {
		ids = append(ids, uint32(i))
	}
	return ids
}

// Pin implements Space. Mem frames carry no pool state, so Unpin is a
// no-op and Pin is a bounds check plus a slice load.
func (m *Mem) Pin(page uint32) (*Frame, error) {
	if page == 0 || int(page) >= len(m.frames) {
		return nil, fmt.Errorf("%w: page %d", ErrBadPage, page)
	}
	return m.frames[page], nil
}

// Begin implements Space.
func (m *Mem) Begin() Tx { return 0 }

// Allocate implements Space.
func (m *Mem) Allocate(_ Tx, kind uint16) (*Frame, error) {
	f := &Frame{
		id:   uint32(len(m.frames)),
		kind: kind,
		data: make([]byte, m.payload),
	}
	m.frames = append(m.frames, f)
	return f, nil
}

// Record implements Space; in-memory edits need no redo.
func (m *Mem) Record(Tx, *Frame, ...Patch) {}

// RecordImage implements Space.
func (m *Mem) RecordImage(Tx, *Frame) {}

// Commit implements Space.
func (m *Mem) Commit(Tx) error { return nil }

// Rollback implements Space.
func (m *Mem) Rollback(Tx) {}
