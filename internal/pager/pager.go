// Package pager is the durable storage substrate under internal/storage:
// a fixed-size-page file, a buffer pool with pin/unpin latches and clock
// eviction, and a redo-only write-ahead log with incremental
// checkpointing and crash recovery.
//
// Two implementations of the Space interface exist:
//
//   - Mem is a pure in-memory pager with no I/O, no WAL and no pool.
//     It backs the embedded/default path (storage.NewHeap), keeping the
//     hot path allocation- and syscall-free.
//   - Store is the durable pager: pages live in a single page file
//     (pages.db), mutations are logged to wal.log before the dirty page
//     can reach the file, and Open replays the committed WAL suffix.
//
// A Space is one table's view of the pager: a set of pages addressed by
// uint32 ids starting at 1 (page 0 is reserved, matching the storage
// layer's InvalidRowID convention). Callers Pin a page to read or write
// its payload and must Unpin it on every path — the spatiallint
// release rule enforces this discipline module-wide.
//
// Mutation protocol (write-ahead logging):
//
//	tx := sp.Begin()
//	f, _ := sp.Allocate(tx, pager.KindSlotted)  // or sp.Pin(page)
//	... mutate f.Data() in place ...
//	sp.Record(tx, f, patches...)                // redo for the edit
//	f.Unpin()
//	err := sp.Commit(tx)                        // durable on return*
//
// (*) subject to the store's SyncMode; see Options.
package pager

import "errors"

// DefaultPageSize is the page size a Store is created with when Options
// leaves it zero. It matches storage.DefaultPageSize.
const DefaultPageSize = 8192

// Page kinds. The pager itself only distinguishes free from allocated;
// kinds exist so the storage layer (and recovery scans) can tell slotted
// pages from jumbo-row chain pages without decoding payloads.
const (
	// KindFree marks a page that has never been allocated.
	KindFree uint16 = 0
	// KindSlotted is a regular slotted heap page.
	KindSlotted uint16 = 1
	// KindJumboHead is the first page of a jumbo-row chain:
	// payload = [total length u32][next page u32][first chunk].
	KindJumboHead uint16 = 2
	// KindOverflow is a continuation page of a jumbo-row chain:
	// payload = [next page u32][chunk].
	KindOverflow uint16 = 3
)

// Errors returned by pager operations.
var (
	// ErrBadPage reports a pin of a page id outside the space.
	ErrBadPage = errors.New("pager: no such page in space")
	// ErrPoolExhausted reports that every buffer-pool frame is pinned
	// or holds uncommitted data, so no frame can be evicted.
	ErrPoolExhausted = errors.New("pager: buffer pool exhausted (all frames pinned or uncommitted)")
	// ErrCorrupt reports an unrecoverable on-disk inconsistency.
	ErrCorrupt = errors.New("pager: data corrupt")
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("pager: store closed")
)

// Tx identifies one atomic mutation batch. WAL records carry the tx id
// of the mutation they log; recovery replays only records whose tx has a
// commit record in the valid WAL prefix. Tx 0 is the no-op transaction
// Mem spaces hand out.
type Tx uint64

// Patch is one contiguous byte range of a page payload, used as a
// slot-level redo record: the caller applies the edit to the pinned
// frame first, then Records the patched ranges.
type Patch struct {
	// Off is the byte offset into the page payload.
	Off int
	// Data is the post-edit bytes at Off. Record copies them into the
	// WAL buffer immediately, so Data may alias the frame payload.
	Data []byte
}

// Space is one table's view of a pager: a growable set of pages. All
// methods are invoked under the owning Heap's lock for Mem spaces; Store
// spaces additionally serialise internally, so two heaps on one Store
// are safe.
type Space interface {
	// PayloadSize returns the usable bytes per page (page size minus
	// the pager's per-page frame header, if any).
	PayloadSize() int
	// Pages returns the ids of allocated pages in ascending order.
	Pages() []uint32
	// Pin latches the page into memory and returns its frame. The
	// caller must Unpin the frame on every path.
	Pin(page uint32) (*Frame, error)
	// Begin opens a mutation batch.
	Begin() Tx
	// Allocate appends a fresh zeroed page of the given kind to the
	// space and returns it pinned.
	Allocate(tx Tx, kind uint16) (*Frame, error)
	// Record logs redo for payload ranges the caller already edited in
	// place on the pinned frame.
	Record(tx Tx, f *Frame, patches ...Patch)
	// RecordImage logs the frame's entire payload as redo; used after
	// wholesale rewrites such as in-place page compaction.
	RecordImage(tx Tx, f *Frame)
	// Commit makes the batch durable (subject to the store's sync
	// mode). On error the batch must be treated as not applied.
	Commit(tx Tx) error
	// Rollback abandons the batch's commit; bookkeeping only (the
	// pager is redo-only — callers must not have published the edits).
	Rollback(tx Tx)
}

// Frame is a pinned page. Data returns the payload slice; mutations are
// only legal on frames pinned from a Begin/Commit batch and must be
// followed by Record/RecordImage before Commit.
type Frame struct {
	id    uint32
	space uint32
	kind  uint16
	data  []byte
	// raw is the full on-disk page (frame header + payload) for Store
	// frames; data aliases raw[frameHdrSize:]. Nil for Mem frames.
	raw []byte

	// Pool state; zero/nil for Mem frames.
	store  *Store
	lsn    uint64 // LSN of the newest record applied to this page
	tx     Tx     // tx of the newest record (eviction barrier)
	pins   int
	ref    bool // clock reference bit
	dirty  bool
	imaged bool // a full image/alloc for this page is in the current WAL
	slot   int  // index in the pool slot table
}

// ID returns the page id within its space.
func (f *Frame) ID() uint32 { return f.id }

// Kind returns the page kind recorded at allocation.
func (f *Frame) Kind() uint16 { return f.kind }

// Data returns the page payload. The slice is valid until Unpin.
func (f *Frame) Data() []byte { return f.data }

// Unpin releases the latch taken by Pin or Allocate.
func (f *Frame) Unpin() {
	if f.store != nil {
		f.store.unpin(f)
	}
}
