package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"spatialtf/internal/telemetry"
)

// Page file format (little endian). The superblock occupies the first
// page-size bytes and is written once at creation, never rewritten —
// all mutable metadata lives in the WAL, so the superblock cannot tear:
//
//	magic "STFPAGE1" | version u32 | pageSize u32 | crc u32 | zero pad
//
// Page id i lives at byte offset i*pageSize (ids start at 1; id 0 is
// the superblock, matching the storage layer's invalid-page
// convention). Each on-disk page carries a 20-byte frame header ahead
// of its payload:
//
//	lsn u64 | crc u32 | space u32 | kind u16 | flags u16
//
// lsn is the LSN of the newest WAL record applied to the page — the
// "page LSN" recovery compares against to keep redo idempotent. crc is
// CRC-32C over the rest of the header plus the payload, so a torn page
// write is detected on load.
const (
	pageMagic    = "STFPAGE1"
	pageVersion  = 1
	frameHdrSize = 20

	superMagicEnd = 8
	superCRCOff   = 16

	minPageSize = 512
	maxPageSize = 1 << 16
)

// SyncMode selects when the WAL is fsynced.
type SyncMode int

const (
	// SyncAlways fsyncs the WAL on every Commit: no committed work is
	// lost on power failure.
	SyncAlways SyncMode = iota
	// SyncBatch writes the WAL on every Commit but fsyncs at most once
	// per Options.SyncInterval (group commit): a crash can lose the
	// last interval's worth of commits, never corrupt the store.
	SyncBatch
	// SyncOff never fsyncs outside checkpoints; a crash can lose or
	// (for multi-page batches) partially apply recent commits.
	SyncOff
)

// Options configure a Store.
type Options struct {
	// PageSize in bytes; 0 selects DefaultPageSize. Must be a value in
	// [512, 65536] and is fixed at store creation — reopening with a
	// different value fails.
	PageSize int
	// PoolPages caps resident pages; 0 selects 1024, the minimum is 16.
	PoolPages int
	// Sync selects the WAL fsync policy.
	Sync SyncMode
	// SyncInterval is the SyncBatch group-commit window; 0 selects
	// 25ms.
	SyncInterval time.Duration
	// CheckpointBytes triggers an automatic checkpoint when the WAL
	// exceeds this size; 0 selects 16 MiB, negative disables.
	CheckpointBytes int64
	// FS is the filesystem seam; nil selects OSFS.
	FS FS
	// Telemetry, when non-nil, receives the pool and WAL metrics.
	Telemetry *telemetry.Registry
}

// Store is the durable pager: one page file plus one WAL, shared by any
// number of spaces (tables). All methods are safe for concurrent use.
type Store struct {
	mu sync.Mutex

	fs       FS
	dir      string
	pageSize int
	payload  int
	pageFile File
	wal      File
	walPath  string

	poolCap int
	frames  map[uint32]*Frame // resident pages by id
	slots   []*Frame          // pool slot table (clock order)
	hand    int

	pageCount uint32
	spaces    map[uint32]map[uint32]struct{}

	nextLSN  uint64
	nextTX   uint64
	inflight map[Tx][]uint32 // open txs -> pages they allocated

	wbuf      []byte // WAL records not yet written to the file
	walSize   int64  // bytes written to the WAL file
	syncMode  SyncMode
	syncEvery time.Duration
	lastSync  time.Time
	ckptBytes int64

	closed bool

	mHits        *telemetry.Counter
	mMisses      *telemetry.Counter
	mEvictions   *telemetry.Counter
	mWritebacks  *telemetry.Counter
	mWALBytes    *telemetry.Counter
	mCheckpoints *telemetry.Counter
	mCkptPages   *telemetry.Counter
	mFsync       *telemetry.Histogram
}

// Open opens (creating if absent) the store in dir, running crash
// recovery if the WAL holds committed work, and checkpointing so the
// store starts from a clean WAL.
func Open(dir string, opts Options) (*Store, error) {
	if opts.PageSize == 0 {
		opts.PageSize = DefaultPageSize
	}
	if opts.PageSize < minPageSize || opts.PageSize > maxPageSize {
		return nil, fmt.Errorf("pager: page size %d outside [%d, %d]", opts.PageSize, minPageSize, maxPageSize)
	}
	if opts.PoolPages == 0 {
		opts.PoolPages = 1024
	}
	if opts.PoolPages < 16 {
		opts.PoolPages = 16
	}
	if opts.SyncInterval == 0 {
		opts.SyncInterval = 25 * time.Millisecond
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = 16 << 20
	}
	if opts.FS == nil {
		opts.FS = OSFS
	}
	s := &Store{
		fs:        opts.FS,
		dir:       dir,
		pageSize:  opts.PageSize,
		payload:   opts.PageSize - frameHdrSize,
		poolCap:   opts.PoolPages,
		frames:    make(map[uint32]*Frame),
		spaces:    make(map[uint32]map[uint32]struct{}),
		nextLSN:   1,
		nextTX:    1,
		inflight:  make(map[Tx][]uint32),
		syncMode:  opts.Sync,
		syncEvery: opts.SyncInterval,
		ckptBytes: opts.CheckpointBytes,
		walPath:   filepath.Join(dir, "wal.log"),
	}
	reg := opts.Telemetry
	s.mHits = reg.NewCounter("pool_hits_total", "buffer-pool pins served from memory")
	s.mMisses = reg.NewCounter("pool_misses_total", "buffer-pool pins that read the page file")
	s.mEvictions = reg.NewCounter("pool_evictions_total", "pages evicted from the buffer pool")
	s.mWritebacks = reg.NewCounter("pool_writebacks_total", "dirty pages written back outside checkpoints")
	s.mWALBytes = reg.NewCounter("wal_bytes_total", "bytes appended to the write-ahead log")
	s.mCheckpoints = reg.NewCounter("checkpoints_total", "checkpoints completed")
	s.mCkptPages = reg.NewCounter("checkpoint_pages_total", "dirty pages written by checkpoints")
	s.mFsync = reg.NewHistogram("wal_fsync_seconds", "WAL fsync latency", nil)

	if err := s.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	if err := s.openPageFile(); err != nil {
		return nil, err
	}
	// A wal.tmp is a checkpoint rotation that never renamed; the real
	// wal.log is still authoritative.
	if ok, _ := s.fs.Exists(s.walPath + ".tmp"); ok {
		if err := s.fs.Remove(s.walPath + ".tmp"); err != nil {
			s.pageFile.Close()
			return nil, err
		}
	}
	if err := s.openWALAndRecover(); err != nil {
		s.pageFile.Close()
		return nil, err
	}
	// Start from a clean WAL: replayed pages reach the page file and
	// the log rotates (no transactions can be in flight yet).
	if err := s.Checkpoint(); err != nil {
		s.pageFile.Close()
		s.wal.Close()
		return nil, err
	}
	return s, nil
}

// openPageFile opens or creates pages.db, validates the superblock and
// header-scans the allocated pages into the space map. A new page file
// appears whole or not at all: its superblock is written through
// AtomicWriteFile, so a crash during creation leaves no pages.db (at
// most a pages.db.tmp the next creation overwrites), never one the
// superblock check refuses.
func (s *Store) openPageFile() error {
	path := filepath.Join(s.dir, "pages.db")
	exists, err := s.fs.Exists(path)
	if err != nil {
		return err
	}
	if !exists {
		super := make([]byte, s.pageSize)
		copy(super, pageMagic)
		binary.LittleEndian.PutUint32(super[superMagicEnd:], pageVersion)
		binary.LittleEndian.PutUint32(super[superMagicEnd+4:], uint32(s.pageSize))
		binary.LittleEndian.PutUint32(super[superCRCOff:], crc32.Checksum(super[:superCRCOff], castagnoli))
		if err := AtomicWriteFile(s.fs, path, super); err != nil {
			return err
		}
	}
	f, err := s.fs.Open(path)
	if err != nil {
		return err
	}
	hdr := make([]byte, superCRCOff+4)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return fmt.Errorf("%w: superblock unreadable: %v", ErrCorrupt, err)
	}
	if string(hdr[:superMagicEnd]) != pageMagic {
		f.Close()
		return fmt.Errorf("%w: bad page-file magic %q", ErrCorrupt, hdr[:superMagicEnd])
	}
	if v := binary.LittleEndian.Uint32(hdr[superMagicEnd:]); v != pageVersion {
		f.Close()
		return fmt.Errorf("%w: page-file version %d (want %d)", ErrCorrupt, v, pageVersion)
	}
	if crc := binary.LittleEndian.Uint32(hdr[superCRCOff:]); crc != crc32.Checksum(hdr[:superCRCOff], castagnoli) {
		f.Close()
		return fmt.Errorf("%w: superblock checksum mismatch", ErrCorrupt)
	}
	if ps := int(binary.LittleEndian.Uint32(hdr[superMagicEnd+4:])); ps != s.pageSize {
		f.Close()
		return fmt.Errorf("pager: store has page size %d, opened with %d", ps, s.pageSize)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return err
	}
	// A partial trailing page (torn file extension) is ignored here; if
	// a committed WAL record references it, recovery rebuilds it.
	s.pageCount = uint32(size/int64(s.pageSize)) - 1
	hbuf := make([]byte, frameHdrSize)
	for id := uint32(1); id <= s.pageCount; id++ {
		if _, err := f.ReadAt(hbuf, int64(id)*int64(s.pageSize)); err != nil {
			continue
		}
		space := binary.LittleEndian.Uint32(hbuf[12:])
		if kind := binary.LittleEndian.Uint16(hbuf[16:]); kind != KindFree {
			s.addToSpace(space, id)
		}
	}
	s.pageFile = f
	return nil
}

func (s *Store) addToSpace(space, page uint32) {
	set := s.spaces[space]
	if set == nil {
		set = make(map[uint32]struct{})
		s.spaces[space] = set
	}
	set[page] = struct{}{}
}

func (s *Store) dropFromSpaces(page uint32) {
	for _, set := range s.spaces {
		delete(set, page)
	}
}

// Space returns the Space view for the given space id. Ids are assigned
// by the catalog layer above; the store only segregates pages by them.
func (s *Store) Space(id uint32) Space { return &storeSpace{s: s, id: id} }

// PayloadSize returns the usable bytes per page.
func (s *Store) PayloadSize() int { return s.payload }

// pageOffset returns the file offset of page id.
func (s *Store) pageOffset(id uint32) int64 { return int64(id) * int64(s.pageSize) }

// --- pinning and the buffer pool ---

func (s *Store) pin(space, page uint32) (*Frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if page == 0 || page > s.pageCount {
		return nil, fmt.Errorf("%w: page %d", ErrBadPage, page)
	}
	if f := s.frames[page]; f != nil {
		if f.space != space {
			return nil, fmt.Errorf("%w: page %d belongs to space %d, not %d", ErrBadPage, page, f.space, space)
		}
		f.pins++
		f.ref = true
		s.mHits.Inc()
		return f, nil
	}
	s.mMisses.Inc()
	f, err := s.loadLocked(page)
	if err != nil {
		return nil, err
	}
	if f.space != space {
		s.unpinLocked(f)
		return nil, fmt.Errorf("%w: page %d belongs to space %d, not %d", ErrBadPage, page, f.space, space)
	}
	return f, nil
}

// loadLocked reads page id from the file into a fresh pinned frame,
// verifying its checksum.
func (s *Store) loadLocked(id uint32) (*Frame, error) {
	slot, err := s.grabSlotLocked()
	if err != nil {
		return nil, err
	}
	raw := make([]byte, s.pageSize)
	if _, err := s.pageFile.ReadAt(raw, s.pageOffset(id)); err != nil {
		s.slots[slot] = nil
		return nil, fmt.Errorf("%w: read page %d: %v", ErrCorrupt, id, err)
	}
	if crc := binary.LittleEndian.Uint32(raw[8:]); crc != pageCRC(raw) {
		s.slots[slot] = nil
		return nil, fmt.Errorf("%w: page %d checksum mismatch", ErrCorrupt, id)
	}
	f := &Frame{
		id:    id,
		space: binary.LittleEndian.Uint32(raw[12:]),
		kind:  binary.LittleEndian.Uint16(raw[16:]),
		lsn:   binary.LittleEndian.Uint64(raw[0:]),
		data:  raw[frameHdrSize:],
		raw:   raw,
		store: s,
		pins:  1,
		ref:   true,
		slot:  slot,
	}
	s.slots[slot] = f
	s.frames[id] = f
	return f, nil
}

// pageCRC computes the on-disk page checksum: CRC-32C over the LSN and
// everything after the crc field.
func pageCRC(raw []byte) uint32 {
	crc := crc32.Update(0, castagnoli, raw[:8])
	return crc32.Update(crc, castagnoli, raw[12:])
}

// grabSlotLocked finds a free pool slot, evicting if the pool is full.
func (s *Store) grabSlotLocked() (int, error) {
	if len(s.slots) < s.poolCap {
		s.slots = append(s.slots, nil)
		return len(s.slots) - 1, nil
	}
	for i := range s.slots {
		if s.slots[i] == nil {
			return i, nil
		}
	}
	return s.evictLocked()
}

// evictLocked runs the clock over the pool and evicts one victim,
// returning its slot. Victims must be unpinned and must not hold
// uncommitted data (no-steal: the WAL is redo-only, so an uncommitted
// page image must never reach the file).
func (s *Store) evictLocked() (int, error) {
	for sweep := 0; sweep < 2*len(s.slots); sweep++ {
		i := s.hand
		s.hand = (s.hand + 1) % len(s.slots)
		f := s.slots[i]
		if f == nil {
			return i, nil
		}
		if f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		if f.dirty {
			if _, open := s.inflight[f.tx]; open {
				continue
			}
			// WAL-before-data: the records covering this page must be
			// durable before its image may overwrite the file copy.
			if err := s.flushWALLocked(s.syncMode != SyncOff); err != nil {
				return 0, err
			}
			if err := s.writeFrameLocked(f); err != nil {
				return 0, err
			}
			s.mWritebacks.Inc()
		}
		delete(s.frames, f.id)
		s.slots[i] = nil
		s.mEvictions.Inc()
		return i, nil
	}
	return 0, ErrPoolExhausted
}

// writeFrameLocked stamps the frame header and writes the page to the
// file. The frame stays dirty-tracked by the caller.
func (s *Store) writeFrameLocked(f *Frame) error {
	binary.LittleEndian.PutUint64(f.raw[0:], f.lsn)
	binary.LittleEndian.PutUint32(f.raw[12:], f.space)
	binary.LittleEndian.PutUint16(f.raw[16:], f.kind)
	binary.LittleEndian.PutUint16(f.raw[18:], 0)
	binary.LittleEndian.PutUint32(f.raw[8:], pageCRC(f.raw))
	if _, err := s.pageFile.WriteAt(f.raw, s.pageOffset(f.id)); err != nil {
		return fmt.Errorf("pager: write page %d: %w", f.id, err)
	}
	f.dirty = false
	return nil
}

func (s *Store) unpin(f *Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unpinLocked(f)
}

func (s *Store) unpinLocked(f *Frame) {
	if f.pins > 0 {
		f.pins--
	}
}

// --- transactions and the WAL ---

func (s *Store) begin() Tx {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx := Tx(s.nextTX)
	s.nextTX++
	s.inflight[tx] = nil
	return tx
}

func (s *Store) allocate(tx Tx, space uint32, kind uint16) (*Frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	slot, err := s.grabSlotLocked()
	if err != nil {
		return nil, err
	}
	id := s.pageCount + 1
	s.pageCount = id
	raw := make([]byte, s.pageSize)
	f := &Frame{
		id:    id,
		space: space,
		kind:  kind,
		data:  raw[frameHdrSize:],
		raw:   raw,
		store: s,
		pins:  1,
		ref:   true,
		dirty: true,
		// The alloc record is a full description of the zeroed page, so
		// later patches in this WAL generation need no separate image.
		imaged: true,
		tx:     tx,
		slot:   slot,
	}
	s.slots[slot] = f
	s.frames[id] = f
	s.addToSpace(space, id)
	s.inflight[tx] = append(s.inflight[tx], id)
	f.lsn = s.appendLocked(&walRecord{typ: recAlloc, tx: uint64(tx), space: space, page: id, kind: kind})
	return f, nil
}

// appendLocked assigns the next LSN, encodes the record into the WAL
// buffer, and returns the LSN.
func (s *Store) appendLocked(r *walRecord) uint64 {
	r.lsn = s.nextLSN
	s.nextLSN++
	before := len(s.wbuf)
	s.wbuf = appendWALRecord(s.wbuf, r)
	s.mWALBytes.Add(int64(len(s.wbuf) - before))
	return r.lsn
}

func (s *Store) record(tx Tx, f *Frame, patches []Patch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !f.imaged {
		// First touch since the last WAL rotation: log the whole page
		// so a torn page-file write can always be rebuilt (full-page
		// writes, as in PostgreSQL).
		f.lsn = s.appendLocked(&walRecord{typ: recImage, tx: uint64(tx), space: f.space, page: f.id, kind: f.kind, image: f.data})
		f.imaged = true
	} else {
		f.lsn = s.appendLocked(&walRecord{typ: recPatch, tx: uint64(tx), page: f.id, patches: patches})
	}
	f.tx = tx
	f.dirty = true
}

func (s *Store) recordImage(tx Tx, f *Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f.lsn = s.appendLocked(&walRecord{typ: recImage, tx: uint64(tx), space: f.space, page: f.id, kind: f.kind, image: f.data})
	f.imaged = true
	f.tx = tx
	f.dirty = true
}

func (s *Store) commit(tx Tx) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.appendLocked(&walRecord{typ: recCommit, tx: uint64(tx)})
	delete(s.inflight, tx)
	sync := false
	switch s.syncMode {
	case SyncAlways:
		sync = true
	case SyncBatch:
		sync = time.Since(s.lastSync) >= s.syncEvery
	}
	if err := s.flushWALLocked(sync); err != nil {
		return err
	}
	if s.ckptBytes > 0 && s.walSize > s.ckptBytes {
		return s.checkpointLocked()
	}
	return nil
}

func (s *Store) rollback(tx Tx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.inflight[tx] {
		s.dropFromSpaces(id)
		if f := s.frames[id]; f != nil {
			// The page was never published; drop the frame so a later
			// pin fails instead of serving it. The id itself is leaked
			// (allocation is append-only), exactly as a crashed
			// allocation would leak it.
			f.dirty = false
			f.kind = KindFree
			if f.pins == 0 {
				delete(s.frames, id)
				s.slots[f.slot] = nil
			}
		}
	}
	delete(s.inflight, tx)
}

// flushWALLocked writes buffered records to the WAL file and optionally
// fsyncs it.
func (s *Store) flushWALLocked(sync bool) error {
	if len(s.wbuf) > 0 {
		if _, err := s.wal.WriteAt(s.wbuf, s.walSize); err != nil {
			return fmt.Errorf("pager: write WAL: %w", err)
		}
		s.walSize += int64(len(s.wbuf))
		s.wbuf = s.wbuf[:0]
	}
	if sync {
		start := time.Now()
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("pager: sync WAL: %w", err)
		}
		s.mFsync.Observe(time.Since(start).Seconds())
		s.lastSync = time.Now()
	}
	return nil
}

// --- checkpointing ---

// Checkpoint makes the page file catch up with the committed WAL: the
// log is flushed and fsynced, committed dirty pages are written back,
// the page file is fsynced, and — if no transaction is in flight — the
// WAL is rotated to a fresh, empty generation via temp-file → fsync →
// rename → fsync(dir). With transactions in flight the rotation is
// skipped (their records must survive), making the checkpoint
// incremental.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	if err := s.flushWALLocked(true); err != nil {
		return err
	}
	wrote := 0
	for _, f := range s.slots {
		if f == nil || !f.dirty {
			continue
		}
		if _, open := s.inflight[f.tx]; open {
			continue
		}
		if err := s.writeFrameLocked(f); err != nil {
			return err
		}
		wrote++
	}
	if wrote > 0 {
		if err := s.pageFile.Sync(); err != nil {
			return fmt.Errorf("pager: sync page file: %w", err)
		}
	}
	s.mCheckpoints.Inc()
	s.mCkptPages.Add(int64(wrote))
	if len(s.inflight) > 0 {
		return nil
	}
	return s.rotateWALLocked()
}

// rotateWALLocked atomically replaces the WAL with an empty generation
// starting at the current LSN. Only legal when every pool page is clean
// (just checkpointed) and no transaction is in flight. It is the one
// temp → fsync → rename → fsync(dir) sequence not routed through
// AtomicWrite: the freshly written file's handle stays open and becomes
// the live WAL, which a write-and-close helper cannot hand back.
func (s *Store) rotateWALLocked() error {
	tmp := s.walPath + ".tmp"
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	hdr := encodeWALHeader(s.pageSize, s.nextLSN)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return fmt.Errorf("pager: write WAL header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("pager: sync new WAL: %w", err)
	}
	if err := s.fs.Rename(tmp, s.walPath); err != nil {
		f.Close()
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.wal.Close()
	s.wal = f
	s.walSize = walHdrSize
	for _, fr := range s.slots {
		if fr != nil {
			fr.imaged = false
		}
	}
	return nil
}

// Close checkpoints and releases the store. The data directory can be
// reopened without replay work.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	err := s.checkpointLocked()
	s.closed = true
	s.mu.Unlock()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	if cerr := s.pageFile.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- the per-space view ---

type storeSpace struct {
	s  *Store
	id uint32
}

func (sp *storeSpace) PayloadSize() int { return sp.s.payload }

func (sp *storeSpace) Pages() []uint32 {
	sp.s.mu.Lock()
	defer sp.s.mu.Unlock()
	set := sp.s.spaces[sp.id]
	ids := make([]uint32, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (sp *storeSpace) Pin(page uint32) (*Frame, error) { return sp.s.pin(sp.id, page) }

func (sp *storeSpace) Begin() Tx { return sp.s.begin() }

func (sp *storeSpace) Allocate(tx Tx, kind uint16) (*Frame, error) {
	return sp.s.allocate(tx, sp.id, kind)
}

func (sp *storeSpace) Record(tx Tx, f *Frame, patches ...Patch) { sp.s.record(tx, f, patches) }

func (sp *storeSpace) RecordImage(tx Tx, f *Frame) { sp.s.recordImage(tx, f) }

func (sp *storeSpace) Commit(tx Tx) error { return sp.s.commit(tx) }

func (sp *storeSpace) Rollback(tx Tx) { sp.s.rollback(tx) }
