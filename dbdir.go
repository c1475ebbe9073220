package spatialtf

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"sort"
	"time"

	"spatialtf/internal/pager"
	"spatialtf/internal/storage"
)

// Durable database directories. OpenDir binds a DB to an on-disk data
// directory backed by the paged storage engine: every table lives in
// its own page space of a shared page file, mutations are write-ahead
// logged, and reopening the directory recovers committed state from
// WAL + checkpoint — no snapshot rewrite involved. Rowids are stable
// across restarts (unlike Save/Restore, which reinserts rows).
//
// The directory layout is:
//
//	pages.db     fixed-size-page file (superblock + checksummed pages)
//	wal.log      write-ahead log, rotated at checkpoint
//	catalog.bin  table and index catalog (atomic rewrite on DDL)
//
// Spatial indexes are not paged: the catalog persists their metadata
// (kind and parameters) and OpenDir rebuilds them from table rows,
// exactly as CREATE INDEX would — the paper's parallel index creation
// makes the rebuild cheap.

// SyncMode selects when the WAL is fsynced (re-exported from the pager).
type SyncMode = pager.SyncMode

// WAL sync policies for DirOptions.Sync.
const (
	// SyncAlways fsyncs the WAL on every commit: no committed write is
	// ever lost.
	SyncAlways = pager.SyncAlways
	// SyncBatch group-commits: the WAL is fsynced at a short interval,
	// bounding loss to that window.
	SyncBatch = pager.SyncBatch
	// SyncOff leaves fsync to the OS; crash durability is best-effort.
	SyncOff = pager.SyncOff
)

// DirOptions tunes OpenDir.
type DirOptions struct {
	// PoolPages is the buffer-pool capacity in pages (0 = default 1024).
	PoolPages int
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync SyncMode
	// SyncInterval is the SyncBatch group-commit window (0 = default).
	SyncInterval time.Duration
	// CheckpointBytes triggers a checkpoint once the WAL grows past it
	// (0 = default 16 MiB).
	CheckpointBytes int64
	// Parallel is the worker count for rebuilding spatial indexes on
	// open (0 or 1 = sequential).
	Parallel int
	// Telemetry, when non-nil, receives the storage-engine metrics
	// (pool hits/misses/evictions, WAL bytes, checkpoints, fsync
	// latency) and the database metric set (EnableTelemetry).
	Telemetry *TelemetryRegistry

	// fs overrides the filesystem (crash-injection tests).
	fs pager.FS
}

// catalog format (little endian; string, schema and index are the
// catalogue codec's encodings, see catalog.go):
//
//	magic "STFCAT01"
//	uvarint table count
//	per table: string name; uvarint page-space id; schema
//	uvarint index count
//	per index: index
//	uint32 CRC-32C over everything above
const (
	catalogMagic = "STFCAT01"
	catalogFile  = "catalog.bin"
)

var catalogCRC = crc32.MakeTable(crc32.Castagnoli)

// OpenDir opens (creating if needed) a durable database in dir. Crash
// recovery — WAL redo and checkpoint convergence — happens inside the
// pager before tables are bound; index rebuild happens here.
func OpenDir(dir string, opt DirOptions) (*DB, error) {
	fs := opt.fs
	if fs == nil {
		fs = pager.OSFS
	}
	store, err := pager.Open(dir, pager.Options{
		PoolPages:       opt.PoolPages,
		Sync:            opt.Sync,
		SyncInterval:    opt.SyncInterval,
		CheckpointBytes: opt.CheckpointBytes,
		FS:              fs,
		Telemetry:       opt.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	db := Open()
	db.store = store
	db.dirFS = fs
	db.catalogPath = filepath.Join(dir, catalogFile)
	db.spaceOf = make(map[string]uint32)
	db.nextSpace = 1
	if opt.Telemetry != nil {
		db.EnableTelemetry(opt.Telemetry)
	}
	if err := db.loadCatalog(opt.Parallel); err != nil {
		store.Close()
		return nil, err
	}
	return db, nil
}

// Durable reports whether the database is backed by a data directory.
func (db *DB) Durable() bool { return db.store != nil }

// Checkpoint flushes committed pages to the page file and rotates the
// WAL. A no-op on non-durable databases.
func (db *DB) Checkpoint() error {
	if db.store == nil {
		return nil
	}
	return db.store.Checkpoint()
}

// Close checkpoints and releases the data directory. A no-op on
// non-durable databases; safe to call twice.
func (db *DB) Close() error {
	if db.store == nil {
		return nil
	}
	return db.store.Close()
}

// TableNames lists the database's tables in no particular order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	return names
}

// loadCatalog binds the catalogued tables to their page spaces and
// rebuilds the catalogued indexes. A missing catalog is an empty
// database (first open).
func (db *DB) loadCatalog(parallel int) error {
	ok, err := db.dirFS.Exists(db.catalogPath)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	f, err := db.dirFS.Open(db.catalogPath)
	if err != nil {
		return err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return err
	}
	raw := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(raw, 0); err != nil {
			f.Close()
			return fmt.Errorf("spatialtf: read catalog: %w", err)
		}
	}
	f.Close()

	if len(raw) < len(catalogMagic)+4 || string(raw[:len(catalogMagic)]) != catalogMagic {
		return fmt.Errorf("spatialtf: %s is not a catalog", db.catalogPath)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, catalogCRC) != binary.LittleEndian.Uint32(tail) {
		return fmt.Errorf("spatialtf: catalog checksum mismatch")
	}
	br := bufio.NewReader(bytes.NewReader(body[len(catalogMagic):]))

	tableCount, err := readCount(br, "table count", maxCatalogEntries)
	if err != nil {
		return fmt.Errorf("spatialtf: catalog: %w", err)
	}
	for i := uint64(0); i < tableCount; i++ {
		name, err := readString(br, "name")
		if err != nil {
			return fmt.Errorf("spatialtf: catalog table %d: %w", i, err)
		}
		space, err := readCount(br, "page space", math.MaxUint32)
		if err != nil {
			return fmt.Errorf("spatialtf: catalog table %q: %w", name, err)
		}
		schema, err := readSchema(br)
		if err != nil {
			return fmt.Errorf("spatialtf: catalog table %q: %w", name, err)
		}
		inner, err := storage.OpenTable(name, schema, db.store.Space(uint32(space)))
		if err != nil {
			return fmt.Errorf("spatialtf: open table %q: %w", name, err)
		}
		db.tables[name] = &Table{db: db, inner: inner}
		db.spaceOf[name] = uint32(space)
		if uint32(space) >= db.nextSpace {
			db.nextSpace = uint32(space) + 1
		}
	}

	idxCount, err := readCount(br, "index count", maxCatalogEntries)
	if err != nil {
		return fmt.Errorf("spatialtf: catalog: %w", err)
	}
	for i := uint64(0); i < idxCount; i++ {
		m, err := readIndexMeta(br)
		if err != nil {
			return fmt.Errorf("spatialtf: catalog index %d: %w", i, err)
		}
		if _, err := db.createIndexOn(m.IndexName, m.TableName, m.ColumnName, m.Kind, indexOptions(m, parallel), false); err != nil {
			return fmt.Errorf("spatialtf: rebuild index %q: %w", m.IndexName, err)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("spatialtf: trailing bytes after catalog")
	}
	return nil
}

// writeCatalogLocked rewrites catalog.bin atomically. Tables go in name
// order, indexes in creation order (the order a reopen rebuilds them
// in). Caller holds db.mu.
func (db *DB) writeCatalogLocked() error {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	buf := binary.AppendUvarint([]byte(catalogMagic), uint64(len(names)))
	for _, name := range names {
		buf = binary.AppendUvarint(appendString(buf, name), uint64(db.spaceOf[name]))
		buf = appendSchema(buf, db.tables[name].inner.Schema())
	}
	metas := db.reg.MetadataRows()
	buf = binary.AppendUvarint(buf, uint64(len(metas)))
	for _, m := range metas {
		buf = appendIndexMeta(buf, m)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, catalogCRC))
	return pager.AtomicWriteFile(db.dirFS, db.catalogPath, buf)
}
