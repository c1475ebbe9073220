package spatialtf

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"spatialtf/internal/storage"
)

// Database snapshots: Save writes every table (live rows) and the
// spatial-index catalogue to a stream; Import loads such a stream into
// a database, recreating indexes with their original parameters. This
// is the export/import durability model (like exp/imp), not a physical
// datafile copy: rowids are NOT stable across Save/Import — rows are
// reinserted in storage order and indexes are rebuilt.

// snapshot format (little endian; string, schema and index are the
// catalogue codec's encodings, see catalog.go):
//
//	magic "STFSNAP1"
//	uvarint table count
//	per table: string name; schema; uvarint row count; per row
//	  (uvarint len, row image as storage.EncodeRow writes it)
//	uvarint index count
//	per index: index
const snapshotMagic = "STFSNAP1"

// maxSnapshotRowImage caps one encoded row (strings and blobs
// included); the storage layer's own blob limit is far below this.
const maxSnapshotRowImage = 1 << 24

// Save serialises the database. Tables are written in name order and
// indexes in index-name order, so snapshots of equal databases are
// byte-identical. Save may run beside DML: each table section is one
// consistent scan (its row count and its rows are read under one lock),
// though different tables are captured at different instants.
func (db *DB) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	names := db.TableNames()
	sort.Strings(names)
	buf := binary.AppendUvarint([]byte(snapshotMagic), uint64(len(names)))
	for _, name := range names {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		buf = appendSchema(appendString(buf, name), t.inner.Schema())
		declared, emitted := 0, 0
		err = t.inner.ScanImages(func(live int) error {
			declared = live
			_, err := bw.Write(binary.AppendUvarint(buf, uint64(live)))
			return err
		}, func(img []byte) error {
			emitted++
			var l [binary.MaxVarintLen64]byte
			if _, err := bw.Write(l[:binary.PutUvarint(l[:], uint64(len(img)))]); err != nil {
				return err
			}
			_, err := bw.Write(img)
			return err
		})
		if err != nil {
			return err
		}
		// A scan cut short by an unreadable page must not become a table
		// section whose count disagrees with its rows.
		if emitted != declared {
			return fmt.Errorf("spatialtf: save table %q: scan produced %d of %d live rows", name, emitted, declared)
		}
		buf = buf[:0]
	}

	metas, err := db.IndexMetadata()
	if err != nil {
		return err
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].IndexName < metas[j].IndexName })
	buf = binary.AppendUvarint(buf, uint64(len(metas)))
	for _, m := range metas {
		buf = appendIndexMeta(buf, m)
	}
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return bw.Flush()
}

// Restore reads a snapshot into a new in-memory database (indexes
// rebuilt with `parallel` workers; 0 = sequential).
func Restore(r io.Reader, parallel int) (*DB, error) {
	db := Open()
	if err := db.Import(r, parallel); err != nil {
		return nil, err
	}
	return db, nil
}

// Import loads a snapshot into this database — in-memory or durable —
// through the ordinary CreateTable, Insert and CreateIndexOn, so on a
// data directory every step is catalogued and logged like any other DDL
// and DML. A table name the database already has fails with
// CreateTable's "already exists" error. Import is not all-or-nothing:
// tables are loaded in stream (name) order, and on any error the tables,
// rows and indexes loaded before it stay.
func (db *DB) Import(r io.Reader, parallel int) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("spatialtf: snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return fmt.Errorf("spatialtf: bad snapshot magic %q", magic)
	}
	tableCount, err := readCount(br, "table count", maxCatalogEntries)
	if err != nil {
		return fmt.Errorf("spatialtf: snapshot: %w", err)
	}
	// Every row image is read into img, which grows with the bytes
	// received rather than with the length a row claims: a forged
	// length on a short stream fails at EOF without reserving it.
	// DecodeRow copies what it keeps.
	var img bytes.Buffer
	for ti := uint64(0); ti < tableCount; ti++ {
		name, err := readString(br, "name")
		if err != nil {
			return fmt.Errorf("spatialtf: snapshot table %d: %w", ti, err)
		}
		schema, err := readSchema(br)
		if err != nil {
			return fmt.Errorf("spatialtf: snapshot table %q: %w", name, err)
		}
		tab, err := db.CreateTable(name, schema)
		if err != nil {
			return fmt.Errorf("spatialtf: import table %q: %w", name, err)
		}
		rowCount, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("spatialtf: snapshot table %q row count: %w", name, err)
		}
		for ri := uint64(0); ri < rowCount; ri++ {
			l, err := readCount(br, "image length", maxSnapshotRowImage)
			if err != nil {
				return fmt.Errorf("spatialtf: snapshot table %q row %d: %w", name, ri, err)
			}
			img.Reset()
			if _, err := io.CopyN(&img, br, int64(l)); err != nil {
				return fmt.Errorf("spatialtf: snapshot table %q row %d: %w", name, ri, err)
			}
			row, err := storage.DecodeRow(schema, img.Bytes())
			if err != nil {
				return fmt.Errorf("spatialtf: snapshot table %q row %d: %w", name, ri, err)
			}
			if _, err := tab.Insert(row...); err != nil {
				return err
			}
		}
	}

	idxCount, err := readCount(br, "index count", maxCatalogEntries)
	if err != nil {
		return fmt.Errorf("spatialtf: snapshot: %w", err)
	}
	for ii := uint64(0); ii < idxCount; ii++ {
		m, err := readIndexMeta(br)
		if err != nil {
			return fmt.Errorf("spatialtf: snapshot index %d: %w", ii, err)
		}
		if _, err := db.CreateIndexOn(m.IndexName, m.TableName, m.ColumnName, m.Kind, indexOptions(m, parallel)); err != nil {
			return fmt.Errorf("spatialtf: import index %q: %w", m.IndexName, err)
		}
	}
	// Trailing garbage is an error: snapshots are exact.
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("spatialtf: trailing bytes after snapshot")
	}
	return nil
}
