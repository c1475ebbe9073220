package storage

import (
	"fmt"
	"sync"

	"spatialtf/internal/pager"
)

// Column describes one schema column.
type Column struct {
	Name string
	Type ColType
}

// Table is a typed heap table: a schema plus a heap file, with typed
// insert/fetch and scan cursors. It corresponds to a regular database
// table holding, e.g., a geometry column alongside attribute columns.
type Table struct {
	name   string
	schema []Column
	byName map[string]int
	heap   *Heap

	// hooks are insert/delete observers; the extensible-indexing
	// framework registers index-maintenance callbacks here, mirroring
	// how Oracle DML on an indexed table triggers index updates.
	hookMu sync.RWMutex
	hooks  []DMLHook
}

// DMLHook observes row-level changes to a table.
type DMLHook interface {
	// RowInserted is called after a row is stored under id.
	RowInserted(id RowID, row Row) error
	// RowDeleted is called after the row at id is removed.
	RowDeleted(id RowID, row Row) error
}

// NewTable returns an empty in-memory table with the given schema.
// Column names must be unique and non-empty.
func NewTable(name string, schema []Column) (*Table, error) {
	byName, err := checkSchema(name, schema)
	if err != nil {
		return nil, err
	}
	return &Table{
		name:   name,
		schema: schema,
		byName: byName,
		heap:   NewHeap(0),
	}, nil
}

// OpenTable binds a table to a pager space — typically one backed by a
// durable store, rebuilding the heap bookkeeping from the space's
// pages. The schema must match the one the table was created with; the
// catalog layer above persists and verifies it.
func OpenTable(name string, schema []Column, space pager.Space) (*Table, error) {
	byName, err := checkSchema(name, schema)
	if err != nil {
		return nil, err
	}
	heap, err := OpenHeap(space)
	if err != nil {
		return nil, fmt.Errorf("storage: open table %q: %w", name, err)
	}
	return &Table{
		name:   name,
		schema: schema,
		byName: byName,
		heap:   heap,
	}, nil
}

func checkSchema(name string, schema []Column) (map[string]int, error) {
	if len(schema) == 0 {
		return nil, fmt.Errorf("storage: table %q needs at least one column", name)
	}
	byName := make(map[string]int, len(schema))
	for i, c := range schema {
		if c.Name == "" {
			return nil, fmt.Errorf("storage: table %q column %d has no name", name, i)
		}
		if _, dup := byName[c.Name]; dup {
			return nil, fmt.Errorf("storage: table %q has duplicate column %q", name, c.Name)
		}
		switch c.Type {
		case TInt64, TFloat64, TString, TBytes, TGeometry:
		default:
			return nil, fmt.Errorf("storage: table %q column %q has invalid type", name, c.Name)
		}
		byName[c.Name] = i
	}
	return byName, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the column definitions. Callers must not modify it.
func (t *Table) Schema() []Column { return t.schema }

// ColumnIndex returns the position of the named column, or an error.
func (t *Table) ColumnIndex(name string) (int, error) {
	i, ok := t.byName[name]
	if !ok {
		return 0, fmt.Errorf("storage: table %q has no column %q", t.name, name)
	}
	return i, nil
}

// Len returns the live row count.
func (t *Table) Len() int { return t.heap.Len() }

// PageCount returns the number of heap pages backing the table.
func (t *Table) PageCount() int { return t.heap.PageCount() }

// AddHook registers a DML observer. Hooks run synchronously inside
// Insert/Delete, after the heap change.
func (t *Table) AddHook(h DMLHook) {
	t.hookMu.Lock()
	defer t.hookMu.Unlock()
	t.hooks = append(t.hooks, h)
}

// Insert stores row and returns its rowid, then notifies hooks.
func (t *Table) Insert(row Row) (RowID, error) {
	img, err := AppendRow(nil, t.schema, row)
	if err != nil {
		return InvalidRowID, fmt.Errorf("insert into %q: %w", t.name, err)
	}
	id, err := t.heap.Insert(img)
	if err != nil {
		return InvalidRowID, fmt.Errorf("insert into %q: %w", t.name, err)
	}
	t.hookMu.RLock()
	hooks := t.hooks
	t.hookMu.RUnlock()
	for _, h := range hooks {
		if err := h.RowInserted(id, row); err != nil {
			return id, fmt.Errorf("insert hook on %q: %w", t.name, err)
		}
	}
	return id, nil
}

// Fetch returns the row at id, decoded straight from the pinned page.
// A deleted row fails with ErrRowDeleted.
func (t *Table) Fetch(id RowID) (Row, error) {
	var row Row
	live, err := t.read(id, func(img []byte) (err error) {
		row, err = DecodeRow(t.schema, img)
		return err
	})
	if err == nil && !live {
		err = t.deleted(id)
	}
	return row, err
}

// FetchColumn returns a single column of the row at id, avoiding a full
// row decode when the caller only needs one column. A deleted row
// fails with ErrRowDeleted.
func (t *Table) FetchColumn(id RowID, col int) (Value, error) {
	var v [1]Value
	live, err := t.FetchColumns(id, []int{col}, v[:])
	if err == nil && !live {
		err = t.deleted(id)
	}
	return v[0], err
}

// FetchColumns is the read of a row by rowid that every operator
// fetches through: it decodes columns cols of the row at id into dst,
// one slot per entry of cols, from one walk of the row image, straight
// from the pinned page under the heap's read lock (a jumbo row is
// assembled first). Every value is a copy, so none aliases the page.
//
// Indexes are read without a snapshot, so the row may have been
// deleted since an index surfaced its rowid: live is then false, with
// a nil error, and the row is simply not in the caller's result — read
// committed per fetch (DESIGN.md §19). A rowid that names no row fails
// with ErrBadRowID.
func (t *Table) FetchColumns(id RowID, cols []int, dst Row) (live bool, err error) {
	for _, col := range cols {
		if col < 0 || col >= len(t.schema) {
			return false, fmt.Errorf("fetch from %q: column %d out of range", t.name, col)
		}
	}
	return t.read(id, func(img []byte) error {
		return decodeColumns(t.schema, img, cols, dst)
	})
}

// read runs decode on the image of the row at id through Heap.view,
// naming the table in its errors.
func (t *Table) read(id RowID, decode func(img []byte) error) (bool, error) {
	live, err := t.heap.view(id, decode)
	if err != nil {
		return false, fmt.Errorf("fetch from %q at %v: %w", t.name, id, err)
	}
	return live, nil
}

// deleted is the error Fetch and FetchColumn, which have no live
// result, return for a row that is not live.
func (t *Table) deleted(id RowID) error {
	return fmt.Errorf("fetch from %q at %v: %w", t.name, id, ErrRowDeleted)
}

// Update replaces the row at id. Because rowids are stable addresses,
// the update is implemented as delete + insert at a fresh rowid; the
// new rowid is returned and hooks observe a delete followed by an
// insert (exactly how index maintenance must see it).
func (t *Table) Update(id RowID, row Row) (RowID, error) {
	// Validate the new row before destroying the old one.
	if _, err := AppendRow(nil, t.schema, row); err != nil {
		return InvalidRowID, fmt.Errorf("update %q at %v: %w", t.name, id, err)
	}
	if err := t.Delete(id); err != nil {
		return InvalidRowID, err
	}
	return t.Insert(row)
}

// Delete removes the row at id and notifies hooks with the old row.
func (t *Table) Delete(id RowID) error {
	old, err := t.Fetch(id)
	if err != nil {
		return err
	}
	if err := t.heap.Delete(id); err != nil {
		return fmt.Errorf("delete from %q: %w", t.name, err)
	}
	t.hookMu.RLock()
	hooks := t.hooks
	t.hookMu.RUnlock()
	for _, h := range hooks {
		if err := h.RowDeleted(id, old); err != nil {
			return fmt.Errorf("delete hook on %q: %w", t.name, err)
		}
	}
	return nil
}

// Scan calls fn with each live row in storage order until fn returns
// false. Rows are decoded copies and safe to retain.
func (t *Table) Scan(fn func(id RowID, row Row) bool) error {
	var decodeErr error
	err := t.heap.Scan(func(id RowID, img []byte) bool {
		row, err := DecodeRow(t.schema, img)
		if err != nil {
			decodeErr = fmt.Errorf("scan of %q at %v: %w", t.name, id, err)
			return false
		}
		return fn(id, row)
	})
	if err != nil {
		return fmt.Errorf("scan of %q: %w", t.name, err)
	}
	return decodeErr
}

// ScanImages is the export scan: begin receives the live-row count, then
// fn the encoded image (see EncodeRow) of each live row in storage
// order, with no decode. Count and rows come from one acquisition of
// the heap lock — see Heap.ScanImages. Images alias the pinned page and
// must not be retained.
func (t *Table) ScanImages(begin func(live int) error, fn func(img []byte) error) error {
	return t.heap.ScanImages(begin, fn)
}

// PageRanges splits the table's page-id span into n contiguous ranges
// of roughly equal width, the unit parallel table functions partition a
// table scan by. Fewer than n ranges are returned for tiny tables. On a
// shared durable store the span may include other tables' pages; a
// range cursor skips those, so ranges stay disjoint and complete,
// merely less balanced.
func (t *Table) PageRanges(n int) [][2]uint32 {
	lo, hi := t.heap.PageSpan()
	total := hi - lo
	if n < 1 {
		n = 1
	}
	if total == 0 {
		return nil
	}
	if uint32(n) > total {
		n = int(total)
	}
	out := make([][2]uint32, 0, n)
	per := total / uint32(n)
	rem := total % uint32(n)
	start := lo
	for i := 0; i < n; i++ {
		count := per
		if uint32(i) < rem {
			count++
		}
		out = append(out, [2]uint32{start, start + count})
		start += count
	}
	return out
}
