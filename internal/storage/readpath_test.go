package storage

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"spatialtf/internal/geom"
	"spatialtf/internal/pager"
)

// readPathTable builds the differential table: slotted and jumbo rows
// on 1 KiB pages, some of each kind deleted, one page compacted by
// deletes and then backfilled. It returns the table, the live rows by
// rowid, the deleted rowids and the rowid of a live jumbo row.
func readPathTable(t *testing.T) (*Table, map[RowID]Row, []RowID, RowID) {
	t.Helper()
	tab, err := OpenTable("t", testSchema(), pager.NewMem(1024))
	if err != nil {
		t.Fatal(err)
	}
	live := map[RowID]Row{}
	var jumbos []RowID
	insert := func(row Row) RowID {
		id, err := tab.Insert(row)
		if err != nil {
			t.Fatal(err)
		}
		live[id] = row
		return id
	}
	for i := range 60 {
		row := testRow(i)
		if i%10 == 3 {
			pts := make([]geom.Point, 0, 100)
			for k := range 100 {
				pts = append(pts, geom.Point{X: float64(i + k), Y: float64(k % 5)})
			}
			line, err := geom.NewLineString(pts)
			if err != nil {
				t.Fatal(err)
			}
			row[4] = Geom(line)
			jumbos = append(jumbos, insert(row))
			continue
		}
		insert(row)
	}
	var deleted []RowID
	del := func(id RowID) {
		if err := tab.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
		deleted = append(deleted, id)
	}
	// Every slotted row of the first page but its last is deleted, which
	// compacts the page.
	first := slices.SortedFunc(maps.Keys(live), RowID.Compare)[0]
	var onFirst []RowID
	for id := range live {
		if id.Page == first.Page {
			onFirst = append(onFirst, id)
		}
	}
	slices.SortFunc(onFirst, RowID.Compare)
	for _, id := range onFirst[:len(onFirst)-1] {
		del(id)
	}
	f, err := tab.heap.space.Pin(first.Page)
	if err != nil {
		t.Fatal(err)
	}
	if (page{buf: f.Data()}).deadBytes() != 0 {
		t.Fatalf("page %d was not compacted by its deletes", first.Page)
	}
	f.Unpin()
	// Every third surviving row, slotted or jumbo, is deleted too.
	ids := slices.SortedFunc(maps.Keys(live), RowID.Compare)
	for i, id := range ids {
		if i%3 == 1 {
			del(id)
		}
	}
	// New rows fill the insert target and then backfill the compacted
	// page.
	backfilled := false
	for i := range 20 {
		backfilled = insert(testRow(100+i)).Page == first.Page || backfilled
	}
	if !backfilled {
		t.Fatalf("no new row backfilled page %d", first.Page)
	}
	var jumbo RowID
	for _, id := range jumbos {
		if _, ok := live[id]; ok {
			jumbo = id
		}
	}
	jumboDeleted := false
	for _, id := range deleted {
		jumboDeleted = jumboDeleted || slices.Contains(jumbos, id)
	}
	if !jumbo.IsValid() || !jumboDeleted {
		t.Fatalf("the table needs a live and a deleted jumbo row: %v, %v", jumbos, deleted)
	}
	return tab, live, deleted, jumbo
}

// TestReadPathsAgree is the differential test of every read of a
// table: the by-rowid reads, the scans and the cursors drained a row
// and a batch at a time, whole and over page ranges, must return the
// same live rows (and rowids, where the read reports them) in storage
// order on a table of slotted and jumbo rows, some deleted, with a page
// compacted by deletes and backfilled. A deleted rowid reads not live
// (ErrRowDeleted through the wrappers) and a bad rowid ErrBadRowID.
func TestReadPathsAgree(t *testing.T) {
	tab, live, deleted, jumbo := readPathTable(t)
	wantIDs := slices.SortedFunc(maps.Keys(live), RowID.Compare)
	wantRows := make([]Row, len(wantIDs))
	for i, id := range wantIDs {
		wantRows[i] = live[id]
	}
	check := func(leg string, ids []RowID, rows []Row) {
		t.Helper()
		if ids != nil && !slices.Equal(ids, wantIDs) {
			t.Errorf("%s: rowids %v, want %v", leg, ids, wantIDs)
		}
		if len(rows) != len(wantRows) {
			t.Errorf("%s: %d rows, want %d", leg, len(rows), len(wantRows))
			return
		}
		for i := range rows {
			if !rowsEqual(rows[i], wantRows[i]) {
				t.Errorf("%s: row %d (%v) is %v, want %v", leg, i, wantIDs[i], rows[i], wantRows[i])
			}
		}
	}

	// By rowid.
	cols := []int{4, 0, 2, 1, 3, 0}
	var fetched, byColumn, byColumns []Row
	for _, id := range wantIDs {
		row, err := tab.Fetch(id)
		if err != nil {
			t.Fatalf("Fetch(%v): %v", id, err)
		}
		fetched = append(fetched, row)
		one := make(Row, len(tab.Schema()))
		for col := range one {
			if one[col], err = tab.FetchColumn(id, col); err != nil {
				t.Fatalf("FetchColumn(%v, %d): %v", id, col, err)
			}
		}
		byColumn = append(byColumn, one)
		dst := make(Row, len(cols))
		if ok, err := tab.FetchColumns(id, cols, dst); !ok || err != nil {
			t.Fatalf("FetchColumns(%v): live %v, %v", id, ok, err)
		}
		back := make(Row, len(tab.Schema()))
		for k, col := range cols {
			back[col] = dst[k]
		}
		if !rowsEqual(dst[5:], dst[1:2]) {
			t.Errorf("FetchColumns(%v): a column asked for twice read %v and %v", id, dst[1], dst[5])
		}
		byColumns = append(byColumns, back)
	}
	check("Fetch", nil, fetched)
	check("FetchColumn", nil, byColumn)
	check("FetchColumns", nil, byColumns)

	// Scans.
	var ids []RowID
	var rows []Row
	if err := tab.Scan(func(id RowID, row Row) bool {
		ids, rows = append(ids, id), append(rows, row)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	check("Scan", ids, rows)
	rows = nil
	declared := -1
	if err := tab.ScanImages(func(n int) error { declared = n; return nil }, func(img []byte) error {
		row, err := DecodeRow(tab.Schema(), img)
		rows = append(rows, row)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if declared != len(wantIDs) {
		t.Errorf("ScanImages declared %d rows, want %d", declared, len(wantIDs))
	}
	check("ScanImages", nil, rows)

	// Cursors, whole and over 1…4 page ranges, a row and a batch at a
	// time.
	for n := 0; n <= 4; n++ {
		ranges := [][2]uint32{{0, 0}}
		if n > 0 {
			ranges = tab.PageRanges(n)
		}
		open := func(r [2]uint32) Cursor {
			if n == 0 {
				return NewCursor(tab)
			}
			return NewRangeCursor(tab, r[0], r[1])
		}
		// A range cursor ends each row in its rowid value.
		split := func(rows []Row) (ids []RowID, vals []Row) {
			if n == 0 {
				return nil, rows
			}
			for _, row := range rows {
				w := len(row) - 1
				ids, vals = append(ids, row[w].RowID()), append(vals, row[:w])
			}
			return ids, vals
		}
		ids, rows = nil, nil
		for _, r := range ranges {
			i, rs, err := Drain(open(r))
			if err != nil {
				t.Fatal(err)
			}
			ids, rows = append(ids, i...), append(rows, rs...)
		}
		rids, got := split(rows)
		if n > 0 && !slices.Equal(rids, ids) {
			t.Errorf("Next over %s: rowid values %v, rowids %v", rangeName(n), rids, ids)
		}
		check("Next over "+rangeName(n), ids, got)
		for _, max := range []int{0, 1, 7} {
			var b Batch
			for _, r := range ranges {
				c := open(r)
				for {
					had := len(b.Rows)
					if err := c.NextBatch(&b, max); err != nil {
						t.Fatal(err)
					}
					got := len(b.Rows) - had
					if max > 0 && got > max {
						t.Errorf("NextBatch(%d) appended %d rows", max, got)
					}
					if got == 0 {
						break
					}
				}
				c.Close()
			}
			bids, brows := split(b.Rows)
			check("NextBatch over "+rangeName(n), bids, brows)
		}
	}

	// A deleted rowid, slotted or jumbo, is not live; the wrappers say
	// ErrRowDeleted.
	for _, id := range deleted {
		if ok, err := tab.FetchColumns(id, cols, make(Row, len(cols))); ok || err != nil {
			t.Errorf("FetchColumns(%v) of a deleted row: live %v, %v", id, ok, err)
		}
		if _, err := tab.Fetch(id); !errors.Is(err, ErrRowDeleted) {
			t.Errorf("Fetch(%v) of a deleted row: %v", id, err)
		}
		if _, err := tab.FetchColumn(id, 0); !errors.Is(err, ErrRowDeleted) {
			t.Errorf("FetchColumn(%v) of a deleted row: %v", id, err)
		}
	}

	// A rowid that names no row fails typed on every read: no page, a
	// slot past the page's directory, a jumbo row's slot other than 0.
	slotted := wantIDs[0]
	for _, id := range []RowID{{}, {Page: 9999}, {Page: slotted.Page, Slot: 999}, {Page: jumbo.Page, Slot: 1}} {
		if _, err := tab.FetchColumns(id, cols, make(Row, len(cols))); !errors.Is(err, ErrBadRowID) {
			t.Errorf("FetchColumns(%v): %v, want ErrBadRowID", id, err)
		}
		if _, err := tab.Fetch(id); !errors.Is(err, ErrBadRowID) {
			t.Errorf("Fetch(%v): %v, want ErrBadRowID", id, err)
		}
		if _, err := tab.FetchColumn(id, 0); !errors.Is(err, ErrBadRowID) {
			t.Errorf("FetchColumn(%v): %v, want ErrBadRowID", id, err)
		}
	}
}

func rangeName(n int) string {
	if n == 0 {
		return "the table"
	}
	return string(rune('0'+n)) + " page ranges"
}
