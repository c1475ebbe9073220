package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"spatialtf/internal/geom"
	"spatialtf/internal/pager"
)

func testSchema() []Column {
	return []Column{
		{Name: "id", Type: TInt64},
		{Name: "name", Type: TString},
		{Name: "score", Type: TFloat64},
		{Name: "blob", Type: TBytes},
		{Name: "shape", Type: TGeometry},
	}
}

func testRow(i int) Row {
	g, _ := geom.NewRect(float64(i), float64(i), float64(i+1), float64(i+1))
	return Row{
		Int(int64(i)),
		Str(fmt.Sprintf("name-%d", i)),
		Float(float64(i) * 1.5),
		Bytes([]byte{byte(i), byte(i + 1)}),
		Geom(g),
	}
}

func rowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type != b[i].Type {
			return false
		}
		switch a[i].Type {
		case TInt64:
			if a[i].I != b[i].I {
				return false
			}
		case TFloat64:
			if a[i].F != b[i].F {
				return false
			}
		case TString:
			if a[i].S != b[i].S {
				return false
			}
		case TBytes:
			if string(a[i].B) != string(b[i].B) {
				return false
			}
		case TGeometry:
			if !a[i].G.Equal(b[i].G) {
				return false
			}
		}
	}
	return true
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("t", nil); err == nil {
		t.Errorf("empty schema: want error")
	}
	if _, err := NewTable("t", []Column{{Name: "", Type: TInt64}}); err == nil {
		t.Errorf("unnamed column: want error")
	}
	if _, err := NewTable("t", []Column{{Name: "a", Type: TInt64}, {Name: "a", Type: TString}}); err == nil {
		t.Errorf("duplicate column: want error")
	}
	if _, err := NewTable("t", []Column{{Name: "a", Type: ColType(99)}}); err == nil {
		t.Errorf("bad type: want error")
	}
}

func TestTableInsertFetchRoundTrip(t *testing.T) {
	tab, err := NewTable("t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	var ids []RowID
	for i := 0; i < 100; i++ {
		id, err := tab.Insert(testRow(i))
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		got, err := tab.Fetch(id)
		if err != nil {
			t.Fatalf("Fetch %d: %v", i, err)
		}
		if !rowsEqual(got, testRow(i)) {
			t.Errorf("row %d round trip mismatch: %v", i, got)
		}
	}
	if tab.Len() != 100 {
		t.Errorf("Len = %d", tab.Len())
	}
}

func TestTableTypeMismatch(t *testing.T) {
	tab, _ := NewTable("t", []Column{{Name: "a", Type: TInt64}})
	if _, err := tab.Insert(Row{Str("oops")}); err == nil {
		t.Errorf("type mismatch: want error")
	}
	if _, err := tab.Insert(Row{Int(1), Int(2)}); err == nil {
		t.Errorf("arity mismatch: want error")
	}
}

func TestTableColumnIndex(t *testing.T) {
	tab, _ := NewTable("t", testSchema())
	i, err := tab.ColumnIndex("shape")
	if err != nil || i != 4 {
		t.Errorf("ColumnIndex(shape) = %d, %v", i, err)
	}
	if _, err := tab.ColumnIndex("nope"); err == nil {
		t.Errorf("missing column: want error")
	}
}

func TestTableFetchColumn(t *testing.T) {
	tab, _ := NewTable("t", testSchema())
	id, _ := tab.Insert(testRow(7))
	v, err := tab.FetchColumn(id, 1)
	if err != nil || v.S != "name-7" {
		t.Errorf("FetchColumn = %v, %v", v, err)
	}
	if _, err := tab.FetchColumn(id, 99); err == nil {
		t.Errorf("column out of range: want error")
	}
}

// TestDecodeColumnAgreesWithDecodeRow checks the partial decode against
// the full decode on every column of every type: FetchColumn skips the
// sibling payloads by length, so a framing drift in the skip would
// corrupt reads silently.
func TestDecodeColumnAgreesWithDecodeRow(t *testing.T) {
	tab, _ := NewTable("t", testSchema())
	id, _ := tab.Insert(testRow(3))
	row, err := tab.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	for col := range testSchema() {
		v, err := tab.FetchColumn(id, col)
		if err != nil {
			t.Fatalf("FetchColumn(%d): %v", col, err)
		}
		if !rowsEqual(Row{v}, Row{row[col]}) {
			t.Errorf("column %d: partial decode %v, full decode %v", col, v, row[col])
		}
	}
}

// TestFetchColumnsCopyEveryValue proves that the values FetchColumns
// decodes straight from the pinned page own their storage: no string,
// raw payload or geometry coordinate of any column points into the
// page's bytes, on a slotted row and on a jumbo row, in any column
// order.
func TestFetchColumnsCopyEveryValue(t *testing.T) {
	tab, _ := NewTable("t", testSchema())
	id, _ := tab.Insert(testRow(5))
	big := make([]geom.Point, 0, 3000)
	for i := range 3000 {
		big = append(big, geom.Point{X: float64(i), Y: float64(i % 7)})
	}
	line, err := geom.NewLineString(big)
	if err != nil {
		t.Fatal(err)
	}
	jumbo := testRow(6)
	jumbo[4] = Geom(line)
	jid, err := tab.Insert(jumbo)
	if err != nil {
		t.Fatal(err)
	}
	for _, rid := range []RowID{id, jid} {
		f, err := tab.heap.space.Pin(rid.Page)
		if err != nil {
			t.Fatal(err)
		}
		if rid == jid && f.Kind() != pager.KindJumboHead {
			t.Fatalf("the %d-vertex row is not a jumbo row", len(big))
		}
		page := f.Data()
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(page)))
		hi := lo + uintptr(len(page))
		in := func(p unsafe.Pointer) bool { return uintptr(p) >= lo && uintptr(p) < hi }
		cols := []int{4, 3, 1, 0, 2, 1}
		dst := make(Row, len(cols))
		if live, err := tab.FetchColumns(rid, cols, dst); err != nil || !live {
			t.Fatal(live, err)
		}
		want, _ := tab.Fetch(rid)
		for k, v := range dst {
			if !rowsEqual(Row{v}, Row{want[cols[k]]}) {
				t.Errorf("%v slot %d (column %d): %v, the full decode %v", rid, k, cols[k], v, want[cols[k]])
			}
			switch v.Type {
			case TString:
				if in(unsafe.Pointer(unsafe.StringData(v.S))) {
					t.Errorf("%v column %d: the string aliases the page", rid, cols[k])
				}
			case TBytes:
				if in(unsafe.Pointer(unsafe.SliceData(v.B))) {
					t.Errorf("%v column %d: the payload aliases the page", rid, cols[k])
				}
			case TGeometry:
				if in(unsafe.Pointer(unsafe.SliceData(v.G.Pts))) {
					t.Errorf("%v column %d: the geometry aliases the page", rid, cols[k])
				}
				for _, r := range v.G.Rings {
					if in(unsafe.Pointer(unsafe.SliceData(r))) {
						t.Errorf("%v column %d: a ring aliases the page", rid, cols[k])
					}
				}
			}
		}
		f.Unpin()
	}
	if err := tab.Delete(id); err != nil {
		t.Fatal(err)
	}
	if live, err := tab.FetchColumns(id, []int{0}, make(Row, 1)); live || err != nil {
		t.Errorf("FetchColumns of a deleted row: live %v, %v; want not live, no error", live, err)
	}
}

func TestTableDelete(t *testing.T) {
	tab, _ := NewTable("t", testSchema())
	id, _ := tab.Insert(testRow(1))
	if err := tab.Delete(id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := tab.Fetch(id); !errors.Is(err, ErrRowDeleted) {
		t.Errorf("Fetch after delete: %v", err)
	}
	if err := tab.Delete(id); err == nil {
		t.Errorf("double delete: want error")
	}
}

func TestTableUpdate(t *testing.T) {
	tab, _ := NewTable("t", testSchema())
	id, _ := tab.Insert(testRow(1))
	newID, err := tab.Update(id, testRow(42))
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if newID == id {
		t.Errorf("Update reused the rowid")
	}
	if _, err := tab.Fetch(id); !errors.Is(err, ErrRowDeleted) {
		t.Errorf("old rowid still live: %v", err)
	}
	got, err := tab.Fetch(newID)
	if err != nil || !rowsEqual(got, testRow(42)) {
		t.Errorf("updated row wrong: %v, %v", got, err)
	}
	// Invalid replacement row must not destroy the original.
	id2, _ := tab.Insert(testRow(2))
	if _, err := tab.Update(id2, Row{Int(1)}); err == nil {
		t.Fatalf("bad update row accepted")
	}
	if _, err := tab.Fetch(id2); err != nil {
		t.Errorf("failed update destroyed the row: %v", err)
	}
	// Update of a deleted row errors.
	if _, err := tab.Update(id, testRow(3)); err == nil {
		t.Errorf("update of deleted row accepted")
	}
}

type recordingHook struct {
	mu       sync.Mutex
	inserted []RowID
	deleted  []RowID
	failNext bool
}

func (r *recordingHook) RowInserted(id RowID, row Row) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failNext {
		r.failNext = false
		return errors.New("hook boom")
	}
	r.inserted = append(r.inserted, id)
	return nil
}

func (r *recordingHook) RowDeleted(id RowID, row Row) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deleted = append(r.deleted, id)
	return nil
}

func TestTableHooks(t *testing.T) {
	tab, _ := NewTable("t", testSchema())
	h := &recordingHook{}
	tab.AddHook(h)
	id, err := tab.Insert(testRow(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Delete(id); err != nil {
		t.Fatal(err)
	}
	if len(h.inserted) != 1 || h.inserted[0] != id {
		t.Errorf("insert hook calls: %v", h.inserted)
	}
	if len(h.deleted) != 1 || h.deleted[0] != id {
		t.Errorf("delete hook calls: %v", h.deleted)
	}
	h.failNext = true
	if _, err := tab.Insert(testRow(1)); err == nil {
		t.Errorf("hook error not propagated")
	}
}

func TestTableScan(t *testing.T) {
	tab, _ := NewTable("t", testSchema())
	for i := 0; i < 50; i++ {
		tab.Insert(testRow(i))
	}
	sum := int64(0)
	err := tab.Scan(func(id RowID, row Row) bool {
		sum += row[0].I
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 49*50/2 {
		t.Errorf("scan sum = %d", sum)
	}
}

func TestTableScanImages(t *testing.T) {
	tab, _ := NewTable("t", testSchema())
	var ids []RowID
	for i := 0; i < 50; i++ {
		id, _ := tab.Insert(testRow(i))
		ids = append(ids, id)
	}
	tab.Delete(ids[7])
	// The count announced first is the number of images that follow, and
	// each image is the row's stored encoding.
	declared, sum := -1, int64(0)
	n := 0
	err := tab.ScanImages(func(live int) error {
		declared = live
		return nil
	}, func(img []byte) error {
		row, err := DecodeRow(tab.Schema(), img)
		if err != nil {
			return err
		}
		sum += row[0].I
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if declared != 49 || n != 49 || sum != 49*50/2-7 {
		t.Errorf("ScanImages declared %d, emitted %d rows summing %d", declared, n, sum)
	}
	// Either callback's error ends the scan and comes back.
	boom := errors.New("boom")
	if err := tab.ScanImages(func(int) error { return boom }, func([]byte) error { t.Fatal("scanned after begin failed"); return nil }); err != boom {
		t.Errorf("begin error: got %v", err)
	}
	n = 0
	if err := tab.ScanImages(func(int) error { return nil }, func([]byte) error { n++; return boom }); err != boom || n != 1 {
		t.Errorf("fn error: got %v after %d rows", err, n)
	}
}

func TestTablePageRanges(t *testing.T) {
	tab, _ := NewTable("t", testSchema())
	for i := 0; i < 500; i++ {
		tab.Insert(testRow(i))
	}
	for _, n := range []int{1, 2, 3, 4, 7} {
		ranges := tab.PageRanges(n)
		if len(ranges) == 0 {
			t.Fatalf("no ranges for n=%d", n)
		}
		// Ranges must tile [1, pageCount+1) without gaps or overlap.
		if ranges[0][0] != 1 {
			t.Errorf("n=%d: first range starts at %d", n, ranges[0][0])
		}
		for i := 1; i < len(ranges); i++ {
			if ranges[i][0] != ranges[i-1][1] {
				t.Errorf("n=%d: gap between ranges %v and %v", n, ranges[i-1], ranges[i])
			}
		}
		if got := ranges[len(ranges)-1][1]; got != uint32(tab.PageCount())+1 {
			t.Errorf("n=%d: last range ends at %d, want %d", n, got, tab.PageCount()+1)
		}
		// Row counts across ranges must sum to the table size.
		total := 0
		for _, r := range ranges {
			ids, _, err := Drain(NewRangeCursor(tab, r[0], r[1]))
			if err != nil {
				t.Fatal(err)
			}
			total += len(ids)
		}
		if total != tab.Len() {
			t.Errorf("n=%d: ranges cover %d rows, want %d", n, total, tab.Len())
		}
	}
	empty, _ := NewTable("e", testSchema())
	if got := empty.PageRanges(4); got != nil {
		t.Errorf("empty table ranges = %v", got)
	}
}

func TestCursorFullScan(t *testing.T) {
	tab, _ := NewTable("t", testSchema())
	var want []RowID
	for i := 0; i < 120; i++ {
		id, _ := tab.Insert(testRow(i))
		want = append(want, id)
	}
	c := NewCursor(tab)
	ids, rows, err := Drain(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(want) {
		t.Fatalf("cursor yielded %d rows, want %d", len(ids), len(want))
	}
	for i := range ids {
		if ids[i] != want[i] {
			t.Errorf("row %d id = %v, want %v", i, ids[i], want[i])
		}
		if rows[i][0].I != int64(i) {
			t.Errorf("row %d out of order: %v", i, rows[i][0])
		}
	}
	// Next after exhaustion keeps returning ok=false.
	if _, _, ok, _ := c.Next(); ok {
		t.Errorf("drained cursor yielded a row")
	}
}

func TestCursorAfterClose(t *testing.T) {
	tab, _ := NewTable("t", testSchema())
	tab.Insert(testRow(0))
	c := NewCursor(tab)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Next(); err == nil {
		t.Errorf("Next after Close: want error")
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestRangeCursorsPartition(t *testing.T) {
	tab, _ := NewTable("t", testSchema())
	for i := 0; i < 300; i++ {
		tab.Insert(testRow(i))
	}
	seen := map[RowID]bool{}
	for _, r := range tab.PageRanges(3) {
		c := NewRangeCursor(tab, r[0], r[1])
		ids, _, err := Drain(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if seen[id] {
				t.Errorf("row %v appeared in two partitions", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != 300 {
		t.Errorf("partitions cover %d rows, want 300", len(seen))
	}
}

func TestSliceCursor(t *testing.T) {
	rows := []Row{{Int(1)}, {Int(2)}}
	c := NewSliceCursor(nil, rows)
	_, r1, ok, err := c.Next()
	if !ok || err != nil || r1[0].I != 1 {
		t.Fatalf("first Next: %v %v %v", r1, ok, err)
	}
	id2, r2, ok, _ := c.Next()
	if !ok || r2[0].I != 2 || id2.IsValid() {
		t.Fatalf("second Next: %v %v", id2, r2)
	}
	if _, _, ok, _ := c.Next(); ok {
		t.Errorf("exhausted SliceCursor yielded a row")
	}
}

func TestValueString(t *testing.T) {
	g, _ := geom.NewRect(0, 0, 1, 1)
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{Str("hi"), "hi"},
		{Bytes([]byte{0xAB}), "0xab"},
		{Geom(g), geom.MarshalWKT(g)},
		{Value{}, "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("Value.String() = %q, want %q", got, c.want)
		}
	}
}

func TestColTypeString(t *testing.T) {
	want := map[ColType]string{
		TInt64: "INT", TFloat64: "FLOAT", TString: "VARCHAR",
		TBytes: "RAW", TGeometry: "GEOMETRY", ColType(77): "TYPE(77)",
	}
	for ct, s := range want {
		if got := ct.String(); got != s {
			t.Errorf("%v.String() = %q, want %q", uint8(ct), got, s)
		}
	}
}

func TestCursorSeesConcurrentInserts(t *testing.T) {
	// A cursor does not hold the lock between calls, so a writer can
	// interleave. This test just checks absence of deadlock and that the
	// cursor completes with at least the initial rows.
	tab, _ := NewTable("t", testSchema())
	for i := 0; i < 100; i++ {
		tab.Insert(testRow(i))
	}
	c := NewCursor(tab)
	count := 0
	for {
		_, _, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
		if count == 50 {
			// Mid-scan write.
			if _, err := tab.Insert(testRow(1000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if count < 100 {
		t.Errorf("cursor saw %d rows, want >= 100", count)
	}
}
