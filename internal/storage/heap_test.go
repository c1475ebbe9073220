package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"spatialtf/internal/pager"
)

func TestHeapInsertFetch(t *testing.T) {
	h := NewHeap(0)
	id, err := h.Insert([]byte("hello"))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if !id.IsValid() {
		t.Fatalf("rowid %v invalid", id)
	}
	got, err := h.Fetch(id)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if string(got) != "hello" {
		t.Errorf("Fetch = %q", got)
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d", h.Len())
	}
}

func TestHeapFetchCopies(t *testing.T) {
	h := NewHeap(0)
	id, _ := h.Insert([]byte("aaaa"))
	got, _ := h.Fetch(id)
	got[0] = 'z'
	again, _ := h.Fetch(id)
	if string(again) != "aaaa" {
		t.Errorf("Fetch result aliases storage: %q", again)
	}
}

func TestHeapInsertCopiesInput(t *testing.T) {
	h := NewHeap(0)
	row := []byte("mutable")
	id, _ := h.Insert(row)
	row[0] = 'X'
	got, _ := h.Fetch(id)
	if string(got) != "mutable" {
		t.Errorf("Insert retained caller buffer: %q", got)
	}
}

func TestHeapDelete(t *testing.T) {
	h := NewHeap(0)
	id1, _ := h.Insert([]byte("one"))
	id2, _ := h.Insert([]byte("two"))
	if err := h.Delete(id1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := h.Fetch(id1); !errors.Is(err, ErrRowDeleted) {
		t.Errorf("Fetch deleted: got %v, want ErrRowDeleted", err)
	}
	if err := h.Delete(id1); !errors.Is(err, ErrRowDeleted) {
		t.Errorf("double Delete: got %v, want ErrRowDeleted", err)
	}
	// Unrelated rows keep their rowids and contents.
	got, err := h.Fetch(id2)
	if err != nil || string(got) != "two" {
		t.Errorf("sibling row damaged: %q, %v", got, err)
	}
	if h.Len() != 1 {
		t.Errorf("Len after delete = %d", h.Len())
	}
}

// Fetch is the heap tests' read of one row: a copy of its image, read
// through view, with a deleted row reported as ErrRowDeleted.
func (h *Heap) Fetch(id RowID) ([]byte, error) {
	var out []byte
	live, err := h.view(id, func(img []byte) error {
		out = bytes.Clone(img)
		return nil
	})
	if err == nil && !live {
		err = ErrRowDeleted
	}
	return out, err
}

func TestHeapBadRowIDs(t *testing.T) {
	h := NewHeap(0)
	h.Insert([]byte("x"))
	for _, id := range []RowID{{}, {Page: 99, Slot: 0}, {Page: 1, Slot: 99}} {
		if _, err := h.Fetch(id); !errors.Is(err, ErrBadRowID) {
			t.Errorf("Fetch(%v): %v, want ErrBadRowID", id, err)
		}
	}
}

func TestHeapPageOverflow(t *testing.T) {
	h := NewHeap(256)
	var ids []RowID
	for i := 0; i < 50; i++ {
		id, err := h.Insert(bytes.Repeat([]byte{byte(i)}, 40))
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if h.PageCount() < 2 {
		t.Errorf("expected multiple pages, got %d", h.PageCount())
	}
	for i, id := range ids {
		got, err := h.Fetch(id)
		if err != nil {
			t.Fatalf("Fetch %d: %v", i, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 40)) {
			t.Errorf("row %d corrupted", i)
		}
	}
}

func TestHeapJumboRows(t *testing.T) {
	h := NewHeap(256)
	big := bytes.Repeat([]byte("J"), 10000)
	id, err := h.Insert(big)
	if err != nil {
		t.Fatalf("jumbo Insert: %v", err)
	}
	got, err := h.Fetch(id)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("jumbo Fetch failed: %v", err)
	}
	// Next small insert must not land on the full jumbo page.
	id2, err := h.Insert([]byte("small"))
	if err != nil {
		t.Fatalf("Insert after jumbo: %v", err)
	}
	if id2.Page == id.Page {
		t.Errorf("small row landed on jumbo page")
	}
	// Over the hard cap.
	if _, err := h.Insert(make([]byte, 70000)); !errors.Is(err, ErrRowTooLarge) {
		t.Errorf("oversized insert: got %v, want ErrRowTooLarge", err)
	}
}

func TestHeapScanOrderAndCompleteness(t *testing.T) {
	h := NewHeap(512)
	want := map[RowID]string{}
	for i := 0; i < 200; i++ {
		s := fmt.Sprintf("row-%03d", i)
		id, err := h.Insert([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = s
	}
	var prev RowID
	seen := 0
	h.Scan(func(id RowID, row []byte) bool {
		if seen > 0 && !prev.Less(id) {
			t.Errorf("scan out of order: %v then %v", prev, id)
		}
		prev = id
		if want[id] != string(row) {
			t.Errorf("row %v = %q, want %q", id, row, want[id])
		}
		seen++
		return true
	})
	if seen != len(want) {
		t.Errorf("scan saw %d rows, want %d", seen, len(want))
	}
}

func TestHeapScanSkipsDeleted(t *testing.T) {
	h := NewHeap(0)
	var ids []RowID
	for i := 0; i < 10; i++ {
		id, _ := h.Insert([]byte{byte(i)})
		ids = append(ids, id)
	}
	for i := 0; i < 10; i += 2 {
		h.Delete(ids[i])
	}
	count := 0
	h.Scan(func(id RowID, row []byte) bool {
		if row[0]%2 == 0 {
			t.Errorf("deleted row %v surfaced in scan", id)
		}
		count++
		return true
	})
	if count != 5 {
		t.Errorf("scan saw %d rows, want 5", count)
	}
}

func TestHeapScanEarlyStop(t *testing.T) {
	h := NewHeap(0)
	for i := 0; i < 10; i++ {
		h.Insert([]byte{byte(i)})
	}
	count := 0
	h.Scan(func(RowID, []byte) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("scan visited %d rows after early stop, want 3", count)
	}
}

// TestHeapScanRange checks that two range cursors partition the full
// scan.
func TestHeapScanRange(t *testing.T) {
	tab, err := OpenTable("t", []Column{{Name: "b", Type: TBytes}}, pager.NewMem(128))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tab.Insert(Row{Bytes(bytes.Repeat([]byte{byte(i)}, 30))}); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	tab.Scan(func(RowID, Row) bool { total++; return true })
	pages := uint32(tab.PageCount())
	mid := pages/2 + 1
	ids1, _, err1 := Drain(NewRangeCursor(tab, 1, mid))
	ids2, _, err2 := Drain(NewRangeCursor(tab, mid, pages+1))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	c1, c2 := len(ids1), len(ids2)
	if c1+c2 != total {
		t.Errorf("range cursors cover %d+%d rows, full scan %d", c1, c2, total)
	}
	if c1 == 0 || c2 == 0 {
		t.Errorf("degenerate partition: %d, %d", c1, c2)
	}
}

func TestHeapConcurrentReaders(t *testing.T) {
	h := NewHeap(0)
	var ids []RowID
	for i := 0; i < 1000; i++ {
		id, _ := h.Insert([]byte(fmt.Sprintf("%d", i)))
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				idx := rng.Intn(len(ids))
				got, err := h.Fetch(ids[idx])
				if err != nil {
					errs <- err
					return
				}
				if string(got) != fmt.Sprintf("%d", idx) {
					errs <- fmt.Errorf("row %d corrupted: %q", idx, got)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHeapRoundTripProperty: any byte string that fits round-trips.
func TestHeapRoundTripProperty(t *testing.T) {
	h := NewHeap(0)
	f := func(row []byte) bool {
		if len(row) > 60000 {
			row = row[:60000]
		}
		id, err := h.Insert(row)
		if err != nil {
			return false
		}
		got, err := h.Fetch(id)
		if err != nil {
			return false
		}
		return bytes.Equal(got, row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRowIDOrderingAndEncoding(t *testing.T) {
	ids := []RowID{
		{Page: 1, Slot: 0},
		{Page: 1, Slot: 1},
		{Page: 2, Slot: 0},
		{Page: 300, Slot: 65535},
	}
	for i := 0; i < len(ids)-1; i++ {
		if !ids[i].Less(ids[i+1]) {
			t.Errorf("%v should be < %v", ids[i], ids[i+1])
		}
		if ids[i+1].Less(ids[i]) {
			t.Errorf("%v should not be < %v", ids[i+1], ids[i])
		}
		if ids[i].Compare(ids[i+1]) != -1 || ids[i+1].Compare(ids[i]) != 1 || ids[i].Compare(ids[i]) != 0 {
			t.Errorf("Compare inconsistent at %d", i)
		}
		// Byte encoding must preserve order.
		a := ids[i].AppendTo(nil)
		b := ids[i+1].AppendTo(nil)
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("encoded order broken for %v vs %v", ids[i], ids[i+1])
		}
	}
	for _, id := range ids {
		back, err := RowIDFromBytes(id.AppendTo(nil))
		if err != nil || back != id {
			t.Errorf("round trip %v -> %v (%v)", id, back, err)
		}
	}
	if _, err := RowIDFromBytes([]byte{1, 2}); err == nil {
		t.Errorf("short rowid bytes: want error")
	}
	if (RowID{}).IsValid() {
		t.Errorf("zero RowID should be invalid")
	}
}

// TestRowIDStringGolden pins the page.slot text form: it is what SQL
// clients see as rid1/rid2, so the strconv rendering must stay byte for
// byte what fmt's "%d.%d" produced, at the edges of both fields.
func TestRowIDStringGolden(t *testing.T) {
	for _, c := range []struct {
		id   RowID
		want string
	}{
		{RowID{Page: 1, Slot: 0}, "1.0"},
		{RowID{Page: 1, Slot: 65535}, "1.65535"},
		{RowID{Page: 1<<32 - 1, Slot: 0}, "4294967295.0"},
		{RowID{Page: 1<<32 - 1, Slot: 65535}, "4294967295.65535"},
		{RowID{Page: 17, Slot: 4}, "17.4"},
		{InvalidRowID, "0.0"},
	} {
		if got := c.id.String(); got != c.want {
			t.Errorf("RowID%+v.String() = %q, want %q", c.id, got, c.want)
		}
		if got := fmt.Sprintf("%d.%d", c.id.Page, c.id.Slot); got != c.want {
			t.Errorf("golden %q is not the fmt form %q", c.want, got)
		}
		if got := string(c.id.AppendString([]byte("rid="))); got != "rid="+c.want {
			t.Errorf("AppendString = %q", got)
		}
		v := Rid(c.id)
		if v.Type != TRowID || v.RowID() != c.id {
			t.Errorf("Rid round trip of %v: %v", c.id, v.RowID())
		}
		if got := v.String(); got != c.want {
			t.Errorf("Rid(%v).String() = %q, want %q", c.id, got, c.want)
		}
		if got := string(v.AppendString([]byte("rid="))); got != "rid="+c.want {
			t.Errorf("Rid AppendString = %q", got)
		}
	}
}

// TestRidEncodesAsItsText pins the rowid value's encoding: in a string
// column it is byte for byte its page.slot text as a string, so a frame
// carrying join rows is the one a text cell made. No schema may carry
// the tag itself.
func TestRidEncodesAsItsText(t *testing.T) {
	schema := []Column{{Name: "n", Type: TInt64}, {Name: "rid", Type: TString}, {Name: "s", Type: TString}}
	for _, id := range []RowID{{Page: 1, Slot: 0}, {Page: 17, Slot: 4}, {Page: 1<<32 - 1, Slot: 65535}} {
		got, err := AppendRow([]byte{7}, schema, Row{Int(3), Rid(id), Str("x")})
		if err != nil {
			t.Fatal(err)
		}
		want, err := AppendRow([]byte{7}, schema, Row{Int(3), Str(id.String()), Str("x")})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: image %x, want %x", id, got, want)
		}
		back, err := DecodeRow(schema, got[1:])
		if err != nil || back[1].Type != TString || back[1].S != id.String() {
			t.Errorf("%v: decoded %v, %v", id, back, err)
		}
	}
	if _, err := AppendRow(nil, schema[:1], Row{Rid(RowID{Page: 1})}); err == nil || err.Error() != `storage: column "n" expects INT, got ROWID` {
		t.Errorf("rowid value in an INT column: %v", err)
	}
	if _, err := NewTable("t", []Column{{Name: "rid", Type: TRowID}}); err == nil {
		t.Error("a table with a ROWID column was created")
	}
}
