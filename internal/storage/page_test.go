package storage

import (
	"bytes"
	"errors"
	"testing"
)

func TestPageInsertFetch(t *testing.T) {
	p := newPage(256)
	if p.slotCount() != 0 {
		t.Fatalf("new page slot count %d", p.slotCount())
	}
	slot, err := p.insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.fetch(slot)
	if err != nil || string(got) != "hello" {
		t.Fatalf("fetch = %q, %v", got, err)
	}
	if _, err := p.fetch(99); err == nil {
		t.Errorf("out-of-range fetch accepted")
	}
}

func TestPageFreeSpaceAccounting(t *testing.T) {
	p := newPage(128)
	initial := p.freeSpace()
	if initial <= 0 || initial >= 128 {
		t.Fatalf("initial free space %d", initial)
	}
	if _, err := p.insert(make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	after := p.freeSpace()
	// 20 payload bytes + one 4-byte slot entry.
	if initial-after != 24 {
		t.Errorf("free space dropped by %d, want 24", initial-after)
	}
	// Insert beyond capacity is rejected without corruption.
	if _, err := p.insert(make([]byte, 1000)); err == nil {
		t.Errorf("oversized insert accepted")
	}
	if got, err := p.fetch(0); err != nil || len(got) != 20 {
		t.Errorf("existing row damaged after failed insert")
	}
}

func TestPageFillToCapacity(t *testing.T) {
	p := newPage(256)
	n := 0
	for {
		row := []byte{byte(n), byte(n), byte(n), byte(n)}
		if p.freeSpace() < len(row) {
			break
		}
		if _, err := p.insert(row); err != nil {
			t.Fatalf("insert %d: %v", n, err)
		}
		n++
	}
	if n < 10 {
		t.Fatalf("only %d rows fit in a 256-byte page", n)
	}
	for i := 0; i < n; i++ {
		got, err := p.fetch(i)
		if err != nil || !bytes.Equal(got, []byte{byte(i), byte(i), byte(i), byte(i)}) {
			t.Fatalf("row %d corrupted: %q, %v", i, got, err)
		}
	}
}

func TestPageDeleteTombstones(t *testing.T) {
	p := newPage(256)
	s0, _ := p.insert([]byte("aa"))
	s1, _ := p.insert([]byte("bb"))
	if err := p.delete(s0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.fetch(s0); !errors.Is(err, ErrRowDeleted) {
		t.Errorf("deleted slot fetch: %v", err)
	}
	if err := p.delete(s0); !errors.Is(err, ErrRowDeleted) {
		t.Errorf("double delete: %v", err)
	}
	if err := p.delete(99); err == nil {
		t.Errorf("out-of-range delete accepted")
	}
	// Sibling survives; liveRows skips the tombstone.
	if got, _ := p.fetch(s1); string(got) != "bb" {
		t.Errorf("sibling damaged: %q", got)
	}
	live := 0
	p.liveRows(0, func(slot int, row []byte) bool {
		if slot == s0 {
			t.Errorf("tombstoned slot surfaced")
		}
		live++
		return true
	})
	if live != 1 {
		t.Errorf("liveRows saw %d rows", live)
	}
}

func TestPageLiveRowsEarlyStop(t *testing.T) {
	p := newPage(256)
	for i := 0; i < 5; i++ {
		p.insert([]byte{byte(i)})
	}
	n := 0
	p.liveRows(0, func(int, []byte) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestMaxRowLen(t *testing.T) {
	if got := maxRowLen(DefaultPageSize); got != DefaultPageSize-pageHeaderSize-slotEntrySize {
		t.Errorf("maxRowLen = %d", got)
	}
}
