package pager

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"spatialtf/internal/telemetry"
)

// testOpen opens a store on fs with a small pool and always-sync WAL.
func testOpen(t *testing.T, fs FS, opts Options) *Store {
	t.Helper()
	opts.FS = fs
	if opts.PageSize == 0 {
		opts.PageSize = 512
	}
	s, err := Open("data", opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// put allocates one page in sp, fills its payload with pattern b, and
// commits. Returns the page id.
func put(t *testing.T, sp Space, b byte) uint32 {
	t.Helper()
	tx := sp.Begin()
	f, err := sp.Allocate(tx, KindSlotted)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	d := f.Data()
	for i := range d {
		d[i] = b
	}
	sp.Record(tx, f, Patch{Off: 0, Data: d})
	id := f.ID()
	f.Unpin()
	if err := sp.Commit(tx); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return id
}

func checkPage(t *testing.T, sp Space, id uint32, b byte) {
	t.Helper()
	f, err := sp.Pin(id)
	if err != nil {
		t.Fatalf("Pin(%d): %v", id, err)
	}
	defer f.Unpin()
	for i, got := range f.Data() {
		if got != b {
			t.Fatalf("page %d byte %d = %#x, want %#x", id, i, got, b)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	fs := NewMemFS()
	s := testOpen(t, fs, Options{})
	sp := s.Space(1)
	ids := []uint32{put(t, sp, 0x11), put(t, sp, 0x22), put(t, sp, 0x33)}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := testOpen(t, fs, Options{})
	defer s2.Close()
	sp2 := s2.Space(1)
	pages := sp2.Pages()
	if len(pages) != 3 {
		t.Fatalf("Pages() = %v, want 3 pages", pages)
	}
	for i, id := range ids {
		checkPage(t, sp2, id, byte(0x11*(i+1)))
	}
}

func TestStoreSpacesAreSegregated(t *testing.T) {
	fs := NewMemFS()
	s := testOpen(t, fs, Options{})
	defer s.Close()
	a, b := s.Space(1), s.Space(2)
	idA := put(t, a, 0xAA)
	idB := put(t, b, 0xBB)
	if len(a.Pages()) != 1 || len(b.Pages()) != 1 {
		t.Fatalf("space pages = %v / %v, want 1 each", a.Pages(), b.Pages())
	}
	if _, err := a.Pin(idB); !errors.Is(err, ErrBadPage) {
		t.Fatalf("cross-space pin: err = %v, want ErrBadPage", err)
	}
	checkPage(t, a, idA, 0xAA)
	checkPage(t, b, idB, 0xBB)
}

func TestPoolEvictionAndWriteback(t *testing.T) {
	fs := NewMemFS()
	reg := telemetry.New()
	s := testOpen(t, fs, Options{PoolPages: 16, Telemetry: reg})
	defer s.Close()
	sp := s.Space(1)
	// Far more pages than pool frames: eviction with writeback must
	// kick in, and every page must read back intact afterwards.
	const n = 100
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = put(t, sp, byte(i))
	}
	for i, id := range ids {
		checkPage(t, sp, id, byte(i))
		// Immediate re-pin: served from the pool.
		checkPage(t, sp, id, byte(i))
	}
	snap := reg.Snapshot()
	vals := map[string]float64{}
	for _, p := range snap {
		vals[p.Name] = p.Value
	}
	if vals["pool_evictions_total"] == 0 {
		t.Fatalf("no evictions recorded with pool 16 and %d pages: %v", n, vals)
	}
	if vals["pool_misses_total"] == 0 || vals["pool_hits_total"] == 0 {
		t.Fatalf("hit/miss counters not fed: %v", vals)
	}
}

func TestPoolExhaustedWhenAllPinned(t *testing.T) {
	fs := NewMemFS()
	s := testOpen(t, fs, Options{PoolPages: 16})
	defer s.Close()
	sp := s.Space(1)
	ids := make([]uint32, 20)
	for i := range ids {
		ids[i] = put(t, sp, byte(i))
	}
	var pinned []*Frame
	defer func() {
		for _, f := range pinned {
			f.Unpin()
		}
	}()
	exhausted := false
	for _, id := range ids {
		f, err := sp.Pin(id)
		if err != nil {
			if !errors.Is(err, ErrPoolExhausted) {
				t.Fatalf("Pin: %v, want ErrPoolExhausted", err)
			}
			exhausted = true
			break
		}
		pinned = append(pinned, f)
	}
	if !exhausted {
		t.Fatalf("pinned %d pages into a 16-frame pool without exhaustion", len(pinned))
	}
}

func TestUncommittedNeverSurvives(t *testing.T) {
	fs := NewMemFS()
	s := testOpen(t, fs, Options{})
	sp := s.Space(1)
	committed := put(t, sp, 0x5A)

	// A mutation that never commits: recovery must not surface it.
	tx := sp.Begin()
	f, err := sp.Pin(committed)
	if err != nil {
		t.Fatalf("Pin: %v", err)
	}
	f.Data()[0] = 0xFF
	sp.Record(tx, f, Patch{Off: 0, Data: f.Data()[:1]})
	f.Unpin()
	// Crash without commit: clone the filesystem as-is.
	clone := fs.CrashClone(fs.CrashPoints(), false, false)

	s2 := testOpen(t, clone, Options{})
	defer s2.Close()
	checkPage(t, s2.Space(1), committed, 0x5A)
}

func TestRollbackDiscardsAllocation(t *testing.T) {
	fs := NewMemFS()
	s := testOpen(t, fs, Options{})
	defer s.Close()
	sp := s.Space(1)
	tx := sp.Begin()
	f, err := sp.Allocate(tx, KindSlotted)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	id := f.ID()
	f.Unpin()
	sp.Rollback(tx)
	if pages := sp.Pages(); len(pages) != 0 {
		t.Fatalf("space still lists pages after rollback: %v", pages)
	}
	if _, err := sp.Pin(id); err == nil {
		t.Fatalf("pin of rolled-back page %d succeeded", id)
	}
}

func TestCheckpointRotatesWAL(t *testing.T) {
	fs := NewMemFS()
	s := testOpen(t, fs, Options{})
	sp := s.Space(1)
	for i := 0; i < 8; i++ {
		put(t, sp, byte(i))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s.mu.Lock()
	walSize := s.walSize
	s.mu.Unlock()
	if walSize != walHdrSize {
		t.Fatalf("WAL is %d bytes after checkpoint, want a bare header (%d)", walSize, walHdrSize)
	}
	// Everything must still be there after a post-checkpoint reopen
	// with the rotated (empty) log.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := testOpen(t, fs, Options{})
	defer s2.Close()
	for i := 0; i < 8; i++ {
		checkPage(t, s2.Space(1), uint32(i+1), byte(i))
	}
}

// TestFirstOpenCrash crashes the first Open of an empty directory at
// every filesystem operation, torn and not, with unsynced writes kept
// and dropped: the next Open must succeed on whatever was left and
// hand out working pages — a crash while the page file is being
// created leaves no page file, never one without its superblock.
func TestFirstOpenCrash(t *testing.T) {
	fs := NewMemFS()
	s := testOpen(t, fs, Options{})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for k := 0; k <= fs.CrashPoints(); k++ {
		for _, torn := range []bool{false, true} {
			for _, drop := range []bool{false, true} {
				s, err := Open("data", Options{FS: fs.CrashClone(k, torn, drop), PageSize: 512})
				if err != nil {
					t.Fatalf("k=%d torn=%v drop=%v: reopen: %v", k, torn, drop, err)
				}
				sp := s.Space(1)
				checkPage(t, sp, put(t, sp, 0x3C), 0x3C)
				if err := s.Close(); err != nil {
					t.Fatalf("k=%d: Close: %v", k, err)
				}
			}
		}
	}
}

// TestAtomicWrite: the streaming writer issues several writes, a failed
// write callback changes nothing, and at every crash point × {torn} ×
// {drop-unsynced} the path holds exactly the old bytes or exactly the
// new — never a truncation, never a mix.
func TestAtomicWrite(t *testing.T) {
	fs := NewMemFS()
	versions := [][]byte{[]byte("first"), bytes.Repeat([]byte("second"), 100), []byte("3rd")}
	chunked := func(data []byte) func(io.Writer) error {
		return func(w io.Writer) error {
			for len(data) > 0 {
				n := min(len(data), 7)
				if _, err := w.Write(data[:n]); err != nil {
					return err
				}
				data = data[n:]
			}
			return nil
		}
	}
	read := func(fs *MemFS) []byte {
		if ok, _ := fs.Exists("dir/file.bin"); !ok {
			return nil
		}
		f, err := fs.Open("dir/file.bin")
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		size, _ := f.Size()
		got := make([]byte, size)
		if size > 0 {
			f.ReadAt(got, 0)
		}
		return got
	}
	boom := errors.New("boom")
	var done []int // crash points at which version i became durable
	for i, v := range versions {
		if i == 2 {
			// A writer that fails halfway leaves the old file and no temp.
			err := AtomicWrite(fs, "dir/file.bin", func(w io.Writer) error {
				w.Write([]byte("half a fi"))
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("failed writer: error %v", err)
			}
			if got := read(fs); !bytes.Equal(got, versions[1]) {
				t.Fatalf("failed writer replaced the file with %q", got)
			}
			if ok, _ := fs.Exists("dir/file.bin.tmp"); ok {
				t.Fatal("failed writer left its temp file behind")
			}
		}
		var err error
		if i == 0 {
			err = AtomicWriteFile(fs, "dir/file.bin", v) // the []byte form, same protocol
		} else {
			err = AtomicWrite(fs, "dir/file.bin", chunked(v))
		}
		if err != nil {
			t.Fatalf("AtomicWrite: %v", err)
		}
		done = append(done, fs.CrashPoints())
	}
	for k := 0; k <= fs.CrashPoints(); k++ {
		for _, torn := range []bool{false, true} {
			for _, drop := range []bool{false, true} {
				got := read(fs.CrashClone(k, torn, drop))
				// Version i is required once its AtomicWrite returned and
				// allowed from the moment it started.
				ok := got == nil && k < done[0]
				for i, v := range versions {
					started := i == 0 || k >= done[i-1]
					superseded := i+1 < len(versions) && k >= done[i+1]
					ok = ok || (bytes.Equal(got, v) && started && !superseded)
				}
				if !ok {
					t.Fatalf("k=%d torn=%v drop=%v: file holds %q, not a whole allowed version", k, torn, drop, got)
				}
			}
		}
	}
}
