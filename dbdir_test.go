package spatialtf

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"spatialtf/internal/pager"
)

// fillSpatial populates a spatial table with a grid of small rects and
// returns the rowids in insert order.
func fillSpatial(t *testing.T, tab *Table, n int) []RowID {
	t.Helper()
	ids := make([]RowID, n)
	for i := 0; i < n; i++ {
		x := float64(i%10) * 4
		y := float64(i/10) * 4
		id, err := tab.Add("row", MustRect(x, y, x+2, y+2))
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		ids[i] = id
	}
	return ids
}

func TestOpenDirLifecycle(t *testing.T) {
	fs := pager.NewMemFS()
	db, err := OpenDir("data", DirOptions{fs: fs, PoolPages: 64})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	counties, err := db.CreateSpatialTable("counties")
	if err != nil {
		t.Fatalf("CreateSpatialTable: %v", err)
	}
	ids := fillSpatial(t, counties, 40)
	if _, err := db.CreateIndex("counties_idx", "counties", RTree, IndexOptions{}); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	hits1, err := db.Relate("counties", "counties_idx", MustRect(0, 0, 9, 9), "anyinteract")
	if err != nil {
		t.Fatalf("Relate: %v", err)
	}
	if len(hits1) == 0 {
		t.Fatal("no hits before restart")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: tables bind to their page spaces, indexes rebuild from the
	// catalog, and rowids are stable (the whole point over Save/Restore).
	db2, err := OpenDir("data", DirOptions{fs: fs, PoolPages: 64})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	c2, err := db2.Table("counties")
	if err != nil {
		t.Fatalf("Table after reopen: %v", err)
	}
	if c2.Len() != 40 {
		t.Fatalf("reopened table has %d rows, want 40", c2.Len())
	}
	for i, id := range ids {
		row, err := c2.Fetch(id)
		if err != nil {
			t.Fatalf("fetch %v after reopen: %v", id, err)
		}
		if row[0].I != int64(i) {
			t.Fatalf("row %v id column = %d, want %d", id, row[0].I, i)
		}
	}
	hits2, err := db2.Relate("counties", "counties_idx", MustRect(0, 0, 9, 9), "anyinteract")
	if err != nil {
		t.Fatalf("Relate after reopen: %v", err)
	}
	if len(hits2) != len(hits1) {
		t.Fatalf("rebuilt index returns %d hits, want %d", len(hits2), len(hits1))
	}

	// Add keeps drawing fresh ids after reopen (sequence reseeds from
	// stored rows).
	id, err := c2.Add("late", MustRect(100, 100, 101, 101))
	if err != nil {
		t.Fatalf("Add after reopen: %v", err)
	}
	row, err := c2.Fetch(id)
	if err != nil {
		t.Fatalf("fetch late row: %v", err)
	}
	if row[0].I != 40 {
		t.Fatalf("post-reopen Add drew id %d, want 40", row[0].I)
	}
}

// crashMark is the committed state at one boundary of the crash
// script: everything here had returned to the caller before filesystem
// operation `point`, so a crash at or after it must preserve all of it.
type crashMark struct {
	point int
	ddl   int                         // DDL statements completed
	rows  map[string]map[RowID]string // table → rowid → rendered row
	dead  []RowID                     // deleted from "stars"
}

// TestOpenDirCrashDurability crashes a data directory at EVERY
// filesystem operation of a script that mixes DML with every kind of
// DDL — table creation, R-tree and Quadtree creation, a snapshot import
// — in a plain and a torn-final-write variant with unsynced writes
// dropped. Every reopen must succeed; the recovered catalogue must be
// one of the script's successive catalogues, no older than the last one
// committed; every catalogued index (rebuilt on open) must answer a
// window query exactly like an index-free scan; and every row committed
// before the crash must be there. That puts catalog.bin rewrites and
// index rebuild-on-open inside the crash matrix, not just the heap.
func TestOpenDirCrashDurability(t *testing.T) {
	fs := pager.NewMemFS()
	opt := DirOptions{fs: fs, Sync: SyncAlways, PoolPages: 32}
	db, err := OpenDir("data", opt)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	// The script's DDL in order; Import creates its tables, then its
	// indexes, each in name order.
	ddl := []string{"table stars", "index stars_rt", "table roads", "index roads_qt",
		"table notes", "table parcels", "index parcels_qt", "index parcels_rt"}
	var marks []crashMark
	var dead []RowID
	mark := func() {
		t.Helper()
		m := crashMark{point: fs.CrashPoints(), ddl: catalogueLen(t, db, ddl), rows: map[string]map[RowID]string{}}
		for _, name := range db.TableNames() {
			tab, _ := db.Table(name)
			m.rows[name] = map[RowID]string{}
			tab.Scan(func(id RowID, row Row) bool {
				m.rows[name][id] = fmt.Sprint(row)
				return true
			})
		}
		m.dead = append(m.dead, dead...)
		marks = append(marks, m)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	add := func(tab *Table, n int) []RowID {
		t.Helper()
		ids := make([]RowID, n)
		for i := range ids {
			x, y := float64(i%5)*6, float64(i/5)*6
			ids[i], err = tab.Add("row", MustRect(x, y, x+4, y+4))
			must(err)
			mark()
		}
		return ids
	}

	mark()
	stars, err := db.CreateSpatialTable("stars")
	must(err)
	mark()
	ids := add(stars, 25)
	_, err = db.CreateIndex("stars_rt", "stars", RTree, IndexOptions{Fanout: 8, InteriorEffort: 1})
	must(err)
	mark()
	roads, err := db.CreateSpatialTable("roads")
	must(err)
	mark()
	add(roads, 10)
	_, err = db.CreateIndex("roads_qt", "roads", Quadtree, IndexOptions{TilingLevel: 5, Bounds: MBR{MaxX: 64, MaxY: 64}})
	must(err)
	mark()
	must(db.Import(bytes.NewReader(golden(t, "golden.snap")), 0))
	mark()
	must(stars.Delete(ids[3]))
	dead = append(dead, ids[3])
	mark()
	if got := marks[len(marks)-1].ddl; got != len(ddl) {
		t.Fatalf("script finished with %d of %d DDL statements catalogued", got, len(ddl))
	}
	wantMeta := map[string]Metadata{}
	metas, err := db.IndexMetadata()
	must(err)
	for _, m := range metas {
		wantMeta[m.IndexName] = m
	}

	window := MustRect(3, 3, 30, 30)
	points := fs.CrashPoints()
	// The matrix starts where the script does: crash points inside the
	// very first OpenDir (page-file bootstrap) are the pager's to cover.
	for k := marks[0].point; k <= points; k++ {
		floor := marks[0]
		for _, m := range marks {
			if m.point <= k {
				floor = m
			}
		}
		for _, torn := range []bool{false, true} {
			tag := fmt.Sprintf("k=%d/%d torn=%v", k, points, torn)
			copt := opt
			copt.fs = fs.CrashClone(k, torn, true)
			db2, err := OpenDir("data", copt)
			if err != nil {
				t.Fatalf("%s: reopen after crash: %v", tag, err)
			}
			if n := catalogueLen(t, db2, ddl); n < floor.ddl {
				t.Fatalf("%s: recovered the catalogue after %d DDL statements, %d were committed", tag, n, floor.ddl)
			}
			metas, err := db2.IndexMetadata()
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			for _, m := range metas {
				// RowsIndexed and an R-tree's data bounds describe the
				// rows present at the rebuild, not the catalogue.
				w := wantMeta[m.IndexName]
				m.RowsIndexed, w.RowsIndexed = 0, 0
				if m.Kind == RTree {
					m.Bounds, w.Bounds = MBR{}, MBR{}
				}
				if m != w {
					t.Fatalf("%s: index recovered as %+v, created as %+v", tag, m, w)
				}
				tab, err := db2.Table(m.TableName)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				got, err := db2.Relate(m.TableName, m.IndexName, window, "anyinteract")
				if err != nil {
					t.Fatalf("%s: window query on rebuilt %s: %v", tag, m.IndexName, err)
				}
				want := scanWindow(t, tab, m.ColumnName, window)
				slices.SortFunc(got, RowID.Compare)
				slices.SortFunc(want, RowID.Compare)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: rebuilt %s answers %v, an index-free scan %v", tag, m.IndexName, got, want)
				}
			}
			for name, rows := range floor.rows {
				tab, err := db2.Table(name)
				if err != nil {
					t.Fatalf("%s: committed table lost: %v", tag, err)
				}
				for id, want := range rows {
					row, err := tab.Fetch(id)
					if err != nil || fmt.Sprint(row) != want {
						t.Fatalf("%s: committed row %s%v = %v (%v), want %s", tag, name, id, row, err, want)
					}
				}
			}
			for _, id := range floor.dead {
				if _, err := db2.tables["stars"].Fetch(id); err == nil {
					t.Fatalf("%s: committed delete of %v came back", tag, id)
				}
			}
			if k == points {
				// SIGKILL after the whole script: nothing may be missing.
				for name, rows := range floor.rows {
					if tab, _ := db2.Table(name); tab.Len() != len(rows) {
						t.Fatalf("%s: table %s recovered %d rows, want %d", tag, name, tab.Len(), len(rows))
					}
				}
			}
			if err := db2.Close(); err != nil {
				t.Fatalf("%s: close after recovery: %v", tag, err)
			}
		}
	}
	t.Logf("verified %d crash points × {plain, torn}", points+1-marks[0].point)
}

// catalogueLen checks that db's catalogue — its tables and indexes — is
// exactly the first n statements of the DDL script, and returns n.
func catalogueLen(t *testing.T, db *DB, ddl []string) int {
	t.Helper()
	have := map[string]bool{}
	for _, name := range db.TableNames() {
		have["table "+name] = true
	}
	metas, err := db.IndexMetadata()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metas {
		have["index "+m.IndexName] = true
	}
	for _, stmt := range ddl[:min(len(have), len(ddl))] {
		if !have[stmt] {
			t.Fatalf("catalogue %v is not a prefix of the DDL script %v", have, ddl)
		}
	}
	return len(have)
}

func TestOpenDirCatalogCorruptionDetected(t *testing.T) {
	fs := pager.NewMemFS()
	db, err := OpenDir("data", DirOptions{fs: fs})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	if _, err := db.CreateSpatialTable("t"); err != nil {
		t.Fatalf("CreateSpatialTable: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip a byte in the catalog body: reopen must refuse, not
	// misinterpret.
	f, err := fs.Open("data/catalog.bin")
	if err != nil {
		t.Fatalf("open catalog: %v", err)
	}
	size, _ := f.Size()
	buf := make([]byte, size)
	f.ReadAt(buf, 0)
	buf[len(buf)/2] ^= 0xFF
	f.WriteAt(buf, 0)
	f.Sync()
	if _, err := OpenDir("data", DirOptions{fs: fs}); err == nil {
		t.Fatal("corrupt catalog accepted")
	}
}

func TestOpenDirSharedStoreSegregatesTables(t *testing.T) {
	fs := pager.NewMemFS()
	db, err := OpenDir("data", DirOptions{fs: fs})
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	defer db.Close()
	a, err := db.CreateSpatialTable("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateSpatialTable("b")
	if err != nil {
		t.Fatal(err)
	}
	// Interleave inserts so the two tables' pages interleave in the
	// shared page file; scans and counts must stay per-table.
	for i := 0; i < 30; i++ {
		if _, err := a.Add("a", MustRect(0, 0, 1, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Add("b", MustRect(5, 5, 6, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if a.Len() != 30 || b.Len() != 30 {
		t.Fatalf("table lengths %d/%d, want 30/30", a.Len(), b.Len())
	}
	seen := 0
	if err := a.Scan(func(_ RowID, row Row) bool {
		if row[1].S != "a" {
			t.Fatalf("table a scan surfaced row %q", row[1].S)
		}
		seen++
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if seen != 30 {
		t.Fatalf("table a scan saw %d rows, want 30", seen)
	}
}
