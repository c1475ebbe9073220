package spatialtf

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func buildSnapshotDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if _, err := db.LoadDataset("counties", Counties(64, 501)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("counties_idx", "counties", RTree,
		IndexOptions{Fanout: 16, InteriorEffort: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("counties_qt", "counties", Quadtree,
		IndexOptions{TilingLevel: 6, Bounds: World}); err != nil {
		t.Fatal(err)
	}
	misc, err := db.CreateTable("misc", []Column{
		{Name: "k", Type: TInt64},
		{Name: "v", Type: TString},
		{Name: "b", Type: TBytes},
		{Name: "f", Type: TFloat64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := misc.Insert(Int(1), Str("one"), Bytes([]byte{1, 2}), Float(1.5)); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := buildSnapshotDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Tables and row counts survive.
	for _, name := range []string{"counties", "misc"} {
		orig, _ := db.Table(name)
		got, err := restored.Table(name)
		if err != nil {
			t.Fatalf("restored table %q: %v", name, err)
		}
		if got.Len() != orig.Len() {
			t.Fatalf("table %q: %d rows, want %d", name, got.Len(), orig.Len())
		}
	}
	// Index catalogue survives with parameters.
	metas, err := restored.IndexMetadata()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Metadata{}
	for _, m := range metas {
		byName[m.IndexName] = m
	}
	if m := byName["counties_idx"]; m.Kind != RTree || m.Fanout != 16 || m.InteriorEffort != 2 {
		t.Fatalf("rtree metadata lost: %+v", m)
	}
	if m := byName["counties_qt"]; m.Kind != Quadtree || m.TilingLevel != 6 || m.Bounds != World {
		t.Fatalf("quadtree metadata lost: %+v", m)
	}
	// Queries agree between original and restored databases.
	window := MustRect(100, 100, 400, 400)
	origHits, err := db.Relate("counties", "counties_idx", window, "anyinteract")
	if err != nil {
		t.Fatal(err)
	}
	gotHits, err := restored.Relate("counties", "counties_idx", window, "anyinteract")
	if err != nil {
		t.Fatal(err)
	}
	if len(gotHits) != len(origHits) {
		t.Fatalf("restored query: %d hits, want %d", len(gotHits), len(origHits))
	}
	// Joins agree too.
	c1, err := db.SpatialJoin("counties", "counties_idx", "counties", "counties_idx", JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := c1.Collect()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := restored.SpatialJoin("counties", "counties_idx", "counties", "counties_idx", JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c2.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(p2) {
		t.Fatalf("restored join: %d pairs, want %d", len(p2), len(p1))
	}
	// The misc row content survives.
	misc, _ := restored.Table("misc")
	var row Row
	misc.Scan(func(_ RowID, r Row) bool { row = r; return false })
	if row[0].I != 1 || row[1].S != "one" || string(row[2].B) != "\x01\x02" || row[3].F != 1.5 {
		t.Fatalf("misc row corrupted: %v", row)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	db := buildSnapshotDB(t)
	var a, b bytes.Buffer
	if err := db.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("snapshots of the same database differ")
	}

	// The format itself is pinned by a golden written before the
	// catalogue codec was unified (see fillGoldenDB): the fixed database
	// still encodes to exactly those bytes, and the golden decodes
	// (Restore) and re-encodes (Save) byte for byte.
	want := golden(t, "golden.snap")
	fixed := Open()
	fillGoldenDB(t, fixed)
	if got := saveBytes(t, fixed); !bytes.Equal(got, want) {
		t.Fatalf("snapshot of the golden database differs from testdata/golden.snap:\n got %x\nwant %x", got, want)
	}
	restored, err := Restore(bytes.NewReader(want), 0)
	if err != nil {
		t.Fatalf("restore golden snapshot: %v", err)
	}
	if got := saveBytes(t, restored); !bytes.Equal(got, want) {
		t.Fatalf("golden snapshot decoded and re-encoded differs:\n got %x\nwant %x", got, want)
	}
}

// declaredRows parses a snapshot's table sections by hand — independent
// of the codec under test — and returns each table's declared row count.
func declaredRows(t *testing.T, snap []byte) map[string]int {
	t.Helper()
	p := snap[len(snapshotMagic):]
	uv := func() uint64 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			t.Fatalf("snapshot ends inside a uvarint")
		}
		p = p[n:]
		return v
	}
	str := func() string {
		l := uv()
		s := string(p[:l])
		p = p[l:]
		return s
	}
	out := map[string]int{}
	for tables := uv(); tables > 0; tables-- {
		name := str()
		for cols := uv(); cols > 0; cols-- {
			str()
			p = p[1:]
		}
		rows := uv()
		out[name] = int(rows)
		for ; rows > 0; rows-- {
			p = p[uv():]
		}
	}
	return out
}

// TestSnapshotSaveBesideDML: Save may run beside live DML (the shell's
// \save, any library caller). Whatever instant it captures, a stream it
// returns without error must restore, and every table must come back
// with exactly the row count its section declares.
func TestSnapshotSaveBesideDML(t *testing.T) {
	db := Open()
	tab, err := db.CreateSpatialTable("churn")
	if err != nil {
		t.Fatal(err)
	}
	fillSpatial(t, tab, 40)
	if _, err := db.CreateIndex("churn_idx", "churn", RTree, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		var ids []RowID
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			id, err := tab.Add("w", MustRect(float64(i%50), 0, float64(i%50)+1, 1))
			if err != nil {
				done <- err
				return
			}
			ids = append(ids, id)
			if len(ids) > 30 {
				if err := tab.Delete(ids[0]); err != nil {
					done <- err
					return
				}
				ids = ids[1:]
			}
		}
	}()
	for i := 0; i < 400; i++ {
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			continue // an honest failure is allowed; a bad stream is not
		}
		restored, err := Restore(bytes.NewReader(buf.Bytes()), 0)
		if err != nil {
			close(stop)
			t.Fatalf("save %d returned no error but its stream does not restore: %v", i, err)
		}
		for name, want := range declaredRows(t, buf.Bytes()) {
			got, err := restored.Table(name)
			if err != nil || got.Len() != want {
				close(stop)
				t.Fatalf("save %d: table %q restored with %d rows, section declares %d (%v)", i, name, got.Len(), want, err)
			}
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

func TestRestoreErrors(t *testing.T) {
	if _, err := Restore(strings.NewReader(""), 0); err == nil {
		t.Errorf("empty input accepted")
	}
	if _, err := Restore(strings.NewReader("NOTASNAP"), 0); err == nil {
		t.Errorf("bad magic accepted")
	}
	// Truncated snapshot.
	db := buildSnapshotDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(buf.Bytes()[:buf.Len()/2]), 0); err == nil {
		t.Errorf("truncated snapshot accepted")
	}
	// Trailing garbage.
	garbage := append(buf.Bytes(), 0xFF)
	if _, err := Restore(bytes.NewReader(garbage), 0); err == nil {
		t.Errorf("trailing garbage accepted")
	}
}
