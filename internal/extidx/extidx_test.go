package extidx

import (
	"errors"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

func newRegistry() *Registry {
	r := NewRegistry()
	RegisterDefaultKinds(r)
	return r
}

func loadCounties(t testing.TB, n int) (*storage.Table, datagen.Dataset) {
	t.Helper()
	ds := datagen.Counties(n, 71)
	tab, _, err := datagen.LoadTable("counties", ds)
	if err != nil {
		t.Fatal(err)
	}
	return tab, ds
}

func TestCreateIndexAndMetadata(t *testing.T) {
	r := newRegistry()
	tab, ds := loadCounties(t, 49)
	rt, err := r.CreateIndex("counties_rt", KindRTree, tab, "geom", Params{Fanout: 16})
	if err != nil {
		t.Fatal(err)
	}
	qt, err := r.CreateIndex("counties_qt", KindQuadtree, tab, "geom",
		Params{TilingLevel: 6, Bounds: ds.Bounds, BuildWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Meta().Kind != KindRTree || rt.Meta().Fanout != 16 {
		t.Errorf("rtree meta = %+v", rt.Meta())
	}
	if qt.Meta().Kind != KindQuadtree || qt.Meta().TilingLevel != 6 {
		t.Errorf("quadtree meta = %+v", qt.Meta())
	}
	rows := r.MetadataRows()
	if len(rows) != 2 {
		t.Fatalf("catalogue has %d rows", len(rows))
	}
	byName := map[string]Metadata{}
	for _, m := range rows {
		byName[m.IndexName] = m
	}
	m := byName["counties_rt"]
	if m.TableName != "counties" || m.ColumnName != "geom" || m.Kind != KindRTree ||
		m.Dimensions != 2 || m.RowsIndexed != 49 {
		t.Errorf("rtree metadata row = %+v", m)
	}
	m = byName["counties_qt"]
	if m.TilingLevel != 6 || m.Bounds != ds.Bounds {
		t.Errorf("quadtree metadata row = %+v", m)
	}
	// Lookup works.
	if got, err := r.Lookup("counties_rt"); err != nil || got != rt {
		t.Errorf("Lookup: %v, %v", got, err)
	}
	if _, err := r.Lookup("nope"); !errors.Is(err, ErrNoIndex) {
		t.Errorf("missing lookup: %v", err)
	}
}

func TestCreateIndexErrors(t *testing.T) {
	r := newRegistry()
	tab, ds := loadCounties(t, 9)
	if _, err := r.CreateIndex("x", IndexKind("BOGUS"), tab, "geom", Params{}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown kind: %v", err)
	}
	if _, err := r.CreateIndex("x", KindRTree, tab, "name", Params{}); err == nil {
		t.Errorf("non-geometry column: want error")
	}
	if _, err := r.CreateIndex("x", KindRTree, tab, "missing", Params{}); err == nil {
		t.Errorf("missing column: want error")
	}
	if _, err := r.CreateIndex("dup", KindRTree, tab, "geom", Params{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateIndex("dup", KindRTree, tab, "geom", Params{}); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate name: %v", err)
	}
	// Quadtree without bounds/level fails.
	if _, err := r.CreateIndex("q", KindQuadtree, tab, "geom", Params{}); err == nil {
		t.Errorf("quadtree without params: want error")
	}
	// An interior effort past the cap is refused before any work is done.
	if _, err := r.CreateIndex("e", KindRTree, tab, "geom", Params{InteriorEffort: maxInteriorEffort + 1}); err == nil {
		t.Errorf("interior effort %d: want error", maxInteriorEffort+1)
	}
	_ = ds
}

func TestOperatorsMatchBruteForce(t *testing.T) {
	r := newRegistry()
	tab, ds := loadCounties(t, 64)
	rt, err := r.CreateIndex("rt", KindRTree, tab, "geom", Params{})
	if err != nil {
		t.Fatal(err)
	}
	qt, err := r.CreateIndex("qt", KindQuadtree, tab, "geom",
		Params{TilingLevel: 6, Bounds: ds.Bounds})
	if err != nil {
		t.Fatal(err)
	}
	q, err := geom.NewRect(200, 200, 420, 380)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force expected sets.
	wantRelate := map[storage.RowID]bool{}
	wantDist := map[storage.RowID]bool{}
	const dist = 25.0
	colIdx, _ := tab.ColumnIndex("geom")
	tab.Scan(func(id storage.RowID, row storage.Row) bool {
		if geom.Intersects(row[colIdx].G, q) {
			wantRelate[id] = true
		}
		if geom.WithinDistance(row[colIdx].G, q, dist) {
			wantDist[id] = true
		}
		return true
	})
	for name, idx := range map[string]SpatialIndex{"rtree": rt, "quadtree": qt} {
		got, err := Relate(idx, tab, "geom", q, geom.MaskAnyInteract)
		if err != nil {
			t.Fatalf("%s Relate: %v", name, err)
		}
		if len(got) != len(wantRelate) {
			t.Fatalf("%s Relate: %d rows, want %d", name, len(got), len(wantRelate))
		}
		for _, id := range got {
			if !wantRelate[id] {
				t.Fatalf("%s Relate returned wrong row %v", name, id)
			}
		}
		gotD, err := WithinDistance(idx, tab, "geom", q, dist)
		if err != nil {
			t.Fatalf("%s WithinDistance: %v", name, err)
		}
		if len(gotD) != len(wantDist) {
			t.Fatalf("%s WithinDistance: %d rows, want %d", name, len(gotD), len(wantDist))
		}
	}
	// Operator input validation.
	if _, err := WithinDistance(rt, tab, "geom", q, -1); err == nil {
		t.Errorf("negative distance: want error")
	}
	if _, err := Relate(rt, tab, "missing", q, geom.MaskAnyInteract); err == nil {
		t.Errorf("bad column: want error")
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	r := newRegistry()
	tab, ds := loadCounties(t, 100)
	rt, err := r.CreateIndex("rt", KindRTree, tab, "geom", Params{})
	if err != nil {
		t.Fatal(err)
	}
	q := geom.NewPoint(333, 444)
	col, _ := tab.ColumnIndex("geom")
	// Brute-force exact distances.
	type cand struct {
		id storage.RowID
		d  float64
	}
	var all []cand
	tab.Scan(func(id storage.RowID, row storage.Row) bool {
		all = append(all, cand{id, geom.Distance(row[col].G, q)})
		return true
	})
	for _, k := range []int{1, 3, 10, 200} {
		got, err := Nearest(rt, tab, "geom", q, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := k
		if want > len(all) {
			want = len(all)
		}
		if len(got) != want {
			t.Fatalf("k=%d: got %d neighbours", k, len(got))
		}
		// Distances must be the k smallest, in order.
		ds := make([]float64, len(all))
		for i, c := range all {
			ds[i] = c.d
		}
		sortFloats(ds)
		for i, nb := range got {
			if i > 0 && got[i-1].Dist > nb.Dist {
				t.Fatalf("k=%d: results out of order", k)
			}
			if diff := nb.Dist - ds[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("k=%d: result %d at distance %g, want %g", k, i, nb.Dist, ds[i])
			}
		}
	}
	// k <= 0 yields nothing; quadtree indexes refuse.
	if got, err := Nearest(rt, tab, "geom", q, 0); err != nil || got != nil {
		t.Errorf("k=0: %v, %v", got, err)
	}
	qt, err := r.CreateIndex("qt", KindQuadtree, tab, "geom", Params{TilingLevel: 6, Bounds: ds2Bounds(ds)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Nearest(qt, tab, "geom", q, 3); err == nil {
		t.Errorf("quadtree Nearest: want error")
	}
}

func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

func ds2Bounds(ds datagen.Dataset) geom.MBR { return ds.Bounds }

func TestDMLMaintainsIndexes(t *testing.T) {
	r := newRegistry()
	tab, ds := loadCounties(t, 25)
	rt, err := r.CreateIndex("rt", KindRTree, tab, "geom", Params{})
	if err != nil {
		t.Fatal(err)
	}
	qt, err := r.CreateIndex("qt", KindQuadtree, tab, "geom",
		Params{TilingLevel: 6, Bounds: ds.Bounds})
	if err != nil {
		t.Fatal(err)
	}
	// Insert a new row after index creation: both indexes must see it.
	newGeom, err := geom.NewRect(500.5, 500.5, 501.5, 501.5)
	if err != nil {
		t.Fatal(err)
	}
	id, err := tab.Insert(storage.Row{storage.Int(999), storage.Str("late"), storage.Geom(newGeom)})
	if err != nil {
		t.Fatal(err)
	}
	probe := geom.MBROf(newGeom)
	found := func(idx SpatialIndex) bool {
		for _, got := range idx.WindowCandidates(probe) {
			if got == id {
				return true
			}
		}
		return false
	}
	if !found(rt) {
		t.Errorf("rtree missed DML insert")
	}
	if !found(qt) {
		t.Errorf("quadtree missed DML insert")
	}
	// Delete the row: both must forget it.
	if err := tab.Delete(id); err != nil {
		t.Fatal(err)
	}
	if found(rt) {
		t.Errorf("rtree kept deleted row")
	}
	if found(qt) {
		t.Errorf("quadtree kept deleted row")
	}
}

func TestRtreeIndexExposesTree(t *testing.T) {
	r := newRegistry()
	tab, _ := loadCounties(t, 16)
	idx, err := r.CreateIndex("rt", KindRTree, tab, "geom", Params{})
	if err != nil {
		t.Fatal(err)
	}
	rx, ok := idx.(interface{ Tree() interface{ Len() int } })
	_ = rx
	_ = ok
	// Concrete accessor used by the join layer.
	concrete, ok := idx.(*rtreeIndex)
	if !ok {
		t.Fatalf("RTREE index has unexpected type %T", idx)
	}
	if concrete.Tree().Len() != tab.Len() {
		t.Errorf("tree has %d items, table %d rows", concrete.Tree().Len(), tab.Len())
	}
}
