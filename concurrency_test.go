package spatialtf

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

// TestAddNeverReusesIDs is the regression test for the id-collision
// bug: Add used to derive the id column from Len(), so after a Delete
// the next Add reused a live row's id. The sequence must be strictly
// monotonic across deletes.
func TestAddNeverReusesIDs(t *testing.T) {
	db := Open()
	tab, err := db.CreateSpatialTable("t")
	if err != nil {
		t.Fatal(err)
	}
	var rids []RowID
	for i := 0; i < 4; i++ {
		rid, err := tab.Add(fmt.Sprintf("row%d", i), MustRect(float64(i), 0, float64(i)+1, 1))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// Delete a middle row; Len() drops to 3, so the buggy Add would hand
	// out id 3 again — colliding with row3's id.
	if err := tab.Delete(rids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Add("after-delete", MustRect(50, 50, 51, 51)); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]string{}
	if err := tab.Scan(func(_ RowID, row Row) bool {
		if prev, dup := seen[row[0].I]; dup {
			t.Errorf("id %d assigned to both %q and %q", row[0].I, prev, row[1].S)
		}
		seen[row[0].I] = row[1].S
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen[4] != "after-delete" {
		t.Errorf("post-delete Add got id %v, want 4 (ids seen: %v)", seen, seen)
	}
}

// TestAddSeedsFromExistingRows: on a table filled by LoadDataset (or a
// restored snapshot), the Add sequence starts past the largest stored
// id instead of colliding with it.
func TestAddSeedsFromExistingRows(t *testing.T) {
	db := Open()
	if _, err := db.LoadDataset("c", Counties(10, 301)); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Table("c")
	if err != nil {
		t.Fatal(err)
	}
	maxID := int64(-1)
	tab.Scan(func(_ RowID, row Row) bool {
		if row[0].I > maxID {
			maxID = row[0].I
		}
		return true
	})
	rid, err := tab.Add("added", MustRect(1, 1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	row, err := tab.Fetch(rid)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != maxID+1 {
		t.Fatalf("Add on loaded table got id %d, want %d", row[0].I, maxID+1)
	}
}

// relateNames runs a window query and returns the sorted matching
// names, so result comparisons are stable across rowid assignment.
func relateNames(t *testing.T, db *DB, table, index string, window Geometry) []string {
	t.Helper()
	tab, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := db.Relate(table, index, window, "anyinteract")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(hits))
	for _, id := range hits {
		row, err := tab.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, row[1].S)
	}
	sort.Strings(names)
	return names
}

// joinNamePairs collects a self-join as sorted name pairs.
func joinNamePairs(t *testing.T, db *DB, table, index string) []string {
	t.Helper()
	tab, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := db.SpatialJoin(table, index, table, index, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := cur.Collect()
	if err != nil {
		t.Fatal(err)
	}
	name := func(id RowID) string {
		row, err := tab.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		return row[1].S
	}
	out := make([]string, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, name(p.A)+"|"+name(p.B))
	}
	sort.Strings(out)
	return out
}

// TestSnapshotRoundTripWithDeletes saves and restores a database with
// an R-tree, a quadtree, and deleted rows, and asserts query RESULTS
// (by name, not rowid) are identical before and after.
func TestSnapshotRoundTripWithDeletes(t *testing.T) {
	db := Open()
	if _, err := db.LoadDataset("counties", Counties(80, 811)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("c_rt", "counties", RTree, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("c_qt", "counties", Quadtree,
		IndexOptions{TilingLevel: 6, Bounds: World}); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Table("counties")
	if err != nil {
		t.Fatal(err)
	}
	// Delete every fifth row through both live indexes.
	var victims []RowID
	i := 0
	tab.Scan(func(id RowID, _ Row) bool {
		if i%5 == 0 {
			victims = append(victims, id)
		}
		i++
		return true
	})
	for _, id := range victims {
		if err := tab.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	windows := []Geometry{
		MustRect(0, 0, 500, 500),
		MustRect(300, 300, 700, 700),
		MustRect(0, 0, 1000, 1000),
	}
	for _, idx := range []string{"c_rt", "c_qt"} {
		for wi, w := range windows {
			orig := relateNames(t, db, "counties", idx, w)
			got := relateNames(t, restored, "counties", idx, w)
			if len(orig) == 0 {
				t.Fatalf("%s window %d matched nothing; test is vacuous", idx, wi)
			}
			if !equalStrings(orig, got) {
				t.Errorf("%s window %d: restored results differ\norig: %v\ngot:  %v", idx, wi, orig, got)
			}
		}
	}
	origJoin := joinNamePairs(t, db, "counties", "c_rt")
	gotJoin := joinNamePairs(t, restored, "counties", "c_rt")
	if len(origJoin) == 0 || !equalStrings(origJoin, gotJoin) {
		t.Errorf("restored join differs: %d pairs vs %d", len(origJoin), len(gotJoin))
	}
	// Deleted rows stayed deleted.
	rtab, _ := restored.Table("counties")
	if rtab.Len() != tab.Len() {
		t.Errorf("restored row count %d, want %d", rtab.Len(), tab.Len())
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentReadersWithWriter hammers Relate and SpatialJoin from
// several goroutines while another goroutine inserts rows, under -race.
// Join cursors pin their operand R-trees, so every cursor drains a
// consistent tree while the writer waits its turn.
func TestConcurrentReadersWithWriter(t *testing.T) {
	db := Open()
	if _, err := db.LoadDataset("counties", Counties(48, 907)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("counties_idx", "counties", RTree, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Table("counties")
	if err != nil {
		t.Fatal(err)
	}
	const readers = 6
	const rounds = 8
	var readerWg, writerWg sync.WaitGroup
	stop := make(chan struct{})
	writerWg.Add(1)
	go func() { // writer
		defer writerWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			o := float64(i % 800)
			if _, err := tab.Add(fmt.Sprintf("w%d", i), MustRect(o, o, o+10, o+10)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		readerWg.Add(1)
		go func(r int) {
			defer readerWg.Done()
			for round := 0; round < rounds; round++ {
				if r%2 == 0 {
					hits, err := db.Relate("counties", "counties_idx",
						MustRect(0, 0, 1000, 1000), "anyinteract")
					if err != nil {
						t.Errorf("reader %d relate: %v", r, err)
						return
					}
					if len(hits) < 48 {
						t.Errorf("reader %d: %d hits, want >= initial 48", r, len(hits))
						return
					}
				} else {
					cur, err := db.SpatialJoin("counties", "counties_idx",
						"counties", "counties_idx", JoinOptions{})
					if err != nil {
						t.Errorf("reader %d join: %v", r, err)
						return
					}
					n := 0
					for {
						_, ok, err := cur.Next()
						if err != nil {
							t.Errorf("reader %d join next: %v", r, err)
							cur.Close()
							return
						}
						if !ok {
							break
						}
						n++
					}
					cur.Close()
					if n < 48 {
						t.Errorf("reader %d: self-join streamed %d pairs, want >= row count", r, n)
						return
					}
				}
			}
		}(r)
	}
	// The writer keeps inserting for the readers' whole lifetime.
	readerWg.Wait()
	close(stop)
	writerWg.Wait()
}

// TestConcurrentDeleteJoin pins the join's isolation contract, read
// committed per fetch, on both of its routes. Rows are deleted while a
// join cursor is open: Table.Delete takes the heap row out at once and
// then waits in the R-tree hook for the cursor's pin, so the join still
// meets the index entries of rows that are gone. The fetched route
// (polygons, cache disabled) drops such a candidate; the index-decided
// route (points) returns the pair from the index entry it already has,
// and so does a candidate decided by its box (stars × counties, stars
// deleted): a star whose leaf MBR lies inside its county is never
// fetched (sjoin's TestBoxDecidedPairOfDeletedRow pins which pairs
// that returns). Either way the statement succeeds, returns only pairs
// of rows live when it started, and misses no pair of rows that were
// never deleted. A self-join under a symmetric predicate decides each
// unordered pair once, on one fetch of each row, so it returns a pair
// in both orientations or in neither.
func TestConcurrentDeleteJoin(t *testing.T) {
	polygons := Stars(1500, 5)
	points := Stars(1500, 5)
	for i, g := range points.Geoms {
		c := geom.MBROf(g).Center()
		points.Geoms[i] = geom.NewPoint(c.X, c.Y)
	}
	counties := Counties(100, 5)
	cases := []struct {
		name string
		ds   Dataset
		// other, when set, is the second side: the join is t × u and
		// only t's rows are deleted; otherwise it is a self-join of t.
		other *Dataset
		opt   JoinOptions
		// mirrored: a self-join under a symmetric predicate, which
		// decides each unordered pair once, so a pair comes back in both
		// orientations or in neither.
		mirrored bool
	}{
		{"polygons fetched", polygons, nil, JoinOptions{GeomCacheBytes: -1, CandidateCap: 8}, true},
		{"points index-decided", points, nil, JoinOptions{Distance: 1.5, GeomCacheBytes: -1, CandidateCap: 8}, true},
		{"box-decided", polygons, &counties, JoinOptions{GeomCacheBytes: -1, CandidateCap: 8}, false},
		{"mirrored d=7", counties, nil, JoinOptions{Distance: 7, GeomCacheBytes: -1, CandidateCap: 8}, true},
	}
	for _, c := range cases {
		for _, algo := range []string{"", "grid"} {
			t.Run(fmt.Sprintf("%s/algo=%q", c.name, algo), func(t *testing.T) {
				opt := c.opt
				opt.Algo, opt.Parallel = algo, 2
				db := Open()
				if _, err := db.LoadDataset("t", c.ds); err != nil {
					t.Fatal(err)
				}
				if _, err := db.CreateIndex("t_idx", "t", RTree, IndexOptions{}); err != nil {
					t.Fatal(err)
				}
				b, bIdx := "t", "t_idx"
				if c.other != nil {
					b, bIdx = "u", "u_idx"
					if _, err := db.LoadDataset(b, *c.other); err != nil {
						t.Fatal(err)
					}
					if _, err := db.CreateIndex(bIdx, b, RTree, IndexOptions{}); err != nil {
						t.Fatal(err)
					}
				}
				tab, err := db.Table("t")
				if err != nil {
					t.Fatal(err)
				}
				want, err := db.NestedLoopJoin("t", "t_idx", b, bIdx, opt)
				if err != nil {
					t.Fatal(err)
				}
				deleted := map[RowID]bool{}
				// gone reports whether p has a side taken from t's deleted rows.
				gone := func(p Pair) bool { return deleted[p.A] || c.other == nil && deleted[p.B] }
				i := 0
				tab.Scan(func(id RowID, _ Row) bool {
					if i%5 == 0 {
						deleted[id] = true
					}
					i++
					return true
				})

				cur, err := db.SpatialJoin("t", "t_idx", b, bIdx, opt)
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				got, err := cur.NextBatch(nil, 1)
				if err != nil {
					t.Fatal(err)
				}
				var deleters sync.WaitGroup
				for id := range deleted {
					deleters.Add(1)
					go func() {
						defer deleters.Done()
						if err := tab.Delete(id); err != nil {
							t.Error(err)
						}
					}()
				}
				// Every heap row gone before the join goes on: the deleters
				// are then all waiting for the cursor's pin.
				deadline := time.Now().Add(10 * time.Second)
				for id := range deleted {
					for {
						if _, err := tab.Fetch(id); errors.Is(err, storage.ErrRowDeleted) {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("row %v still in the heap after 10s", id)
						}
						time.Sleep(time.Millisecond)
					}
				}
				for {
					n := len(got)
					if got, err = cur.NextBatch(got, 0); err != nil {
						t.Fatalf("join beside the deleter: %v", err)
					}
					if len(got) == n {
						break
					}
				}
				cur.Close()
				deleters.Wait()

				inStart := map[Pair]bool{}
				for _, p := range want {
					inStart[p] = true
				}
				seen := map[Pair]bool{}
				for _, p := range got {
					if !inStart[p] {
						t.Fatalf("pair %v is not in the statement-start result", p)
					}
					if seen[p] {
						t.Fatalf("pair %v returned twice", p)
					}
					seen[p] = true
				}
				for _, p := range want {
					if !gone(p) && !seen[p] {
						t.Fatalf("pair %v of two never-deleted rows is missing", p)
					}
				}
				if c.mirrored {
					for p := range seen {
						if !seen[Pair{A: p.B, B: p.A}] {
							t.Fatalf("pair %v came back without its mirror image", p)
						}
					}
				}
				if n := tab.Len(); n != len(c.ds.Geoms)-len(deleted) {
					t.Fatalf("%d rows after the deletes, want %d", n, len(c.ds.Geoms)-len(deleted))
				}
			})
		}
	}
}
