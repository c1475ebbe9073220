package sqlmini

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"spatialtf"
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

// Window statements. A window — sdo_relate or sdo_within_distance in a
// WHERE clause — is read as a join of the in-memory query geometry
// against the table: one index pass, each candidate settled by the
// join's route table, and each result row fetched once. These tests
// hold it to an index-free oracle: every row of the table, its exact
// predicate evaluated on the stored geometry.

// windowWorld bounds every geometry of windowRows, with room to spare:
// the quadtree's grid and the 3-stripe scopes lie over it.
var windowWorld = spatialtf.MBR{MinX: -10, MinY: -10, MaxX: 110, MaxY: 110}

// windowQueries are the query geometries of the matrix: a point, a
// line, a polygon and a polygon with a hole. Each is stored as a row
// too, so EQUAL has something to find.
var windowQueries = []struct{ name, wkt string }{
	{"point", "POINT (30 30)"},
	{"line", "LINESTRING (5 5, 60 40, 90 10)"},
	{"polygon", "POLYGON ((20 20, 70 20, 70 60, 20 60, 20 20))"},
	{"polygon with hole", "POLYGON ((10 10, 90 10, 90 90, 10 90, 10 10), (40 40, 60 40, 60 60, 40 60, 40 40))"},
}

// windowPredicates are the WHERE clauses of the matrix: every relate
// mask and a within-distance, as format strings over the query WKT.
func windowPredicates() []struct{ name, where string } {
	var out []struct{ name, where string }
	for _, m := range []string{"anyinteract", "inside", "contains", "touch", "covers", "coveredby", "equal", "overlap"} {
		out = append(out, struct{ name, where string }{m, "sdo_relate(geom, '%s', 'mask=" + m + "') = 'TRUE'"})
	}
	return append(out, struct{ name, where string }{"distance=4", "sdo_within_distance(geom, '%s', 'distance=4') = 'TRUE'"})
}

// windowRows returns the WKT of a mixed table: a point lattice (some on
// the queries' edges and corners), small squares, short lines, polygons
// with holes, and the queries themselves.
func windowRows() []string {
	rng := rand.New(rand.NewSource(7))
	var out []string
	for x := 0; x <= 100; x += 5 {
		for y := 0; y <= 100; y += 5 {
			out = append(out, fmt.Sprintf("POINT (%d %d)", x, y))
		}
	}
	for range 60 {
		x, y := rng.Intn(95), rng.Intn(95)
		s := 1 + rng.Intn(4)
		out = append(out, fmt.Sprintf("POLYGON ((%d %d, %d %d, %d %d, %d %d, %d %d))", x, y, x+s, y, x+s, y+s, x, y+s, x, y))
	}
	for range 40 {
		x, y := rng.Intn(95), rng.Intn(95)
		out = append(out, fmt.Sprintf("LINESTRING (%d %d, %d %d)", x, y, x+rng.Intn(10), y+rng.Intn(10)))
	}
	for i := range 10 {
		x, y := 8*i, 90-8*i
		out = append(out, fmt.Sprintf("POLYGON ((%d %d, %d %d, %d %d, %d %d, %d %d), (%d %d, %d %d, %d %d, %d %d, %d %d))",
			x, y-10, x+10, y-10, x+10, y, x, y, x, y-10,
			x+3, y-7, x+7, y-7, x+7, y-3, x+3, y-3, x+3, y-7))
	}
	for _, q := range windowQueries {
		out = append(out, q.wkt)
	}
	return out
}

// windowEngine loads windowRows into two tables, one behind an R-tree
// and one behind a quadtree, and returns the engine and the rows by id.
func windowEngine(t *testing.T) (*Engine, []string) {
	t.Helper()
	e := NewEngine()
	rows := windowRows()
	for _, tab := range []string{"wr", "wq"} {
		exec(t, e, "CREATE TABLE "+tab+" (id INT, name VARCHAR, geom GEOMETRY)")
		for i, wkt := range rows {
			exec(t, e, fmt.Sprintf("INSERT INTO %s VALUES (%d, 'row-%d', '%s')", tab, i, i, wkt))
		}
	}
	if _, err := e.DB().CreateIndexOn("wr_idx", "wr", "geom", spatialtf.RTree, spatialtf.IndexOptions{Fanout: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DB().CreateIndexOn("wq_idx", "wq", "geom", spatialtf.Quadtree, spatialtf.IndexOptions{Bounds: windowWorld, TilingLevel: 5}); err != nil {
		t.Fatal(err)
	}
	return e, rows
}

// windowOracle evaluates a window predicate on a stored geometry, as
// the operators define it: the row's geometry against the query.
func windowOracle(t *testing.T, where string, g, q geom.Geometry) bool {
	t.Helper()
	if d, ok := strings.CutPrefix(where, "sdo_within_distance"); ok {
		var dist float64
		if _, err := fmt.Sscanf(d[strings.Index(d, "distance=")+len("distance="):], "%g", &dist); err != nil {
			t.Fatal(err)
		}
		return geom.WithinDistance(g, q, dist)
	}
	i := strings.Index(where, "mask=") + len("mask=")
	m, err := geom.ParseMask(where[i : i+strings.IndexByte(where[i:], '\'')])
	if err != nil {
		t.Fatal(err)
	}
	return geom.Relate(g, q, m)
}

// windowDistance is the search distance of a predicate (0 for relate).
func windowDistance(where string) float64 {
	if strings.HasPrefix(where, "sdo_within_distance") {
		return 4
	}
	return 0
}

// stripeScopes returns the three shards of a 3-stripe cluster over
// windowWorld.
func stripeScopes() []*spatialtf.ClusterScope {
	var out []*spatialtf.ClusterScope
	for k := range 3 {
		out = append(out, spatialtf.NewClusterScope(windowWorld, 3, 1, 3, k))
	}
	return out
}

// TestWindowEqualsExactScan is the window's differential: {each relate
// mask, within-distance} × {point, line, polygon, polygon-with-hole
// query} × {SELECT id, SELECT *, count(*)} × {unscoped, each stripe of
// a 3-stripe scope} × {R-tree, quadtree} must return what an index-free
// scan returns, the rows whose stored geometry satisfies the exact
// predicate — under a scope, those of them whose reference point the
// shard owns.
func TestWindowEqualsExactScan(t *testing.T) {
	e, rows := windowEngine(t)
	geoms := make([]geom.Geometry, len(rows))
	for i, wkt := range rows {
		var err error
		if geoms[i], err = geom.ParseWKT(wkt); err != nil {
			t.Fatal(err)
		}
	}
	scopes := append([]*spatialtf.ClusterScope{nil}, stripeScopes()...)
	hits := map[string]int{}
	for _, q := range windowQueries {
		qg, err := geom.ParseWKT(q.wkt)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range windowPredicates() {
			where := fmt.Sprintf(p.where, q.wkt)
			d := windowDistance(where)
			for k, scope := range scopes {
				var wantIDs, wantStar []string
				for i, g := range geoms {
					if !windowOracle(t, where, g, qg) {
						continue
					}
					if scope != nil && !scope.OwnsWindow(geom.MBROf(g), geom.MBROf(qg), d) {
						continue
					}
					wantIDs = append(wantIDs, fmt.Sprint(i))
					wantStar = append(wantStar, fmt.Sprintf("%d|row-%d|%s", i, i, geom.MarshalWKT(g)))
				}
				hits[p.name] += len(wantIDs)
				slices.Sort(wantIDs)
				slices.Sort(wantStar)
				for _, tab := range []string{"wr", "wq"} {
					name := fmt.Sprintf("%s/%s/%s/unscoped", tab, q.name, p.name)
					if scope != nil {
						name = fmt.Sprintf("%s/%s/%s/stripe=%d", tab, q.name, p.name, k-1)
					}
					t.Run(name, func(t *testing.T) {
						for _, c := range []struct {
							sel  string
							want []string
						}{
							{"id", wantIDs},
							{"*", wantStar},
							{"count(*)", []string{fmt.Sprint(len(wantIDs))}},
						} {
							sql := fmt.Sprintf("SELECT %s FROM %s WHERE %s", c.sel, tab, where)
							_, got := drainStream(t, e, sql, scope)
							slices.Sort(got)
							if !slices.Equal(got, c.want) {
								t.Fatalf("%s: %d rows %v, the exact scan %d rows %v", sql, len(got), got, len(c.want), c.want)
							}
						}
					})
				}
			}
		}
	}
	for _, p := range windowPredicates() {
		if hits[p.name] == 0 {
			t.Errorf("%s selected no row of any query: its leg tests nothing", p.name)
		}
	}
}

// TestScopedWindowReadsFirstGeometryColumn pins which geometry a scoped
// window's owner test reads on a table with two geometry columns: the
// schema's first, not the one the predicate names. The cluster places a
// row by its first geometry column (the coordinator routes an INSERT by
// it), so the first column's MBR is the one every replica holds. The
// predicate here names the second column, whose rows lie in another
// stripe than their first column's.
func TestScopedWindowReadsFirstGeometryColumn(t *testing.T) {
	world := spatialtf.MBR{MinX: 0, MinY: 0, MaxX: 300, MaxY: 100}
	type row struct{ g1, g2 geom.Geometry }
	var rows []row
	for i := range 60 {
		x, y := float64(i%10)*9, float64(i/10)*15
		g1, _ := geom.NewRect(x+200, y, x+204, y+4)
		rows = append(rows, row{g1, geom.NewPoint(x+2, y+2)})
	}
	const q = "POLYGON ((0 0, 60 0, 60 60, 0 60, 0 0))"
	qg, _ := geom.ParseWKT(q)
	// One engine per index kind: on one table the R-tree would be
	// preferred.
	for _, kind := range []spatialtf.IndexKind{spatialtf.RTree, spatialtf.Quadtree} {
		e := NewEngine()
		exec(t, e, "CREATE TABLE two (id INT, g1 GEOMETRY, g2 GEOMETRY)")
		for i, r := range rows {
			exec(t, e, fmt.Sprintf("INSERT INTO two VALUES (%d, '%s', '%s')", i, geom.MarshalWKT(r.g1), geom.MarshalWKT(r.g2)))
		}
		if _, err := e.DB().CreateIndexOn("two_idx", "two", "g2", kind, spatialtf.IndexOptions{Bounds: world, TilingLevel: 5}); err != nil {
			t.Fatal(err)
		}
		for _, where := range []string{
			"sdo_relate(g2, '" + q + "', 'mask=anyinteract') = 'TRUE'",
			"sdo_within_distance(g2, '" + q + "', 'distance=4') = 'TRUE'",
		} {
			d := windowDistance(where)
			var union []string
			for k := range 3 {
				scope := spatialtf.NewClusterScope(world, 3, 1, 3, k)
				var want []string
				for i, r := range rows {
					in := geom.Intersects(r.g2, qg)
					if d > 0 {
						in = geom.WithinDistance(r.g2, qg, d)
					}
					if in && scope.OwnsWindow(geom.MBROf(r.g1), geom.MBROf(qg), d) {
						want = append(want, fmt.Sprint(i))
					}
				}
				_, got := drainStream(t, e, "SELECT id FROM two WHERE "+where, scope)
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("%s, shard %d, %v: %v, the first-column owner test keeps %v", kind, k, where, got, want)
				}
				union = append(union, got...)
			}
			_, all := drainStream(t, e, "SELECT id FROM two WHERE "+where, nil)
			slices.Sort(union)
			slices.Sort(all)
			if !slices.Equal(union, all) || len(all) == 0 {
				t.Fatalf("%s, %v: the shards return %v together, the unscoped window %v", kind, where, union, all)
			}
		}
	}
}

// TestWindowBesideDeleter runs window statements — SELECT id, SELECT *
// and count(*), unscoped and scoped, through an R-tree and a quadtree —
// while another goroutine deletes rows. Each statement must succeed;
// every row it returns must be a row of the table before the deletes
// that satisfies the predicate, and no such row that was never deleted
// may be missing. A count lies between the two.
func TestWindowBesideDeleter(t *testing.T) {
	e, rows := windowEngine(t)
	const q = "POLYGON ((20 20, 70 20, 70 60, 20 60, 20 20))"
	qg, _ := geom.ParseWKT(q)
	where := []string{
		"sdo_relate(geom, '" + q + "', 'mask=anyinteract') = 'TRUE'",
		"sdo_relate(geom, '" + q + "', 'mask=inside') = 'TRUE'",
		"sdo_within_distance(geom, '" + q + "', 'distance=4') = 'TRUE'",
	}
	match := make([]map[string]bool, len(where))
	for k, w := range where {
		match[k] = map[string]bool{}
		for i, wkt := range rows {
			g, _ := geom.ParseWKT(wkt)
			if windowOracle(t, w, g, qg) {
				match[k][fmt.Sprint(i)] = true
			}
		}
	}
	// The deleter takes every third row of each table, by rowid.
	victims := map[string][]storage.RowID{}
	var mu sync.Mutex
	deleted := map[string]map[string]bool{"wr": {}, "wq": {}}
	for _, name := range []string{"wr", "wq"} {
		tab, err := e.DB().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Scan(func(id storage.RowID, row storage.Row) bool {
			if row[0].I%3 == 0 {
				victims[name] = append(victims[name], id)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The ids a victim row carries are read back before it goes, so a
	// finished statement can tell which of its rows may be missing.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			progressed := false
			for _, name := range []string{"wr", "wq"} {
				if n >= len(victims[name]) {
					continue
				}
				progressed = true
				tab, _ := e.DB().Table(name)
				row, err := tab.Fetch(victims[name][n])
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				deleted[name][fmt.Sprint(row[0].I)] = true
				mu.Unlock()
				if err := tab.Delete(victims[name][n]); err != nil {
					t.Error(err)
					return
				}
			}
			if !progressed {
				return
			}
		}
	}()
	scopes := append([]*spatialtf.ClusterScope{nil}, stripeScopes()...)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	statements := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for _, tab := range []string{"wr", "wq"} {
			for k, w := range where {
				for _, scope := range scopes {
					// Per-shard results are subsets of the unscoped one,
					// so the bounds below hold shard by shard only for
					// returned rows; missing rows are checked unscoped.
					for _, sel := range []string{"id", "*", "count(*)"} {
						sql := fmt.Sprintf("SELECT %s FROM %s WHERE %s", sel, tab, w)
						st, err := e.ExecuteStreamScoped(sql, scope)
						if err != nil {
							t.Fatalf("%s beside a deleter: %v", sql, err)
						}
						var got []string
						if st.Result != nil {
							got = []string{fmt.Sprint(st.Result.Count)}
						} else if got, err = drainIDs(st.Cursor); err != nil {
							t.Fatalf("%s beside a deleter: %v", sql, err)
						}
						statements++
						mu.Lock()
						gone := deleted[tab]
						var kept int
						for id := range match[k] {
							if !gone[id] {
								kept++
							}
						}
						if sel == "count(*)" {
							var n int
							fmt.Sscan(got[0], &n)
							if n > len(match[k]) || scope == nil && n < kept {
								mu.Unlock()
								t.Fatalf("%s: count %d outside [%d, %d]", sql, n, kept, len(match[k]))
							}
							mu.Unlock()
							continue
						}
						seen := map[string]bool{}
						for _, id := range got {
							if !match[k][id] {
								mu.Unlock()
								t.Fatalf("%s returned row %s, which does not satisfy the predicate", sql, id)
							}
							seen[id] = true
						}
						if scope == nil {
							for id := range match[k] {
								if !gone[id] && !seen[id] {
									mu.Unlock()
									t.Fatalf("%s missed row %s, never deleted", sql, id)
								}
							}
						}
						mu.Unlock()
					}
				}
			}
		}
	}
	if statements == 0 || len(deleted["wr"]) == 0 {
		t.Fatalf("%d statements beside %d deletes: the test tests nothing", statements, len(deleted["wr"]))
	}
}

// drainIDs drains a window cursor and returns the first cell of every
// row, which is the id under both projections the deleter test runs.
func drainIDs(cur storage.Cursor) ([]string, error) {
	defer cur.Close()
	var ids []string
	var b storage.Batch
	for {
		b.Reset()
		if err := cur.NextBatch(&b, 16); err != nil {
			return ids, err
		}
		if len(b.Rows) == 0 {
			return ids, cur.Close()
		}
		for _, row := range b.Rows {
			ids = append(ids, row[0].String())
		}
	}
}

// TestIndexChoiceIsDeterministic pins which index a statement reads a
// column through when there are several, now that the choice is made
// from the registry's map rather than a scan of the metadata table: an
// R-tree, whether created before or after a quadtree (of two R-trees,
// the later, as the scan's rule gave), else the first index created.
// Map iteration order is random, so each case resolves 100 times.
func TestIndexChoiceIsDeterministic(t *testing.T) {
	quad := spatialtf.IndexOptions{Bounds: windowWorld, TilingLevel: 4}
	for _, c := range []struct {
		name  string
		kinds []spatialtf.IndexKind
		want  string
	}{
		{"rtree then quadtree", []spatialtf.IndexKind{spatialtf.RTree, spatialtf.Quadtree}, "i0"},
		{"quadtree then rtree", []spatialtf.IndexKind{spatialtf.Quadtree, spatialtf.RTree}, "i1"},
		{"two quadtrees", []spatialtf.IndexKind{spatialtf.Quadtree, spatialtf.Quadtree}, "i0"},
		{"two rtrees", []spatialtf.IndexKind{spatialtf.RTree, spatialtf.RTree}, "i1"},
	} {
		e := NewEngine()
		exec(t, e, "CREATE TABLE t (id INT, geom GEOMETRY)")
		exec(t, e, "INSERT INTO t VALUES (1, 'POINT (5 5)')")
		for i, kind := range c.kinds {
			if _, err := e.DB().CreateIndexOn(fmt.Sprintf("i%d", i), "t", "geom", kind, quad); err != nil {
				t.Fatal(err)
			}
		}
		for range 100 {
			ix, err := e.indexFor("t", "geom", "")
			if err != nil {
				t.Fatal(err)
			}
			if ix.Name() != c.want {
				t.Fatalf("%s: statement reads through %s, want %s", c.name, ix.Name(), c.want)
			}
		}
		if got := exec(t, e, "SELECT count(*) FROM t WHERE sdo_relate(geom, 'POINT (5 5)', 'mask=anyinteract') = 'TRUE'"); got.Count != 1 {
			t.Fatalf("%s: count %d through %s, want 1", c.name, got.Count, c.want)
		}
	}
}
