package sqlmini

import (
	"errors"
	"sync"
	"testing"
	"time"

	"spatialtf"
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

func streamEngine(t *testing.T) *Engine {
	t.Helper()
	return streamEngineOn(t, spatialtf.Open())
}

// streamEngineOn loads streamEngine's three cities into db.
func streamEngineOn(t *testing.T, db *spatialtf.DB) *Engine {
	t.Helper()
	eng := NewEngineOn(db)
	stmts := []string{
		"CREATE TABLE cities (id INT, name VARCHAR, geom GEOMETRY)",
		"INSERT INTO cities VALUES (1, 'springfield', 'POLYGON ((10 10, 14 10, 14 14, 10 14, 10 10))')",
		"INSERT INTO cities VALUES (2, 'shelbyville', 'POLYGON ((30 30, 34 30, 34 34, 30 34, 30 30))')",
		"INSERT INTO cities VALUES (3, 'ogdenville', 'POLYGON ((12 12, 16 12, 16 16, 12 16, 12 12))')",
		"CREATE INDEX cities_idx ON cities(geom) INDEXTYPE IS RTREE",
	}
	for _, s := range stmts {
		if _, err := eng.Execute(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	return eng
}

func drain(t *testing.T, cur storage.Cursor) []storage.Row {
	t.Helper()
	defer cur.Close()
	var rows []storage.Row
	for {
		_, row, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows
		}
		rows = append(rows, row)
	}
}

func TestExecuteStreamImmediate(t *testing.T) {
	eng := streamEngine(t)
	s, err := eng.ExecuteStream("INSERT INTO cities VALUES (4, 'capital', 'POINT (50 50)')")
	if err != nil {
		t.Fatal(err)
	}
	if s.Result == nil || s.Cursor != nil {
		t.Fatalf("INSERT should be immediate: %+v", s)
	}
	s, err = eng.ExecuteStream("SELECT count(*) FROM cities")
	if err != nil {
		t.Fatal(err)
	}
	if s.Result == nil || s.Result.Count != 4 {
		t.Fatalf("COUNT should be immediate with count 4: %+v", s.Result)
	}
}

func TestExecuteStreamTableScan(t *testing.T) {
	eng := streamEngine(t)
	s, err := eng.ExecuteStream("SELECT name FROM cities")
	if err != nil {
		t.Fatal(err)
	}
	if s.Cursor == nil || len(s.Schema) != 1 || s.Schema[0].Name != "name" || s.Schema[0].Type != storage.TString {
		t.Fatalf("scan stream = %+v", s)
	}
	rows := drain(t, s.Cursor)
	if len(rows) != 3 {
		t.Fatalf("scan streamed %d rows, want 3", len(rows))
	}
}

func TestExecuteStreamSpatialWhere(t *testing.T) {
	eng := streamEngine(t)
	s, err := eng.ExecuteStream("SELECT name FROM cities WHERE sdo_relate(geom, 'POINT (13 13)', 'mask=contains') = 'TRUE'")
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, s.Cursor)
	got := map[string]bool{}
	for _, r := range rows {
		got[r[0].S] = true
	}
	if len(got) != 2 || !got["springfield"] || !got["ogdenville"] {
		t.Fatalf("contains(13,13) streamed %v", got)
	}
}

func TestExecuteStreamJoin(t *testing.T) {
	eng := streamEngine(t)
	s, err := eng.ExecuteStream("SELECT rid1, rid2 FROM TABLE(spatial_join('cities','geom','cities','geom','anyinteract', 0))")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Schema) != 2 || s.Schema[0].Name != "rid1" || s.Schema[1].Name != "rid2" {
		t.Fatalf("join schema = %+v", s.Schema)
	}
	rows := drain(t, s.Cursor)
	// Streaming must agree with the materialised COUNT execution.
	res, err := eng.Execute("SELECT count(*) FROM TABLE(spatial_join('cities','geom','cities','geom','anyinteract', 0))")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != res.Count {
		t.Fatalf("streamed %d join rows, COUNT says %d", len(rows), res.Count)
	}
	if len(rows) < 3 {
		t.Fatalf("self-join of 3 rows streamed only %d pairs", len(rows))
	}
}

// TestKeyedJoinBesideDeleter runs a keyed spatial_join while rows are
// deleted under it. The key projection fetches the key column of every
// pair it returns, and a row deleted since the join met its index entry
// is skipped there: read committed per fetch, as at every other place a
// statement fetches a row it resolved earlier. The statement succeeds,
// every key pair it returns is a result pair of two rows live at some
// point during it, and no pair of two rows never deleted is missed.
// Point pairs are decided from the index, so the join itself returns
// the pairs of deleted rows and only the key fetch can notice.
func TestKeyedJoinBesideDeleter(t *testing.T) {
	eng := NewEngine()
	ds := spatialtf.Stars(600, 7)
	for i, g := range ds.Geoms {
		c := geom.MBROf(g).Center()
		ds.Geoms[i] = geom.NewPoint(c.X, c.Y)
	}
	tab, err := eng.DB().LoadDataset("pts", ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Execute("CREATE INDEX pts_idx ON pts(geom) INDEXTYPE IS RTREE"); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT key1, key2 FROM TABLE(spatial_join('pts','geom','pts','geom','distance=2','keys=id:id'))"
	keyPairs := func(rows []storage.Row) [][2]string {
		out := make([][2]string, len(rows))
		for i, r := range rows {
			out[i] = [2]string{r[0].S, r[1].S}
		}
		return out
	}
	s, err := eng.ExecuteStream(sql)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]string]bool{}
	for _, p := range keyPairs(drain(t, s.Cursor)) {
		want[p] = true
	}
	deleted, gone := map[spatialtf.RowID]bool{}, map[string]bool{}
	i := 0
	if err := tab.Scan(func(id spatialtf.RowID, row spatialtf.Row) bool {
		if i%5 == 0 {
			deleted[id] = true
			gone[string(row[0].AppendString(nil))] = true
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}

	s, err = eng.ExecuteStream(sql)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cursor.Close()
	var b storage.Batch
	if err := s.Cursor.NextBatch(&b, 1); err != nil {
		t.Fatal(err)
	}
	got := keyPairs(b.Rows)
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
	// Every heap row gone before the join goes on: the deleters then
	// wait in the index hook for the open cursor's pin.
	deadline := time.Now().Add(10 * time.Second)
	for id := range deleted {
		for {
			if _, err := tab.Fetch(id); errors.Is(err, storage.ErrRowDeleted) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("row %v still live after 10s", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// A row at a time, so a batch whose one pair is skipped goes on to
	// the next pair instead of ending the statement.
	for {
		b.Reset()
		err := s.Cursor.NextBatch(&b, 1)
		got = append(got, keyPairs(b.Rows)...)
		if err != nil {
			t.Fatalf("keyed join beside a deleter: %v", err)
		}
		if len(b.Rows) == 0 {
			break
		}
	}
	if err := s.Cursor.Close(); err != nil {
		t.Fatal(err)
	}
	deleters.Wait()
	seen := map[[2]string]bool{}
	for _, p := range got {
		if !want[p] {
			t.Fatalf("returned %v, not a result pair of the table before the deletes", p)
		}
		seen[p] = true
	}
	for p := range want {
		if !gone[p[0]] && !gone[p[1]] && !seen[p] {
			t.Fatalf("missed %v, a pair of two rows never deleted", p)
		}
	}
	if len(seen) == len(want) {
		t.Fatalf("every one of the %d pairs returned: the deletes went unseen, the test tests nothing", len(want))
	}
}

func TestExecuteStreamErrors(t *testing.T) {
	eng := streamEngine(t)
	if _, err := eng.ExecuteStream("SELECT bogus FROM cities"); err == nil {
		t.Errorf("unknown column accepted")
	}
	if _, err := eng.ExecuteStream("SELECT nope FROM TABLE(spatial_join('cities','geom','cities','geom','anyinteract', 0))"); err == nil {
		t.Errorf("unknown join column accepted")
	}
	if _, err := eng.ExecuteStream("SELECT name FROM missing"); err == nil {
		t.Errorf("missing table accepted")
	}
}

// TestWindowSelectAllocFloor guards the per-statement allocation floor
// of a short window SELECT, the statement a lookup workload is made of:
// parse, index probe, and a cursor drained the way the server drains
// one (a batch of the statement's own, topped up until nothing is
// appended). The benchmark's 25 % bound is too wide to notice one
// closure or slab creeping into a 40-µs statement; this is not. Every
// budget is the exact count. Each window reads the catalogue from the
// registry's memory, settles its candidates by their index entries
// and fetches each row once: the three rows are small polygons inside
// the window's polygon, so the box route proves them and only their ids
// are read; the within-distance window refines them, testing each
// geometry from the fetch that reads its id. 41 allocations, where resolving the index through the metadata table,
// refining every candidate and fetching its row again cost 71 (79
// scoped, 65 within distance). The window over a durable database pins
// buffer-pool frames for its fetches; the scoped one adds the owner
// test's closure. The keyed join decodes each key cell from the pinned
// page (77, where copying the row image out first cost 97). The heap
// scan, now the only source of the projection and owner-filter stages,
// decodes a page's rows into one slab straight from the pinned page (32,
// 34 scoped, where copying each row image out and decoding it into a
// row of its own cost 33 and 35).
func TestWindowSelectAllocFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	mem := streamEngine(t)
	durable := streamEngineOn(t, openDurable(t))
	const (
		window = "SELECT id FROM cities WHERE sdo_relate(geom, 'POLYGON ((0 0, 50 0, 50 50, 0 50, 0 0))', 'mask=anyinteract') = 'TRUE'"
		near   = "SELECT id FROM cities WHERE sdo_within_distance(geom, 'POINT (22 22)', 'distance=12') = 'TRUE'"
		join   = "SELECT key1, key2 FROM TABLE(spatial_join('cities','geom','cities','geom','anyinteract','keys=id:id'))"
		scan   = "SELECT name, id FROM cities"
	)
	for _, c := range []struct {
		name   string
		eng    *Engine
		sql    string
		scope  *spatialtf.ClusterScope
		rows   int
		budget float64
	}{
		{"unscoped", mem, window, nil, 3, 41},
		// One shard owns every tile: the same three rows, through the owner route.
		{"scoped", mem, window, spatialtf.NewClusterScope(spatialtf.MBR{MaxX: 100, MaxY: 100}, 4, 4, 1, 0), 3, 42},
		// The same three rows through the index's within-distance search.
		{"within distance", mem, near, nil, 3, 41},
		// Every row fetch pins its heap page in the buffer pool.
		{"durable", durable, window, nil, 3, 41},
		// Each row pair projected through the join's keyed adapter.
		{"keyed join", mem, join, nil, 5, 75},
		// A heap scan's projection, reordering its columns, and its owner
		// filter under a scope.
		{"scan", mem, scan, nil, 3, 32},
		{"scoped scan", mem, scan, spatialtf.NewClusterScope(spatialtf.MBR{MaxX: 100, MaxY: 100}, 4, 4, 1, 0), 3, 34},
	} {
		got := testing.AllocsPerRun(200, func() {
			st, err := c.eng.ExecuteStreamScoped(c.sql, c.scope)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Cursor.Close()
			var b storage.Batch
			for n := -1; n < len(b.Rows); {
				n = len(b.Rows)
				if err := st.Cursor.NextBatch(&b, storage.DefaultBatch-n); err != nil {
					t.Fatal(err)
				}
			}
			if len(b.Rows) != c.rows {
				t.Fatalf("%s: %d rows, want %d", c.name, len(b.Rows), c.rows)
			}
		})
		t.Logf("%s: %.0f allocs per statement (budget %.0f)", c.name, got, c.budget)
		if got > c.budget {
			t.Errorf("%s: %.0f allocs per statement, budget %.0f", c.name, got, c.budget)
		}
	}
}

// openDurable opens a database on a fresh data directory, closed when
// the test ends. The WAL is not fsynced: the floors count allocations,
// not disk waits.
func openDurable(t *testing.T) *spatialtf.DB {
	t.Helper()
	db, err := spatialtf.OpenDir(t.TempDir(), spatialtf.DirOptions{Sync: spatialtf.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestDurableInsertAllocFloor holds an INSERT into an indexed table of
// a durable database to a per-statement budget: parse, row encode, the
// heap and R-tree writes, the pinned pages, and the WAL records the
// commit appends.
func TestDurableInsertAllocFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	eng := streamEngineOn(t, openDurable(t))
	const insert = "INSERT INTO cities VALUES (4, 'capital', 'POLYGON ((20 20, 22 20, 22 22, 20 22, 20 20))')"
	got := testing.AllocsPerRun(200, func() {
		if _, err := eng.Execute(insert); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 34
	t.Logf("%.0f allocs per INSERT (budget %d)", got, budget)
	if got > budget {
		t.Errorf("%.0f allocs per INSERT, budget %d", got, budget)
	}
}
