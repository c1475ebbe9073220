package sqlmini

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"spatialtf"
	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
	"spatialtf/internal/storage/storagetest"
)

// --- keys= hint ---

func TestJoinKeysHint(t *testing.T) {
	e := setupCitiesRivers(t)
	r := exec(t, e, "SELECT key1, key2 FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract','keys=name:name'))")
	if len(r.Columns) != 2 || r.Columns[0] != "key1" || r.Columns[1] != "key2" {
		t.Fatalf("keys projection columns: %v", r.Columns)
	}
	found := false
	for _, row := range r.Rows {
		if row[0] == "springfield" && row[1] == "long_river" {
			found = true
		}
	}
	if !found {
		t.Fatalf("keys hint did not surface user keys: %v", r.Rows)
	}
	// Star and count work through the hint too.
	r = exec(t, e, "SELECT * FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract','keys=id:id'))")
	if len(r.Columns) != 2 || r.Columns[0] != "key1" {
		t.Fatalf("star with keys hint: %v", r.Columns)
	}
	// The rid columns no longer exist under a keys hint, and vice versa.
	execErr(t, e, "SELECT rid1 FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract','keys=id:id'))")
	execErr(t, e, "SELECT key1 FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract'))")
}

func TestJoinKeysHintErrors(t *testing.T) {
	e := setupCitiesRivers(t)
	for _, sql := range []string{
		// Malformed hint values.
		"SELECT count(*) FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract','keys=id'))",
		"SELECT count(*) FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract','keys=:id'))",
		"SELECT count(*) FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract','keys=id:'))",
		// Duplicate hints.
		"SELECT count(*) FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract','keys=id:id','keys=name:name'))",
		"SELECT count(*) FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract','algo=grid','algo=nested'))",
		// Unknown hint.
		"SELECT count(*) FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract','mystery=1'))",
		// Key column that does not exist.
		"SELECT key1 FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract','keys=nope:id'))",
	} {
		execErr(t, e, sql)
	}
}

// --- scoped execution ---

// scopedEngine builds an engine with an indexed spatial table of n
// counties.
func scopedEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e := NewEngine()
	exec(t, e, "CREATE TABLE sc (id INT, name VARCHAR, geom GEOMETRY)")
	exec(t, e, "CREATE INDEX sc_idx ON sc(geom) INDEXTYPE IS RTREE")
	for i, g := range datagen.Counties(n, 31).Geoms {
		exec(t, e, fmt.Sprintf("INSERT INTO sc VALUES (%d, 'sc-%d', '%s')", i, i, geom.MarshalWKT(g)))
	}
	return e
}

// drainStream runs sql under scope (nil = unscoped) and returns the
// result's column names and its rows rendered cell|cell, in stream
// order. An immediate result (COUNT) comes back as its one row, after
// checking that Count and the row agree.
func drainStream(t *testing.T, e *Engine, sql string, scope *spatialtf.ClusterScope) (cols, rows []string) {
	t.Helper()
	st, err := e.ExecuteStreamScoped(sql, scope)
	if err != nil {
		t.Fatalf("scoped %q: %v", sql, err)
	}
	if st.Result != nil {
		return resultLines(t, st.Result)
	}
	for _, c := range st.Schema {
		cols = append(cols, c.Name)
	}
	rows, err = storagetest.DrainNext(st.Cursor)
	if err != nil {
		t.Fatalf("scoped %q next: %v", sql, err)
	}
	return cols, rows
}

// resultLines renders a materialised result the way drainStream renders
// a streamed one.
func resultLines(t *testing.T, r *Result) (cols, rows []string) {
	t.Helper()
	for _, row := range r.Rows {
		rows = append(rows, strings.Join(row, "|"))
	}
	if len(r.Columns) == 1 && r.Columns[0] == "COUNT(*)" {
		if len(rows) != 1 || rows[0] != strconv.Itoa(r.Count) {
			t.Fatalf("COUNT(*) result shape: Count=%d Rows=%v", r.Count, r.Rows)
		}
	}
	return r.Columns, rows
}

// TestScopedPartition is the differential over every SELECT shape
// (row source × projection) and every way of running it: the
// materialised Execute, the row drain and the batch drain of
// ExecuteStream must agree row for row, column names included, and the
// scoped runs are the shard-side half of the cluster's exactly-once
// guarantee without the network — the union of all shards' scoped
// results equals the unscoped result and the per-shard results are
// disjoint. (The in-process engine holds every row, which
// over-approximates what a shard replica holds — the ownership filter
// must still yield each result exactly once.)
func TestScopedPartition(t *testing.T) {
	e := scopedEngine(t, 80)
	world := spatialtf.MBR{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	tableCols := []string{"id", "name", "geom"}
	sources := []struct {
		name, from  string
		star, named []string
		nearest     bool
	}{
		{name: "scan", from: "sc", star: tableCols, named: []string{"name", "id"}},
		{name: "relate", from: "sc WHERE sdo_relate(geom, 'POLYGON ((100 100, 700 100, 700 600, 100 600, 100 100))', 'mask=anyinteract') = 'TRUE'",
			star: tableCols, named: []string{"name", "id"}},
		{name: "within_distance", from: "sc WHERE sdo_within_distance(geom, 'POINT (500 500)', 'distance=80') = 'TRUE'",
			star: tableCols, named: []string{"geom", "id"}},
		{name: "nn", from: "sc WHERE sdo_nn(geom, 'POINT (500 500)', 'k=7') = 'TRUE'",
			star: tableCols, named: []string{"name"}, nearest: true},
		{name: "join rids", from: "TABLE(spatial_join('sc','geom','sc','geom','distance=4'))",
			star: []string{"rid1", "rid2"}, named: []string{"rid2", "rid1"}},
		{name: "join keys", from: "TABLE(spatial_join('sc','geom','sc','geom','distance=4','keys=id:name'))",
			star: []string{"key1", "key2"}, named: []string{"key2", "key1"}},
	}
	for _, src := range sources {
		for _, proj := range []struct {
			sel  string
			cols []string
		}{
			{"*", src.star},
			{strings.Join(src.named, ", "), src.named},
			{"count(*)", []string{"COUNT(*)"}},
		} {
			sql := "SELECT " + proj.sel + " FROM " + src.from
			isCount := proj.sel == "count(*)"
			t.Run(src.name+"/"+proj.sel, func(t *testing.T) {
				// Execute ≡ row drain of ExecuteStream, in order.
				cols, want := resultLines(t, exec(t, e, sql))
				if !slices.Equal(cols, proj.cols) {
					t.Fatalf("Execute columns %v, want %v", cols, proj.cols)
				}
				if len(want) == 0 || (!isCount && len(want) < 5) {
					t.Fatalf("only %d rows: the case tests nothing", len(want))
				}
				cols, got := drainStream(t, e, sql, nil)
				if !slices.Equal(cols, proj.cols) {
					t.Errorf("ExecuteStream columns %v, want %v", cols, proj.cols)
				}
				if !slices.Equal(got, want) {
					t.Errorf("ExecuteStream row drain differs from Execute:\n got %v\nwant %v", got, want)
				}
				// ≡ batch drain.
				if !isCount {
					storagetest.CheckBatchEqualsNext(t, true, func() (storage.Cursor, error) {
						st, err := e.ExecuteStream(sql)
						if err != nil {
							return nil, err
						}
						return st.Cursor, nil
					})
				}
				// ≡ sorted union of the shards' scoped results.
				slices.Sort(want)
				if dup := slices.Compact(slices.Clone(want)); len(dup) != len(want) {
					t.Fatalf("unscoped result has duplicate rows: the union check could not see a duplicate")
				}
				for _, nShards := range []int{1, 3, 4} {
					var union []string
					total := 0
					for shard := 0; shard < nShards; shard++ {
						scope := spatialtf.NewClusterScope(world, 4, 4, nShards, shard)
						if src.nearest {
							if _, err := e.ExecuteStreamScoped(sql, scope); err == nil {
								t.Errorf("sdo_nn accepted under a scope (%d shards)", nShards)
							}
							continue
						}
						cols, part := drainStream(t, e, sql, scope)
						if !slices.Equal(cols, proj.cols) {
							t.Errorf("shard %d/%d columns %v, want %v", shard, nShards, cols, proj.cols)
						}
						if isCount {
							n, _ := strconv.Atoi(part[0])
							total += n
						}
						union = append(union, part...)
					}
					switch {
					case src.nearest:
					case isCount:
						if want[0] != strconv.Itoa(total) {
							t.Errorf("%d shards: scoped counts sum to %d, unscoped %s", nShards, total, want[0])
						}
					default:
						slices.Sort(union)
						if !slices.Equal(union, want) {
							t.Errorf("%d shards: union of %d scoped rows, unscoped %d (duplicate, lost or different results)", nShards, len(union), len(want))
						}
					}
				}
			})
		}
	}
}

func TestScopedRejections(t *testing.T) {
	e := scopedEngine(t, 10)
	world := spatialtf.MBR{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	scope := spatialtf.NewClusterScope(world, 4, 4, 2, 0)
	// Non-SELECT statements cannot be scoped.
	if _, err := e.ExecuteStreamScoped("INSERT INTO sc VALUES (99, 'x', 'POINT (1 1)')", scope); err == nil {
		t.Error("scoped INSERT accepted")
	}
	// sdo_nn is not spatially decomposable.
	if _, err := e.ExecuteStreamScoped("SELECT id FROM sc WHERE sdo_nn(geom, 'POINT (1 1)', 'k=3') = 'TRUE'", scope); err == nil {
		t.Error("scoped sdo_nn accepted")
	}
	// A table without geometry cannot be sharded.
	exec(t, e, "CREATE TABLE plain (id INT, name VARCHAR)")
	exec(t, e, "INSERT INTO plain VALUES (1, 'a')")
	if _, err := e.ExecuteStreamScoped("SELECT id FROM plain", scope); err == nil {
		t.Error("scoped scan of a geometry-less table accepted")
	}
	// A nil scope falls back to plain execution.
	st, err := e.ExecuteStreamScoped("SELECT count(*) FROM sc", nil)
	if err != nil || st.Result == nil || st.Result.Count != 10 {
		t.Errorf("nil scope fallback: st=%+v err=%v", st, err)
	}
}
