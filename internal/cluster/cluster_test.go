package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialtf"
	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/server"
	"spatialtf/internal/sqlmini"
)

// testShard is one in-process shard: a real wire server over an
// in-memory database.
type testShard struct {
	addr string
	srv  *server.Server
}

func (s *testShard) kill(t testing.TB) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	s.srv.Shutdown(ctx) // the short deadline force-closes in-flight cursors
}

func startShard(t testing.TB, cfg server.Config) *testShard {
	t.Helper()
	srv := server.New(spatialtf.Open(), cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	sh := &testShard{addr: ln.Addr().String(), srv: srv}
	t.Cleanup(func() { sh.kill(t) })
	return sh
}

// bootCluster starts n shards and a coordinator over them.
func bootCluster(t testing.TB, n int, margin float64, opt Options) (*Coordinator, []*testShard) {
	t.Helper()
	return bootClusterOn(t, server.Config{}, n, margin, opt)
}

// bootClusterOn is bootCluster with the shard servers configured by cfg.
func bootClusterOn(t testing.TB, cfg server.Config, n int, margin float64, opt Options) (*Coordinator, []*testShard) {
	t.Helper()
	shards := make([]*testShard, n)
	addrs := make([]string, n)
	for i := range shards {
		shards[i] = startShard(t, cfg)
		addrs[i] = shards[i].addr
	}
	m := &ShardMap{
		Bounds: geom.MBR{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000},
		Cols:   4, Rows: 4,
		Margin: margin,
		Shards: addrs,
	}
	if opt.DialTimeout == 0 {
		opt.DialTimeout = 2 * time.Second
	}
	if opt.ReadTimeout == 0 {
		opt.ReadTimeout = 10 * time.Second
	}
	co, err := New(m, opt)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(func() { co.Close() })
	return co, shards
}

// datasetSQL renders a dataset as the DDL + INSERT statements that
// build it, so the cluster and the single-node reference ingest the
// byte-identical statement stream.
func datasetSQL(table string, ds datagen.Dataset) []string {
	stmts := []string{
		fmt.Sprintf("CREATE TABLE %s (id INT, name VARCHAR, geom GEOMETRY)", table),
		fmt.Sprintf("CREATE INDEX %s_idx ON %s(geom) INDEXTYPE IS RTREE", table, table),
	}
	for i, g := range ds.Geoms {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO %s VALUES (%d, '%s-%d', '%s')",
			table, i, table, i, geom.MarshalWKT(g)))
	}
	return stmts
}

// execStream is the common statement surface of both sides of the
// differential test.
type execStream interface {
	ExecuteStream(sql string) (*sqlmini.Stream, error)
}

func mustExec(t testing.TB, e execStream, stmts ...string) {
	t.Helper()
	for _, sql := range stmts {
		st, err := e.ExecuteStream(sql)
		if err != nil {
			t.Fatalf("exec %q: %v", sql, err)
		}
		if st.Cursor != nil {
			st.Cursor.Close()
		}
	}
}

// runSorted executes one statement and returns its rows as sorted
// lines (a SQL row source is a set, so order-independent comparison is
// the equality that matters). Counts come back as their single line.
func runSorted(e execStream, sql string) ([]string, error) {
	st, err := e.ExecuteStream(sql)
	if err != nil {
		return nil, err
	}
	if st.Result != nil {
		var out []string
		for _, row := range st.Result.Rows {
			out = append(out, strings.Join(row, "|"))
		}
		sort.Strings(out)
		return out, nil
	}
	var out []string
	for {
		_, row, ok, err := st.Cursor.Next()
		if err != nil {
			st.Cursor.Close()
			sort.Strings(out)
			return out, err // rows before a partial-result error still count
		}
		if !ok {
			break
		}
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, strings.Join(cells, "|"))
	}
	if err := st.Cursor.Close(); err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// TestClusterMatchesSingleNode is the differential acceptance test:
// the same statements against a cluster of 1, 2, and 4 shards and
// against one single-node engine must yield identical sorted row sets
// for window, distance, and join queries over a uniform, a clustered,
// and a skewed dataset — every row exactly once, none lost to
// partitioning, none duplicated by replication.
func TestClusterMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 7 servers")
	}
	families := []struct {
		name  string
		table string
		ds    datagen.Dataset
	}{
		{"uniform", "cu", datagen.Counties(120, 1)},
		{"clustered", "cs", datagen.Stars(150, 2)},
		{"skewed", "cb", datagen.BlockGroups(90, 3)},
	}
	rightDS := datagen.Counties(80, 7)

	// One shared single-node reference.
	ref := sqlmini.NewEngineOn(spatialtf.Open())
	for _, fam := range families {
		mustExec(t, ref, datasetSQL(fam.table, fam.ds)...)
	}
	mustExec(t, ref, datasetSQL("rt", rightDS)...)

	for _, nShards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			co, _ := bootCluster(t, nShards, 8, Options{})
			sess := co.NewSession()
			for _, fam := range families {
				mustExec(t, sess, datasetSQL(fam.table, fam.ds)...)
			}
			mustExec(t, sess, datasetSQL("rt", rightDS)...)

			for _, fam := range families {
				queries := []string{
					fmt.Sprintf("SELECT id, name FROM %s WHERE sdo_relate(geom, 'POLYGON ((200 200, 600 200, 600 500, 200 500, 200 200))', 'mask=anyinteract') = 'TRUE'", fam.table),
					fmt.Sprintf("SELECT count(*) FROM %s WHERE sdo_relate(geom, 'POLYGON ((0 0, 450 0, 450 980, 0 980, 0 0))', 'mask=anyinteract')", fam.table),
					fmt.Sprintf("SELECT id FROM %s WHERE sdo_within_distance(geom, 'POINT (500 500)', 'distance=60') = 'TRUE'", fam.table),
					fmt.Sprintf("SELECT id FROM %s", fam.table),
					fmt.Sprintf("SELECT count(*) FROM %s", fam.table),
					fmt.Sprintf("SELECT key1, key2 FROM TABLE(spatial_join('%s','geom','rt','geom','distance=5','keys=id:id'))", fam.table),
					fmt.Sprintf("SELECT count(*) FROM TABLE(spatial_join('%s','geom','rt','geom','anyinteract'))", fam.table),
				}
				for _, q := range queries {
					want, err := runSorted(ref, q)
					if err != nil {
						t.Fatalf("[%s] single-node %q: %v", fam.name, q, err)
					}
					got, err := runSorted(sess, q)
					if err != nil {
						t.Fatalf("[%s] cluster %q: %v", fam.name, q, err)
					}
					if len(got) != len(want) {
						t.Errorf("[%s] %q: cluster returned %d rows, single node %d", fam.name, q, len(got), len(want))
						continue
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("[%s] %q: row %d differs: cluster %q, single node %q", fam.name, q, i, got[i], want[i])
							break
						}
					}
				}
			}
		})
	}
}

// TestHugeDistanceWindow: a window query whose distance overflows the
// router's grid arithmetic still scatters to every shard the grown
// window reaches. A distance of 1e300 grows the point to the whole
// plane, so the cluster must return every row, like the single node.
func TestHugeDistanceWindow(t *testing.T) {
	ds := datagen.Counties(120, 1)
	ref := sqlmini.NewEngineOn(spatialtf.Open())
	mustExec(t, ref, datasetSQL("cu", ds)...)
	co, _ := bootCluster(t, 3, 8, Options{})
	sess := co.NewSession()
	mustExec(t, sess, datasetSQL("cu", ds)...)
	for _, q := range []string{
		"SELECT id FROM cu WHERE sdo_within_distance(geom, 'POINT (700 100)', 'distance=1e300') = 'TRUE'",
		"SELECT count(*) FROM cu WHERE sdo_within_distance(geom, 'POINT (700 100)', 'distance=1e300')",
	} {
		want, err := runSorted(ref, q)
		if err != nil {
			t.Fatalf("single-node %q: %v", q, err)
		}
		got, err := runSorted(sess, q)
		if err != nil {
			t.Fatalf("cluster %q: %v", q, err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%q: cluster returned %d rows, single node %d", q, len(got), len(want))
		}
	}
}

// TestShardLossPartial kills a shard mid-stream under the partial
// policy: the surviving shards' rows keep flowing and the stream ends
// with a typed *PartialError — never a silently short result. The
// shards answer with 4-row first batches, so each shard's 60 rows keep
// a server cursor open for the kill to cut.
func TestShardLossPartial(t *testing.T) {
	co, shards := bootClusterOn(t, server.Config{DefaultBatch: 4}, 2, 0, Options{
		OnShardLoss: LossPartial,
		FetchBatch:  4,
		ReadTimeout: 2 * time.Second,
	})
	sess := co.NewSession()
	mustExec(t, sess, datasetSQL("pts", datagen.Counties(120, 5))...)

	st, err := sess.ExecuteStream("SELECT id FROM pts")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Cursor.Close()
	// Pull a few rows so both remote cursors are mid-stream, then kill
	// one shard under them.
	for i := 0; i < 4; i++ {
		if _, _, ok, err := st.Cursor.Next(); err != nil || !ok {
			t.Fatalf("warm-up row %d: ok=%v err=%v", i, ok, err)
		}
	}
	shards[1].kill(t)
	rows := 4
	var finalErr error
	for {
		_, _, ok, err := st.Cursor.Next()
		if err != nil {
			finalErr = err
			break
		}
		if !ok {
			break
		}
		rows++
	}
	var pe *PartialError
	if !errors.As(finalErr, &pe) {
		t.Fatalf("stream ended with %v (%d rows), want a *PartialError", finalErr, rows)
	}
	if len(pe.Failed) == 0 || pe.Failed[0].Shard != 1 {
		t.Fatalf("partial error blames %+v, want shard 1", pe.Failed)
	}
	if rows == 0 {
		t.Fatal("no rows survived from the healthy shard")
	}
}

// TestShardLossFailFast kills a shard mid-stream under the default
// policy: the next pull surfaces a typed *ShardError.
func TestShardLossFailFast(t *testing.T) {
	co, shards := bootClusterOn(t, server.Config{DefaultBatch: 4}, 2, 0, Options{
		FetchBatch:  4,
		ReadTimeout: 2 * time.Second,
	})
	sess := co.NewSession()
	mustExec(t, sess, datasetSQL("pts", datagen.Counties(120, 5))...)

	st, err := sess.ExecuteStream("SELECT id FROM pts")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Cursor.Close()
	for i := 0; i < 4; i++ {
		if _, _, ok, err := st.Cursor.Next(); err != nil || !ok {
			t.Fatalf("warm-up row %d: ok=%v err=%v", i, ok, err)
		}
	}
	shards[1].kill(t)
	var finalErr error
	for {
		_, _, ok, err := st.Cursor.Next()
		if err != nil {
			finalErr = err
			break
		}
		if !ok {
			break
		}
	}
	var se *ShardError
	if !errors.As(finalErr, &se) {
		t.Fatalf("stream ended with %v, want a *ShardError", finalErr)
	}
	if se.Shard != 1 {
		t.Fatalf("shard error blames shard %d, want 1", se.Shard)
	}
}

// TestShardLossAfterFirstBatch kills a shard whose whole answer came
// with its query reply: the shard holds no cursor and the router needs
// nothing more from it, so under either policy the stream completes
// with every row and reports no loss.
func TestShardLossAfterFirstBatch(t *testing.T) {
	for _, policy := range []string{LossFail, LossPartial} {
		t.Run(policy, func(t *testing.T) {
			co, shards := bootCluster(t, 2, 0, Options{
				OnShardLoss: policy,
				FetchBatch:  4,
				ReadTimeout: 2 * time.Second,
			})
			sess := co.NewSession()
			mustExec(t, sess, datasetSQL("pts", datagen.Counties(120, 5))...)
			st, err := sess.ExecuteStream("SELECT id FROM pts")
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer st.Cursor.Close()
			shards[1].kill(t)
			rows := 0
			for {
				_, _, ok, err := st.Cursor.Next()
				if err != nil {
					t.Fatalf("stream after %d rows: %v, want no loss", rows, err)
				}
				if !ok {
					break
				}
				rows++
			}
			if rows != 120 {
				t.Fatalf("stream returned %d rows, want all 120", rows)
			}
		})
	}
}

// TestScatterDeadShardAtOpen loses a shard before the query even
// starts: fail-fast errors at open, partial streams the survivor and
// reports the loss, and COUNT always fails (a partial count is a wrong
// number, not a degraded one).
func TestScatterDeadShardAtOpen(t *testing.T) {
	co, shards := bootCluster(t, 2, 0, Options{
		OnShardLoss: LossPartial,
		DialTimeout: 500 * time.Millisecond,
		ReadTimeout: 2 * time.Second,
	})
	sess := co.NewSession()
	mustExec(t, sess, datasetSQL("pts", datagen.Counties(60, 5))...)
	shards[1].kill(t)

	rows, err := runSorted(sess, "SELECT id FROM pts")
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("partial-mode scan with a dead shard: rows=%d err=%v, want *PartialError", len(rows), err)
	}
	if len(rows) == 0 {
		t.Fatal("partial-mode scan delivered no rows from the surviving shard")
	}

	if _, err := runSorted(sess, "SELECT count(*) FROM pts"); err == nil {
		t.Fatal("COUNT with a dead shard succeeded; a partial count must fail")
	}

	coFail, err := New(co.Map(), Options{DialTimeout: 500 * time.Millisecond, ReadTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coFail.Close()
	_, err = runSorted(coFail.NewSession(), "SELECT id FROM pts")
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("fail-fast scan with a dead shard: err=%v, want *ShardError", err)
	}
}

// TestClusterTypedErrors checks the routing rejections are typed and
// match with errors.Is.
func TestClusterTypedErrors(t *testing.T) {
	co, _ := bootCluster(t, 2, 2, Options{})
	sess := co.NewSession()
	mustExec(t, sess, datasetSQL("te", datagen.Counties(20, 9))...)

	_, err := sess.ExecuteStream("SELECT key1, key2 FROM TABLE(spatial_join('te','geom','te','geom','distance=5','keys=id:id'))")
	if !errors.Is(err, ErrDistanceExceedsMargin) {
		t.Errorf("join beyond margin: %v, want ErrDistanceExceedsMargin", err)
	}
	_, err = sess.ExecuteStream("SELECT rid1, rid2 FROM TABLE(spatial_join('te','geom','te','geom','anyinteract'))")
	if !errors.Is(err, ErrNeedJoinKeys) {
		t.Errorf("join without keys: %v, want ErrNeedJoinKeys", err)
	}
	_, err = sess.ExecuteStream("SELECT id FROM te WHERE sdo_nn(geom, 'POINT (1 1)', 'k=3') = 'TRUE'")
	if !errors.Is(err, ErrNearestUnsupported) {
		t.Errorf("sdo_nn: %v, want ErrNearestUnsupported", err)
	}
	_, err = sess.ExecuteStream("UPDATE te SET geom = 'POINT (1 1)'")
	if !errors.Is(err, ErrGeometryUpdate) {
		t.Errorf("geometry update: %v, want ErrGeometryUpdate", err)
	}
}

// TestClusterDML routes INSERT/DELETE/UPDATE and confirms reads agree
// afterwards.
func TestClusterDML(t *testing.T) {
	co, _ := bootCluster(t, 3, 4, Options{})
	sess := co.NewSession()
	mustExec(t, sess,
		"CREATE TABLE dml (id INT, name VARCHAR, geom GEOMETRY)",
		"CREATE INDEX dml_idx ON dml(geom) INDEXTYPE IS RTREE",
		"INSERT INTO dml VALUES (1, 'a', 'POINT (10 10)')",
		"INSERT INTO dml VALUES (2, 'b', 'POINT (500 500)')",
		"INSERT INTO dml VALUES (3, 'c', 'POINT (990 990)')",
	)
	rows, err := runSorted(sess, "SELECT id FROM dml")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("scan after insert: %v, want 3 rows", rows)
	}
	mustExec(t, sess, "UPDATE dml SET name = 'moved' WHERE sdo_relate(geom, 'POINT (500 500)', 'mask=anyinteract')")
	rows, err = runSorted(sess, "SELECT name FROM dml WHERE sdo_relate(geom, 'POINT (500 500)', 'mask=anyinteract') = 'TRUE'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0] != "moved" {
		t.Fatalf("update did not apply: %v", rows)
	}
	mustExec(t, sess, "DELETE FROM dml WHERE sdo_relate(geom, 'POINT (10 10)', 'mask=anyinteract')")
	rows, err = runSorted(sess, "SELECT id FROM dml")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("scan after delete: %v, want 2 rows", rows)
	}
}

// TestScatterMergeRace drives concurrent scatter queries through one
// coordinator from many goroutines; run under -race this is the data
// race check on the scatter/merge path.
func TestScatterMergeRace(t *testing.T) {
	co, _ := bootCluster(t, 2, 4, Options{})
	setup := co.NewSession()
	mustExec(t, setup, datasetSQL("race", datagen.Counties(80, 11))...)

	const goroutines = 6
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := co.NewSession()
			defer sess.Close()
			for i := 0; i < 5; i++ {
				q := fmt.Sprintf("SELECT id FROM race WHERE sdo_within_distance(geom, 'POINT (%d %d)', 'distance=120') = 'TRUE'",
					100+g*130, 100+i*150)
				if _, err := runSorted(sess, q); err != nil {
					errc <- fmt.Errorf("goroutine %d query %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestClusterMetricsSnapshot checks the per-shard labelling and the
// cluster rollup of the aggregated scrape.
func TestClusterMetricsSnapshot(t *testing.T) {
	co, _ := bootCluster(t, 2, 0, Options{})
	sess := co.NewSession()
	mustExec(t, sess,
		"CREATE TABLE ms (id INT, name VARCHAR, geom GEOMETRY)",
		"INSERT INTO ms VALUES (1, 'a', 'POINT (1 1)')",
	)
	pts := co.MetricsSnapshot()
	var up0, up1, shard0Series, rollups int
	for _, p := range pts {
		switch {
		case p.Name == "shard0_up" && p.Value == 1:
			up0++
		case p.Name == "shard1_up" && p.Value == 1:
			up1++
		case strings.HasPrefix(p.Name, "shard0_"):
			shard0Series++
		case strings.HasPrefix(p.Name, "cluster_"):
			rollups++
		}
	}
	if up0 != 1 || up1 != 1 {
		t.Fatalf("shard up gauges: shard0=%d shard1=%d, want 1 each", up0, up1)
	}
	if shard0Series == 0 || rollups == 0 {
		t.Fatalf("snapshot has %d shard0 series and %d rollups, want both > 0", shard0Series, rollups)
	}
}
