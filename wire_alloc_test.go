package spatialtf_test

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"spatialtf"
	"spatialtf/internal/geom"
	"spatialtf/internal/server"
	"spatialtf/internal/wire"
)

// pointJoinSQL is a catalogue cross-match: a distance self-join of
// points, whose exact predicate costs almost nothing, so the row
// pipeline (tablefunc → sqlmini → server → wire) carries the statement.
// Two workers pinned in the statement select the grid-partitioned
// parallel join whatever GOMAXPROCS is.
const pointJoinSQL = "SELECT rid1, rid2 FROM TABLE(spatial_join('stars','geom','stars','geom','distance=1.5','algo=auto', 2))"

// servePointJoin loads n star centres, indexes them, and serves the
// database on loopback with the default server configuration. The
// returned client is connected; cleanup is registered on tb.
func servePointJoin(tb testing.TB, n int) *wire.Client {
	tb.Helper()
	ds := spatialtf.Stars(n, 1)
	for i, g := range ds.Geoms {
		c := geom.MBROf(g).Center()
		ds.Geoms[i] = geom.NewPoint(c.X, c.Y)
	}
	db := spatialtf.Open()
	if _, err := db.LoadDataset("stars", ds); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.CreateIndex("stars_idx", "stars", spatialtf.RTree, spatialtf.IndexOptions{Parallel: 2}); err != nil {
		tb.Fatal(err)
	}
	return serveLoopback(tb, db)
}

// serveLoopback serves db on loopback with the default server
// configuration and returns a connected client; cleanup is registered
// on tb.
func serveLoopback(tb testing.TB, db *spatialtf.DB) *wire.Client {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	go srv.Serve(ln)
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	cli, err := wire.Dial(ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cli.Close() })
	return cli
}

// TestWireJoinStreamAllocBudget pins the batch pipeline's allocation
// cost end to end — join instances, sqlmini projection, server, frame
// codec and client decode, all in this process — at half an allocation
// per result row. A per-row allocation anywhere between the table
// function's fetch and the client's decoded batch costs at least one.
// It also pins the bytes allocated per result row: 133 measured, with a
// 20 % margin. A client that decoded every batch into a fresh value
// slab (two 144-byte values a row) allocated 507; one that read every
// frame into a fresh buffer, behind a pipeline that rendered each pair
// as text between the join and the server, allocated 199.
func TestWireJoinStreamAllocBudget(t *testing.T) {
	const bytesPerRowBudget = 160
	cli := servePointJoin(t, 4000)
	rows := drainJoin(t, cli, pointJoinSQL) // warm: geometry cache, pools
	if rows < 2000 {
		t.Fatalf("join returned %d rows; the budget needs a result large enough to amortise per-statement setup", rows)
	}
	perStmt := testing.AllocsPerRun(5, func() { drainJoin(t, cli, pointJoinSQL) })
	perRow := perStmt / float64(rows)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const drains = 5
	for range drains {
		drainJoin(t, cli, pointJoinSQL)
	}
	runtime.ReadMemStats(&after)
	bytesPerRow := float64(after.TotalAlloc-before.TotalAlloc) / drains / float64(rows)
	t.Logf("%d rows, %.0f allocations per statement, %.3f and %.0f bytes per row", rows, perStmt, perRow, bytesPerRow)
	if perRow > 0.5 {
		t.Errorf("%.3f allocations per result row end to end, budget 0.5", perRow)
	}
	if bytesPerRow > bytesPerRowBudget && !raceEnabled { // the race detector's instrumentation allocates
		t.Errorf("%.0f bytes allocated per result row end to end, budget %d", bytesPerRow, bytesPerRowBudget)
	}
}

// BenchmarkWirePointJoinStream is the benchmark's join_stream statement
// in miniature: the streamed point cross-match over loopback on one
// processor.
func BenchmarkWirePointJoinStream(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cli := servePointJoin(b, 16000)
	rows := drainJoin(b, cli, pointJoinSQL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainJoin(b, cli, pointJoinSQL)
	}
	b.ReportMetric(float64(rows), "rows/op")
}

// windowSQL is a window over the counties that matches a handful of
// rows, the shape of the benchmark's window_lookup statements.
const windowSQL = "SELECT id FROM counties WHERE sdo_relate(geom, 'POLYGON ((500 500, 512 500, 512 512, 500 512, 500 500))', 'mask=anyinteract') = 'TRUE'"

// BenchmarkWireWindowLookup is the benchmark's window_lookup statement
// in miniature: one short indexed window SELECT over loopback on one
// processor, where the round trip and the server's per-statement work,
// not the R-tree descent, are the cost.
func BenchmarkWireWindowLookup(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	db := spatialtf.Open()
	if _, err := db.LoadDataset("counties", spatialtf.Counties(1024, 1)); err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateIndex("counties_idx", "counties", spatialtf.RTree, spatialtf.IndexOptions{}); err != nil {
		b.Fatal(err)
	}
	cli := serveLoopback(b, db)
	rows := drainJoin(b, cli, windowSQL)
	if rows == 0 || rows > 8 {
		b.Fatalf("window matched %d rows, want a handful", rows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainJoin(b, cli, windowSQL)
	}
	b.ReportMetric(float64(rows), "rows/op")
}
