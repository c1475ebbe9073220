// Wire-protocol throughput benchmarks. These live in the external test
// package (spatialtf_test, unlike bench_test.go) because internal/server
// imports spatialtf — an in-package benchmark importing the server would
// be an import cycle.
package spatialtf_test

import (
	"context"
	"net"
	"testing"
	"time"

	"spatialtf"
	"spatialtf/internal/server"
	"spatialtf/internal/wire"
)

// BenchmarkWireJoinStream measures end-to-end streaming throughput of a
// spatial_join over the wire protocol on a loopback socket: rows/op is
// the join cardinality, and the reported rows/s is the wire pipeline
// rate (parse, execute, encode, frame, decode).
func BenchmarkWireJoinStream(b *testing.B) {
	db := spatialtf.Open()
	if _, err := db.LoadDataset("counties", spatialtf.Counties(512, 1201)); err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateIndex("counties_idx", "counties", spatialtf.RTree,
		spatialtf.IndexOptions{Parallel: 2}); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(db, server.Config{DefaultBatch: 512, MaxBatch: 4096})
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	cli, err := wire.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()

	const joinSQL = "SELECT rid1, rid2 FROM TABLE(spatial_join('counties','geom','counties','geom','anyinteract', 0))"
	// One warm-up drain establishes the cardinality.
	rowsPerJoin := drainJoin(b, cli, joinSQL)
	if rowsPerJoin == 0 {
		b.Fatal("empty join")
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += drainJoin(b, cli, joinSQL)
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "rows/s")
}

func drainJoin(b testing.TB, cli *wire.Client, sql string) int {
	b.Helper()
	res, err := cli.Query(sql)
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for {
		rows, done, err := res.Cursor.Fetch(0)
		if err != nil {
			b.Fatal(err)
		}
		n += len(rows)
		if done {
			return n
		}
	}
}
