package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialtf"
	"spatialtf/internal/leakcheck"
	"spatialtf/internal/sqlmini"
	"spatialtf/internal/storage"
	"spatialtf/internal/wire"
)

// newTestDB loads a counties table with an R-tree index, the operand
// every test query runs against.
func newTestDB(t testing.TB, rows int) *spatialtf.DB {
	t.Helper()
	db := spatialtf.Open()
	if _, err := db.LoadDataset("counties", spatialtf.Counties(rows, 701)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("counties_idx", "counties", spatialtf.RTree,
		spatialtf.IndexOptions{Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	return db
}

// startTestServer serves cfg over a loopback listener and returns the
// server plus its address. The server shuts down with the test.
func startTestServer(t testing.TB, db *spatialtf.DB, cfg Config) (*Server, string) {
	t.Helper()
	return startServer(t, dbBackend{db: db}, cfg)
}

// startServer is startTestServer over an arbitrary backend.
func startServer(t testing.TB, b Backend, cfg Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWith(b, cfg)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-errc; err != nil && err != ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

const joinSQL = "SELECT rid1, rid2 FROM TABLE(spatial_join('counties','geom','counties','geom','anyinteract', 0))"

// TestServerEndToEnd is the acceptance scenario: 8 concurrent clients
// over loopback, each alternating streamed spatial_join fetches with
// sdo_relate point queries, under -race.
func TestServerEndToEnd(t *testing.T) {
	db := newTestDB(t, 96)
	// The expected join cardinality, computed locally.
	cur, err := db.SpatialJoin("counties", "counties_idx", "counties", "counties_idx", spatialtf.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := cur.Collect()
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := len(pairs)

	srv, addr := startTestServer(t, db, Config{DefaultBatch: 16, MaxBatch: 64})
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := wire.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			for round := 0; round < 3; round++ {
				// Streamed join, fetched in small batches.
				res, err := cli.Query(joinSQL)
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", i, err)
					return
				}
				if res.Cursor == nil {
					errs <- fmt.Errorf("client %d: join did not stream", i)
					return
				}
				n := 0
				for {
					rows, done, err := res.Cursor.Fetch(16)
					if err != nil {
						errs <- fmt.Errorf("client %d fetch: %w", i, err)
						return
					}
					n += len(rows)
					if done {
						break
					}
				}
				if n != wantPairs {
					errs <- fmt.Errorf("client %d: join streamed %d pairs, want %d", i, n, wantPairs)
					return
				}
				// Window query while other clients stream joins.
				res, err = cli.Query("SELECT name FROM counties WHERE sdo_relate(geom, 'POLYGON ((0 0, 1000 0, 1000 1000, 0 1000, 0 0))', 'mask=anyinteract') = 'TRUE'")
				if err != nil {
					errs <- fmt.Errorf("client %d relate: %w", i, err)
					return
				}
				if res.Cursor == nil {
					errs <- fmt.Errorf("client %d: relate did not stream", i)
					return
				}
				names := 0
				for done := false; !done; {
					var rows []storage.Row
					rows, done, err = res.Cursor.Fetch(0)
					if err != nil {
						errs <- fmt.Errorf("client %d relate fetch: %w", i, err)
						return
					}
					for _, row := range rows {
						if row[0].S == "" {
							errs <- fmt.Errorf("client %d: empty name", i)
							return
						}
						names++
					}
				}
				if names == 0 {
					errs <- fmt.Errorf("client %d: world window matched nothing", i)
					return
				}
				// COUNT comes back as an immediate result, not a cursor.
				res, err = cli.Query("SELECT count(*) FROM counties")
				if err != nil {
					errs <- fmt.Errorf("client %d count: %w", i, err)
					return
				}
				if res.Cursor != nil || !res.HasCount || res.Count != 96 {
					errs <- fmt.Errorf("client %d: count = %+v", i, res)
					return
				}
			}
			// Stats over the same connection.
			if _, err := cli.Stats(); err != nil {
				errs <- fmt.Errorf("client %d stats: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := srv.Stats().Snapshot()
	if s.ConnsAccepted != clients || s.CursorsOpen != 0 {
		t.Errorf("stats after drain: %+v", s)
	}
	if want := int64(clients * 3 * wantPairs); s.RowsStreamed < want {
		t.Errorf("rows streamed %d, want >= %d join rows", s.RowsStreamed, want)
	}
}

// TestServerBoundedStreaming proves the server never materialises a
// result: a join far larger than one batch streams one bounded batch at
// a time, and rows are only produced as the client pulls them.
func TestServerBoundedStreaming(t *testing.T) {
	db := newTestDB(t, 256)
	srv, addr := startTestServer(t, db, Config{DefaultBatch: 32, MaxBatch: 32})
	cli, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res, err := cli.Query(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cursor == nil {
		t.Fatal("join did not stream")
	}
	// First pull: asking for far more than MaxBatch still yields at most
	// MaxBatch rows, and the server has produced only that many.
	rows, done, err := res.Cursor.Fetch(100000)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("256-county self-join fit in one 32-row batch")
	}
	if len(rows) != 32 {
		t.Fatalf("first batch %d rows, want the 32-row cap", len(rows))
	}
	if s := srv.Stats().Snapshot(); s.RowsStreamed != 32 {
		t.Fatalf("server produced %d rows before the second pull; streaming is not lazy", s.RowsStreamed)
	}
	// Drain the rest and check the total against a local join.
	total := len(rows)
	for !done {
		rows, done, err = res.Cursor.Fetch(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) > 32 {
			t.Fatalf("batch of %d rows exceeds cap", len(rows))
		}
		total += len(rows)
	}
	cur, err := db.SpatialJoin("counties", "counties_idx", "counties", "counties_idx", spatialtf.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := cur.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if total != len(pairs) {
		t.Fatalf("streamed %d pairs, local join has %d", total, len(pairs))
	}
	if s := srv.Stats().Snapshot(); s.CursorsOpen != 0 {
		t.Fatalf("cursor not released after drain: %+v", s)
	}
}

func TestServerConnectionLimit(t *testing.T) {
	db := newTestDB(t, 8)
	_, addr := startTestServer(t, db, Config{MaxConns: 1})
	first, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	// Prove the first connection works before occupying the slot check.
	if _, err := first.Query("SELECT count(*) FROM counties"); err != nil {
		t.Fatal(err)
	}
	second, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial should succeed (rejection is in-protocol): %v", err)
	}
	defer second.Close()
	_, err = second.Query("SELECT count(*) FROM counties")
	if err == nil || !strings.Contains(err.Error(), "connection limit") {
		t.Fatalf("second connection error = %v, want connection limit", err)
	}
	// Closing the first connection frees the slot.
	first.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		third, err := wire.Dial(addr)
		if err == nil {
			_, err = third.Query("SELECT count(*) FROM counties")
			third.Close()
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownJoinsRejections: a connection turned away at the limit
// gets its reject handshake on a goroutine of its own. A client that
// reads the server's magic and never answers must not keep that
// goroutine alive past Shutdown.
func TestShutdownJoinsRejections(t *testing.T) {
	before := leakcheck.Take()
	db := newTestDB(t, 8)
	srv, addr := startTestServer(t, db, Config{MaxConns: 1})
	first, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := first.Query("SELECT count(*) FROM counties"); err != nil {
		t.Fatal(err)
	}
	second, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	magic := make([]byte, len(wire.Magic))
	if _, err := io.ReadFull(second, magic); err != nil || string(magic) != wire.Magic {
		t.Fatalf("rejected connection read %q (%v), want the server's magic", magic, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := before.Leaked(); err != nil {
		t.Fatal(err)
	}
}

// TestServerCursorLimit holds cursors open mid-stream: the join is
// longer than the 4-row first batch, so each Query keeps a server cursor.
func TestServerCursorLimit(t *testing.T) {
	db := newTestDB(t, 32)
	_, addr := startTestServer(t, db, Config{MaxCursorsPerConn: 2, DefaultBatch: 4})
	cli, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var open []*wire.Cursor
	for i := 0; i < 2; i++ {
		res, err := cli.Query(joinSQL)
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, res.Cursor)
	}
	_, err = cli.Query(joinSQL)
	if err == nil || !strings.Contains(err.Error(), "cursor limit") {
		t.Fatalf("third cursor error = %v, want cursor limit", err)
	}
	// Closing one frees a slot.
	if err := open[0].Close(); err != nil {
		t.Fatal(err)
	}
	res, err := cli.Query(joinSQL)
	if err != nil {
		t.Fatalf("after close: %v", err)
	}
	res.Cursor.Close()
	open[1].Close()
}

func TestServerRowLimit(t *testing.T) {
	db := newTestDB(t, 128)
	_, addr := startTestServer(t, db, Config{MaxRowsPerQuery: 50, DefaultBatch: 20})
	cli, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res, err := cli.Query(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	var fetchErr error
	for i := 0; i < 100; i++ {
		_, done, err := res.Cursor.Fetch(0)
		if err != nil {
			fetchErr = err
			break
		}
		if done {
			break
		}
	}
	if fetchErr == nil || !strings.Contains(fetchErr.Error(), "row limit") {
		t.Fatalf("fetch error = %v, want row limit", fetchErr)
	}
	// The aborted cursor is gone server-side; a fresh query still works.
	res, err = cli.Query("SELECT count(*) FROM counties")
	if err != nil || res.Count != 128 {
		t.Fatalf("connection unusable after row limit: %+v, %v", res, err)
	}
}

func TestServerQueryTimeout(t *testing.T) {
	db := newTestDB(t, 64)
	_, addr := startTestServer(t, db, Config{QueryTimeout: 30 * time.Millisecond, DefaultBatch: 4})
	cli, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res, err := cli.Query(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	// The first batch came with the reply; the fetches below reach the
	// server.
	if _, done, err := res.Cursor.Fetch(0); err != nil || done {
		t.Fatalf("first batch: done=%v err=%v, want a result longer than 4 rows", done, err)
	}
	if _, _, err := res.Cursor.Fetch(1); err != nil {
		t.Fatalf("fetch before deadline: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	_, _, err = res.Cursor.Fetch(1)
	if err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("fetch after deadline = %v, want timeout", err)
	}
}

func TestServerErrorsKeepConnectionUsable(t *testing.T) {
	db := newTestDB(t, 8)
	_, addr := startTestServer(t, db, Config{})
	cli, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Query("SELEK nonsense"); err == nil {
		t.Errorf("parse error not reported")
	}
	if _, err := cli.Query("SELECT name FROM missing"); err == nil {
		t.Errorf("missing table not reported")
	}
	res, err := cli.Query("SELECT count(*) FROM counties")
	if err != nil || res.Count != 8 {
		t.Fatalf("connection unusable after errors: %+v, %v", res, err)
	}
}

// TestServerDDLOverWire drives the full statement surface remotely:
// create, insert, index, query, delete.
func TestServerDDLOverWire(t *testing.T) {
	db := spatialtf.Open()
	_, addr := startTestServer(t, db, Config{})
	cli, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	stmts := []string{
		"CREATE TABLE cities (id INT, name VARCHAR, geom GEOMETRY)",
		"INSERT INTO cities VALUES (1, 'springfield', 'POLYGON ((10 10, 14 10, 14 14, 10 14, 10 10))')",
		"INSERT INTO cities VALUES (2, 'shelbyville', 'POLYGON ((30 30, 34 30, 34 34, 30 34, 30 30))')",
		"CREATE INDEX cities_idx ON cities(geom) INDEXTYPE IS RTREE",
	}
	for _, s := range stmts {
		if _, err := cli.Query(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	res, err := cli.Query("SELECT name FROM cities WHERE sdo_relate(geom, 'POINT (12 12)', 'mask=contains') = 'TRUE'")
	if err != nil {
		t.Fatal(err)
	}
	rows, done, err := res.Cursor.Fetch(0)
	if err != nil || !done || len(rows) != 1 || rows[0][0].S != "springfield" {
		t.Fatalf("relate rows = %v done=%v err=%v", rows, done, err)
	}
}

// TestServerGracefulShutdown: a connection with an open cursor keeps
// draining it through Shutdown, while new queries are refused.
func TestServerGracefulShutdown(t *testing.T) {
	db := newTestDB(t, 96)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{DefaultBatch: 8})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	cli, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res, err := cli.Query(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.Cursor.Fetch(0); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Give Shutdown time to close the listener and flag shutdown.
	deadline := time.Now().Add(2 * time.Second)
	for !srv.inShutdown.Load() {
		if time.Now().After(deadline) {
			t.Fatal("shutdown flag never set")
		}
		time.Sleep(time.Millisecond)
	}
	// New queries on the draining connection are refused...
	if _, err := cli.Query("SELECT count(*) FROM counties"); err == nil ||
		!strings.Contains(err.Error(), "shutting down") {
		t.Fatalf("query during shutdown = %v, want shutting down", err)
	}
	// ...but the open cursor still drains to completion.
	n := 0
	for {
		rows, done, err := res.Cursor.Fetch(0)
		if err != nil {
			t.Fatalf("drain during shutdown: %v", err)
		}
		n += len(rows)
		if done {
			break
		}
	}
	if n == 0 {
		t.Fatal("no rows drained during shutdown")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	if err := <-serveErr; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	// New connections are refused outright.
	if _, err := wire.Dial(ln.Addr().String()); err == nil {
		t.Errorf("dial after shutdown succeeded")
	}
}

// TestServerConcurrentQueriesAndDML streams joins from several clients
// while the database takes inserts underneath, under -race: fetches see
// a consistent pinned snapshot per cursor and nothing crashes.
func TestServerConcurrentQueriesAndDML(t *testing.T) {
	db := newTestDB(t, 64)
	tab, err := db.Table("counties")
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startTestServer(t, db, Config{DefaultBatch: 16})
	stop := make(chan struct{})
	var writerWg sync.WaitGroup
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := spatialtf.MustRect(float64(i%900), float64(i%900), float64(i%900+5), float64(i%900+5))
			if _, err := tab.Add(fmt.Sprintf("live-%d", i), g); err != nil {
				t.Error(err)
				return
			}
			i++
			time.Sleep(time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := wire.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for round := 0; round < 5; round++ {
				res, err := cli.Query(joinSQL)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				for {
					_, done, err := res.Cursor.Fetch(0)
					if err != nil {
						t.Errorf("fetch: %v", err)
						return
					}
					if done {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writerWg.Wait()
}

// TestServerShutdownMultiClientDrain shuts down under three clients
// with open cursors, one of which drops its connection mid-stream: the
// survivors drain to completion, the dead connection's cursor is
// reaped, and the server ends with zero connections and zero cursors.
func TestServerShutdownMultiClientDrain(t *testing.T) {
	db := newTestDB(t, 96)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{DefaultBatch: 8})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	const clients = 3
	clis := make([]*wire.Client, clients)
	curs := make([]*wire.Cursor, clients)
	for i := range clis {
		cli, err := wire.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cli.Query(joinSQL)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := res.Cursor.Fetch(0); err != nil {
			t.Fatal(err)
		}
		clis[i], curs[i] = cli, res.Cursor
	}

	// Client 2 vanishes mid-stream without closing its cursor: the
	// server must reap the cursor with the connection, not leak it into
	// the drain accounting.
	clis[2].Close()

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !srv.inShutdown.Load() {
		if time.Now().After(deadline) {
			t.Fatal("shutdown flag never set")
		}
		time.Sleep(time.Millisecond)
	}

	// The surviving clients drain their cursors to completion while the
	// server waits.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := 0
			for {
				rows, done, err := curs[i].Fetch(0)
				if err != nil {
					t.Errorf("client %d drain: %v", i, err)
					return
				}
				n += len(rows)
				if done {
					break
				}
			}
			if n == 0 {
				t.Errorf("client %d drained no rows", i)
			}
			clis[i].Close()
		}(i)
	}
	wg.Wait()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown with draining clients returned %v", err)
	}
	if err := <-serveErr; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	s := srv.Stats().Snapshot()
	if s.ConnsActive != 0 {
		t.Errorf("%d connections still accounted active after shutdown", s.ConnsActive)
	}
	if s.CursorsOpen != 0 {
		t.Errorf("%d cursors still accounted open after shutdown (mid-stream disconnect leaked)", s.CursorsOpen)
	}
}

// errAfterCursor yields n rows, then fails.
type errAfterCursor struct {
	n, emitted int
}

func (c *errAfterCursor) Next() (storage.RowID, storage.Row, bool, error) {
	if c.emitted >= c.n {
		return storage.InvalidRowID, nil, false, fmt.Errorf("backend exploded after %d rows", c.n)
	}
	c.emitted++
	return storage.InvalidRowID, storage.Row{storage.Int(int64(c.emitted))}, true, nil
}

func (c *errAfterCursor) NextBatch(b *storage.Batch, max int) error {
	if max <= 0 {
		max = storage.DefaultBatch
	}
	for range max {
		_, row, _, err := c.Next()
		if err != nil {
			return err
		}
		b.Rows = append(b.Rows, row)
	}
	return nil
}

func (c *errAfterCursor) Close() error { return nil }

type errAfterBackend struct{ n int }

func (b errAfterBackend) NewSession() Session { return errAfterSession{n: b.n} }

type errAfterSession struct{ n int }

func (s errAfterSession) Close() error { return nil }

func (s errAfterSession) ExecuteStream(sql string) (*sqlmini.Stream, error) {
	return &sqlmini.Stream{
		Schema: []storage.Column{{Name: "id", Type: storage.TInt64}},
		Cursor: &errAfterCursor{n: s.n},
	}, nil
}

// TestServerDeliversRowsBeforeCursorError pins the deferred-error
// contract: when a cursor fails mid-batch, the rows already assembled
// are delivered first and the error answers the next fetch — a late
// stream error (a cluster partial result, say) must not swallow
// results the engine already produced. At the default batch the error
// arrives while the server fills the first batch, so the seven rows
// come with the query reply; at batch 4 it arrives in the first Fetch.
func TestServerDeliversRowsBeforeCursorError(t *testing.T) {
	for _, batch := range []int{0, 4} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			srv, addr := startServer(t, errAfterBackend{n: 7}, Config{DefaultBatch: batch})
			cli := dial(t, addr)
			res, err := cli.Query("SELECT id FROM whatever")
			if err != nil {
				t.Fatal(err)
			}
			if n := srv.Stats().RowsStreamed.Value(); batch == 0 && n != 7 {
				t.Fatalf("%d rows produced with the query reply, want all 7", n)
			}
			rows := 0
			for {
				got, done, err := res.Cursor.Fetch(100)
				if err != nil {
					if !strings.Contains(err.Error(), "backend exploded") {
						t.Fatalf("fetch after %d rows: %v, want the deferred cursor error", rows, err)
					}
					break
				}
				if done {
					t.Fatalf("stream ended after %d rows without the cursor error", rows)
				}
				rows += len(got)
			}
			if rows != 7 {
				t.Fatalf("%d rows delivered before the error, want 7", rows)
			}
			// The errored cursor is reaped server-side.
			if n := srv.Stats().CursorsOpen.Value(); n != 0 {
				t.Fatalf("%d cursors still open after deferred error", n)
			}
		})
	}
}

// TestServeAfterShutdown pins the listener hand-off: a Shutdown that
// runs before Serve has registered its listener finds nothing to close,
// so Serve itself must notice and return — it used to block in Accept
// forever.
func TestServeAfterShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := New(spatialtf.Open(), Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown of a server that never served: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if err != ErrServerClosed {
			t.Fatalf("Serve after Shutdown returned %v, want ErrServerClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Serve after Shutdown is still accepting after 1s")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Error("the listener is still open after Serve returned")
	}
}

// TestWindowSelectSkipsConcurrentlyDeletedRows pins read-committed-per-
// fetch on the predicate path: a window SELECT resolves its rowids when
// the statement starts and fetches the rows batch by batch, so a DELETE
// on another connection in between must shorten the result, not fail it
// with "storage: row deleted". The second half runs the readers — the
// plain window SELECT, the same SELECT and its count(*) under a cluster
// scope, and an embedded Engine.Execute — against a concurrent deleter,
// for the race detector; an updater racing the deleter over the same
// rows pins the DML side of the rule: a row that is already gone is
// skipped, not an error that leaves the statement half applied.
func TestWindowSelectSkipsConcurrentlyDeletedRows(t *testing.T) {
	db := spatialtf.Open()
	_, addr := startTestServer(t, db, Config{DefaultBatch: 4})
	dial := func() *wire.Client {
		cli, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		return cli
	}
	reader, writer := dial(), dial()
	exec := func(cli *wire.Client, sql string) {
		t.Helper()
		if _, err := cli.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	const n = 400
	insert := func(cli *wire.Client, id int) {
		exec(cli, fmt.Sprintf("INSERT INTO pts VALUES (%d, 'POINT (%d %d)')", id, id%20, id/20))
	}
	exec(writer, "CREATE TABLE pts (id INT, geom GEOMETRY)")
	exec(writer, "CREATE INDEX pts_idx ON pts(geom) INDEXTYPE IS RTREE")
	for id := 0; id < n; id++ {
		insert(writer, id)
	}
	// The quarter of the rows the writers delete and update (ids 0..99).
	const quarter = " WHERE sdo_relate(geom, 'POLYGON ((-1 -1, 30 -1, 30 4.5, -1 4.5, -1 -1))', 'mask=anyinteract') = 'TRUE'"
	const window = "SELECT id FROM pts WHERE sdo_relate(geom, 'POLYGON ((-1 -1, 30 -1, 30 30, -1 30, -1 -1))', 'mask=anyinteract') = 'TRUE'"
	drain := func(cur *wire.Cursor) (int, error) {
		rows := 0
		for {
			batch, done, err := cur.Fetch(16)
			if err != nil {
				return rows, err
			}
			rows += len(batch)
			if done {
				return rows, nil
			}
		}
	}

	// The rowids are resolved and the first batch fetched with them; now
	// delete a quarter of the rows behind the open cursor. The rows of
	// the first batch were live at its fetch, so they count whatever
	// the DELETE removes.
	res, err := reader.Query(window)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := res.Cursor.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	want := n - 100
	for _, row := range first {
		if row[0].I < 100 {
			want++
		}
	}
	exec(writer, "DELETE FROM pts"+quarter)
	rows, err := drain(res.Cursor)
	if err != nil {
		t.Fatalf("window SELECT over rows deleted after it started: %v", err)
	}
	if rows += len(first); rows != want {
		t.Fatalf("window SELECT returned %d rows, want the %d that were not deleted or fetched first", rows, want)
	}

	// Reader and deleter at full tilt.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := n; ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			insert(writer, id%100) // rows 0..99 are the deleted quarter
			if id%10 == 9 {
				exec(writer, "DELETE FROM pts"+quarter)
			}
		}
	}()
	updater := dial()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := updater.Query("UPDATE pts SET id = 0" + quarter); err != nil {
				t.Errorf("UPDATE racing a DELETE of the same rows: %v", err)
				return
			}
		}
	}()
	// One shard owns every tile, so the scoped answers are the plain ones.
	scope := wire.Scope{MinX: -1, MinY: -1, MaxX: 30, MaxY: 30, Cols: 4, Rows: 4, NShards: 1}
	embedded := sqlmini.NewEngineOn(db)
	for i := 0; i < 150; i++ {
		res, err := reader.Query(window)
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := drain(res.Cursor); err != nil || rows < n-100 {
			t.Fatalf("window SELECT %d under a concurrent deleter: %d rows, %v", i, rows, err)
		}
		if res, err = reader.QueryScoped(window, scope); err != nil {
			t.Fatalf("scoped window SELECT %d under a concurrent deleter: %v", i, err)
		}
		if rows, err := drain(res.Cursor); err != nil || rows < n-100 {
			t.Fatalf("scoped window SELECT %d under a concurrent deleter: %d rows, %v", i, rows, err)
		}
		res, err = reader.QueryScoped(strings.Replace(window, "SELECT id", "SELECT count(*)", 1), scope)
		if err != nil || res.Count < n-100 {
			t.Fatalf("scoped window count(*) %d under a concurrent deleter: %+v, %v", i, res, err)
		}
		if r, err := embedded.Execute(window); err != nil || len(r.Rows) < n-100 {
			t.Fatalf("embedded window SELECT %d under a concurrent deleter: %v", i, err)
		}
	}
}
