package wire_test

import (
	"context"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialtf"
	"spatialtf/internal/geom"
	"spatialtf/internal/server"
	"spatialtf/internal/storage"
	"spatialtf/internal/wire"
)

// shareStatements are streamed by two cursors of one client at once: a
// join's rowid pairs and a heap scan with string and integer cells.
var shareStatements = [2]string{
	"SELECT rid1, rid2 FROM TABLE(spatial_join('stars','geom','stars','geom','distance=1.5'))",
	"SELECT name, id FROM stars",
}

// serveStars serves 3 000 star centres, indexed, on loopback and returns
// the address; the server is shut down when the test ends.
func serveStars(t *testing.T) string {
	t.Helper()
	ds := spatialtf.Stars(3000, 1)
	for i, g := range ds.Geoms {
		c := geom.MBROf(g).Center()
		ds.Geoms[i] = geom.NewPoint(c.X, c.Y)
	}
	db := spatialtf.Open()
	if _, err := db.LoadDataset("stars", ds); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("stars_idx", "stars", spatialtf.RTree, spatialtf.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// renderRow is a row's cells as one line of text, copied out of the
// row, so it outlives the batch the row was decoded into.
func renderRow(row storage.Row) string {
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = v.String()
	}
	return strings.Join(cells, "|")
}

// drainRendered drains cur in fetches of max rows, through Fetch (the
// cursor's own batch) or through FetchInto a batch reset before every
// fetch, and renders every row.
func drainRendered(cur *wire.Cursor, max int, into bool) ([]string, error) {
	var out []string
	var b storage.Batch
	for {
		var rows []storage.Row
		var done bool
		var err error
		if into {
			b.Reset()
			done, err = cur.FetchInto(&b, max)
			rows = b.Rows
		} else {
			rows, done, err = cur.Fetch(max)
		}
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			out = append(out, renderRow(row))
		}
		if done {
			return out, cur.Close()
		}
	}
}

// TestCursorsShareClient streams two statements through two cursors of
// one client from two goroutines at once, in small fetches so their
// round trips interleave. Each cursor reads its replies into frame
// buffers of its own, so each must return exactly the rows it returns
// when drained alone. Run it under -race.
func TestCursorsShareClient(t *testing.T) {
	cli, err := wire.Dial(serveStars(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var want [2][]string
	for i, sql := range shareStatements {
		res, err := cli.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = drainRendered(res.Cursor, 0, false); err != nil {
			t.Fatal(err)
		}
		if len(want[i]) <= 4*storage.DefaultBatch {
			t.Fatalf("%q: %d rows; the test needs many fetches", sql, len(want[i]))
		}
	}
	for round := range 3 {
		var curs [2]*wire.Cursor
		for i, sql := range shareStatements {
			res, err := cli.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			curs[i] = res.Cursor
		}
		var got [2][]string
		var wg sync.WaitGroup
		for i := range curs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if got[i], err = drainRendered(curs[i], 37+20*i, (i+round)%2 == 0); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("round %d, %q: %d rows differ from the solo drain's %d", round, shareStatements[i], len(got[i]), len(want[i]))
			}
		}
	}
}
