package spatialtf_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"net"
	"testing"
	"time"

	"spatialtf"
	"spatialtf/internal/geom"
	"spatialtf/internal/server"
	"spatialtf/internal/sqlmini"
	"spatialtf/internal/storage"
	"spatialtf/internal/wire"
)

// frameStatements are the join statements whose replies are pinned byte
// for byte. Every one runs a single join instance, so its pairs come in
// one order and its batches break at the same rows on every run.
var frameStatements = []struct {
	name, sql string
	scoped    bool
	// frames is the SHA-256 of every byte the server sends in reply
	// (Describe and Batch frames, or the Result frame of a count);
	// text is the SHA-256 of the statement's cells as Engine.Execute
	// materialises them and as ExecuteStream's rows render through
	// Value.String.
	frames, text string
}{
	{"rid1 rid2", "SELECT rid1, rid2 FROM TABLE(spatial_join('stars','geom','stars','geom','distance=1.5'))", false,
		"c1aac38a90658acffd1ebd2e381cee37fd7bffc3b786e076c9418cf999cf8a00",
		"f333acd231e3cdb2789390a45686d53ba5769b5bbc9d34a02a995cad1658492e"},
	{"rid2 rid1", "SELECT rid2, rid1 FROM TABLE(spatial_join('stars','geom','stars','geom','distance=1.5'))", false,
		"67c87733a4defdd96e284cd1df5ad637fb6af7d804d3d32c3e383378b8432bea",
		"f962bc7bcc56790cd08c789e62a9f1851a74a358b1eaf9afe3c3d5a2eb46d988"},
	{"rid1", "SELECT rid1 FROM TABLE(spatial_join('stars','geom','stars','geom','distance=1.5'))", false,
		"9d11b985a2d1af1419b3fba1e437a1890d055e2c1dd5b374ca7fa5f9616bbac6",
		"bf45dfb4c86a3d094fc32bfa2b2aae6491ccf328bb50e3549b6e29e1887edd6d"},
	{"keys", "SELECT key1, key2 FROM TABLE(spatial_join('stars','geom','stars','geom','distance=1.5','keys=id:id'))", false,
		"28ddee9ed3f4e603f8e73cc5dbb01cfc944f36e03c417e5932a669d3b32fd4f6",
		"7d4ba7b44b9c6203131211ad2d4f13d8733e6287cba74c159194a3c9fafc5d16"},
	{"count", "SELECT count(*) FROM TABLE(spatial_join('stars','geom','stars','geom','distance=1.5'))", false,
		"9b18e1e9805439139abcb67807cd89f46360a7ef875f041b42ae1a4a4fd703dc",
		"2709c24ac39c85fb9c70189c6c2e5b5ad03931ef53cd092182f25b3305bc8e22"},
	{"grid", "SELECT * FROM TABLE(spatial_join('stars','geom','stars','geom','distance=1.5','algo=grid', 1))", false,
		"748392d719efa3febc7342137e2beb162aaf502738c845aab17b3b5234641aee",
		"00d34f19254f3dd2d713c5509201d78baf417108a040ba4f1bf5fadcd7fda906"},
	{"scoped", "SELECT rid1, rid2 FROM TABLE(spatial_join('stars','geom','stars','geom','distance=1.5'))", true,
		"3a5c1e79215928a2265509c9d4270502e1563fb8f8970982a8bf5336eff7f5d1",
		"6c1ca922bd2bfcc44557525b0baac76611a325d4f9cc104fc28d06aa9be4267b"},
}

// frameScope is the scope of the scoped statement: shard 0 of a 3-shard
// cluster gridded 4×4 over the data generator's world.
var frameScope = wire.Scope{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000, Cols: 4, Rows: 4, NShards: 3, Shard: 0}

// hashConn hashes every byte read through it.
type hashConn struct {
	net.Conn
	h hash.Hash
}

func (c *hashConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.h.Write(p[:n])
	return n, err
}

// frameDB is the pinned database: 2 000 star centres, one R-tree.
func frameDB(t *testing.T) *spatialtf.DB {
	t.Helper()
	ds := spatialtf.Stars(2000, 1)
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
	return db
}

// TestJoinReplyBytesPinned pins what a join statement puts on the wire
// and what it renders as text, so a change to how pair rows are built
// inside the server must leave every frame byte as it was.
func TestJoinReplyBytesPinned(t *testing.T) {
	db := frameDB(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hc := &hashConn{Conn: conn, h: sha256.New()}
	cli, err := wire.NewClient(hc)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	eng := sqlmini.NewEngineOn(db)
	sc := spatialtf.NewClusterScope(spatialtf.World, frameScope.Cols, frameScope.Rows, frameScope.NShards, frameScope.Shard)

	for _, st := range frameStatements {
		hc.h.Reset()
		var res *wire.QueryResult
		if st.scoped {
			res, err = cli.QueryScoped(st.sql, frameScope)
		} else {
			res, err = cli.Query(st.sql)
		}
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		rows := 0
		for res.Cursor != nil {
			batch, done, err := res.Cursor.Fetch(0)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			rows += len(batch)
			if done {
				break
			}
		}
		if res.Cursor != nil && rows <= 2*storage.DefaultBatch {
			t.Fatalf("%s: %d rows; the pin needs replies of several batches", st.name, rows)
		}
		frames := hex.EncodeToString(hc.h.Sum(nil))

		text := sha256.New()
		var scope *spatialtf.ClusterScope
		if st.scoped {
			scope = sc
		} else {
			r, err := eng.Execute(st.sql)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			for _, row := range append([][]string{r.Columns}, r.Rows...) {
				for _, cell := range row {
					text.Write([]byte(cell))
					text.Write([]byte{0})
				}
				text.Write([]byte{'\n'})
			}
		}
		s, err := eng.ExecuteStreamScoped(st.sql, scope)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		for s.Cursor != nil {
			var b storage.Batch
			if err := s.Cursor.NextBatch(&b, 0); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			if len(b.Rows) == 0 {
				s.Cursor.Close()
				break
			}
			for _, row := range b.Rows {
				for _, v := range row {
					text.Write([]byte(v.String()))
					text.Write([]byte{0})
				}
				text.Write([]byte{'\n'})
			}
		}
		texts := hex.EncodeToString(text.Sum(nil))
		if frames != st.frames || texts != st.text {
			t.Errorf("%s: reply digests\n\t%s %s\nwant\n\t%s %s", st.name, frames, texts, st.frames, st.text)
		}
	}
}
