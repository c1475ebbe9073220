package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialtf"
	"spatialtf/internal/geom"
	"spatialtf/internal/sqlmini"
	"spatialtf/internal/storage"
	"spatialtf/internal/wire"
)

// The grid of 600 unit-spaced points (30 × 20) the QueryFirst tests run
// against: the window matches three of them, the self-join pairs each
// point with itself only, and the scan is longer than one default batch.
const (
	gridPoints = 600
	gridWindow = "SELECT id FROM pts WHERE sdo_relate(geom, 'POLYGON ((-0.5 -0.5, 2.5 -0.5, 2.5 0.5, -0.5 0.5, -0.5 -0.5))', 'mask=anyinteract') = 'TRUE'"
	gridJoin   = "SELECT rid1, rid2 FROM TABLE(spatial_join('pts','geom','pts','geom','anyinteract', 0))"
	gridScan   = "SELECT id FROM pts"
	gridCount  = "SELECT count(*) FROM pts"
	gridUpdate = "UPDATE pts SET name = 'seen' WHERE sdo_relate(geom, 'POLYGON ((-0.5 -0.5, 2.5 -0.5, 2.5 0.5, -0.5 0.5, -0.5 -0.5))', 'mask=anyinteract') = 'TRUE'"
)

// gridScope puts the whole grid on the one shard of a one-shard cluster.
var gridScope = wire.Scope{MinX: -1, MinY: -1, MaxX: 31, MaxY: 21, Cols: 2, Rows: 2, NShards: 1}

func newGridDB(t testing.TB) *spatialtf.DB {
	t.Helper()
	ds := spatialtf.Dataset{Name: "pts"}
	for i := 0; i < gridPoints; i++ {
		ds.Geoms = append(ds.Geoms, geom.NewPoint(float64(i%30), float64(i/30)))
	}
	db := spatialtf.Open()
	if _, err := db.LoadDataset("pts", ds); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("pts_idx", "pts", spatialtf.RTree, spatialtf.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	return db
}

func dial(t testing.TB, addr string) *wire.Client {
	t.Helper()
	cli, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// answer runs one statement and renders its outcome: the sorted rows of
// a cursor, drained with Fetch(0) as the benchmark drains one, or the
// formatted immediate result.
func answer(cli *wire.Client, sql string, sc *wire.Scope) (string, error) {
	var res *wire.QueryResult
	var err error
	if sc == nil {
		res, err = cli.Query(sql)
	} else {
		res, err = cli.QueryScoped(sql, *sc)
	}
	if err != nil {
		return "", err
	}
	if res.Cursor == nil {
		return (&sqlmini.Result{Message: res.Message, Columns: res.Columns, Rows: res.Rows}).Format(), nil
	}
	var lines []string
	for {
		rows, done, err := res.Cursor.Fetch(0)
		if err != nil {
			return "", err
		}
		for _, row := range rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			lines = append(lines, strings.Join(cells, "|"))
		}
		if done {
			break
		}
	}
	sort.Strings(lines)
	return fmt.Sprintf("%d rows\n%s", len(lines), strings.Join(lines, "\n")), nil
}

// frameProxy relays connections to a server and counts the request
// frames that pass, by type. A frame of type reject is not relayed: the
// proxy answers it the way the dispatch loop of a server that predates
// that type does, so the pair stands in for such a server.
type frameProxy struct {
	addr   string
	reject wire.FrameType

	mu     sync.Mutex
	frames map[wire.FrameType]int
	conns  []net.Conn
	wg     sync.WaitGroup
}

func startProxy(t testing.TB, target string, reject wire.FrameType) *frameProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &frameProxy{addr: ln.Addr().String(), reject: reject, frames: map[wire.FrameType]int{}}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				nc.Close()
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, nc, up)
			p.mu.Unlock()
			p.wg.Add(2)
			go func() {
				defer p.wg.Done()
				io.Copy(nc, up)
				nc.Close()
			}()
			go func() {
				defer p.wg.Done()
				p.relay(nc, up)
				up.Close()
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
	return p
}

// relay moves the client's magic, then its frames one at a time.
func (p *frameProxy) relay(client, server net.Conn) {
	br := bufio.NewReader(client)
	toServer := bufio.NewWriter(server)
	toClient := bufio.NewWriter(client)
	if _, err := io.CopyN(server, br, int64(len(wire.Magic))); err != nil {
		return
	}
	for {
		t, payload, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		p.mu.Lock()
		p.frames[t]++
		p.mu.Unlock()
		if t == p.reject {
			msg := fmt.Sprintf("unknown frame type 0x%02x", byte(t))
			if wire.WriteFrame(toClient, wire.FrameError, wire.AppendError(nil, msg)) != nil || toClient.Flush() != nil {
				return
			}
			continue
		}
		if wire.WriteFrame(toServer, t, payload) != nil || toServer.Flush() != nil {
			return
		}
	}
}

// take returns the request frames counted since the last call.
func (p *frameProxy) take() map[wire.FrameType]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.frames
	p.frames = map[wire.FrameType]int{}
	return out
}

// TestQueryFirstRoundTrips pins the round trips a statement costs,
// counted as request frames at the server: a 3-row window SELECT is one
// QueryFirst and nothing else, and a 600-row join at the default batch
// of 256 is the QueryFirst plus two Fetches — the last batch ends the
// stream, so no CloseCursor either.
func TestQueryFirstRoundTrips(t *testing.T) {
	srv, addr := startTestServer(t, newGridDB(t), Config{})
	proxy := startProxy(t, addr, 0)
	cli := dial(t, proxy.addr)
	for _, c := range []struct {
		sql    string
		rows   string
		frames map[wire.FrameType]int
	}{
		{gridWindow, "3 rows", map[wire.FrameType]int{wire.FrameQueryFirst: 1}},
		{gridJoin, "600 rows", map[wire.FrameType]int{wire.FrameQueryFirst: 1, wire.FrameFetch: 2}},
	} {
		got, err := answer(cli, c.sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(got, c.rows+"\n") {
			t.Fatalf("%s: got %.20q…, want %s", c.sql, got, c.rows)
		}
		if frames := proxy.take(); fmt.Sprint(frames) != fmt.Sprint(c.frames) {
			t.Errorf("%s: request frames %v, want %v", c.sql, frames, c.frames)
		}
	}
	// Fetch(1) hands the first batch out a row at a time, without asking
	// the server again.
	res, err := cli.Query(gridWindow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		rows, done, err := res.Cursor.Fetch(1)
		if err != nil || len(rows) != 1 || done != (i == 3) {
			t.Fatalf("Fetch(1) #%d: %d rows, done=%v, %v", i, len(rows), done, err)
		}
	}
	if frames := proxy.take(); fmt.Sprint(frames) != fmt.Sprint(map[wire.FrameType]int{wire.FrameQueryFirst: 1}) {
		t.Errorf("window drained a row at a time: request frames %v, want one QueryFirst", frames)
	}
	// Only the join held a server cursor.
	if s := srv.Stats().Snapshot(); s.CursorsOpened != 1 || s.CursorsOpen != 0 {
		t.Errorf("cursors opened %d, open %d; want 1 and 0", s.CursorsOpened, s.CursorsOpen)
	}
}

// TestQueryFirstOneBatchHoldsNoCursor: with the one cursor slot of a
// connection taken by a join mid-stream, a window SELECT that ends in
// its first batch still runs, because it never holds a server cursor;
// another join does not.
func TestQueryFirstOneBatchHoldsNoCursor(t *testing.T) {
	srv, addr := startTestServer(t, newGridDB(t), Config{MaxCursorsPerConn: 1})
	cli := dial(t, addr)
	join, err := cli.Query(gridJoin)
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := join.Cursor.Fetch(0); err != nil || done {
		t.Fatalf("join first batch: done=%v err=%v, want a held cursor", done, err)
	}
	for i := 0; i < 3; i++ {
		got, err := answer(cli, gridWindow, nil)
		if err != nil || !strings.HasPrefix(got, "3 rows\n") {
			t.Fatalf("window SELECT %d beside a held cursor: %q, %v", i, got, err)
		}
	}
	if n := srv.Stats().CursorsOpen.Value(); n != 1 {
		t.Errorf("%d server cursors open, want only the join's", n)
	}
	if _, err := cli.Query(gridJoin); err == nil || !strings.Contains(err.Error(), "cursor limit") {
		t.Fatalf("second join: %v, want the cursor limit", err)
	}
	if err := join.Cursor.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Stats().CursorsOpen.Value(); n != 0 {
		t.Errorf("%d server cursors open after Close", n)
	}
}

// TestQueryFirstOneBatchReleasesPins: a join that ends in its first
// batch is closed before the reply is written, so its operand R-tree
// pins are gone while the client still holds the unread cursor, and
// DML on the joined tables goes ahead rather than waiting for them.
func TestQueryFirstOneBatchReleasesPins(t *testing.T) {
	_, addr := startTestServer(t, newGridDB(t), Config{})
	reader := dial(t, addr)
	writer, err := wire.DialWith(addr, wire.Options{ReadTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	for _, sql := range []string{
		"CREATE TABLE few (id INT, name VARCHAR, geom GEOMETRY)",
		"CREATE INDEX few_idx ON few(geom) INDEXTYPE IS RTREE",
		"INSERT INTO few VALUES (1, 'a', 'POINT (0 0)')",
		"INSERT INTO few VALUES (2, 'b', 'POINT (1 0)')",
	} {
		if _, err := writer.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	res, err := reader.Query("SELECT rid1, rid2 FROM TABLE(spatial_join('pts','geom','few','geom','anyinteract', 0))")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"INSERT INTO pts VALUES (9000, 'late', 'POINT (0 0)')",
		"INSERT INTO few VALUES (3, 'c', 'POINT (2 0)')",
	} {
		if _, err := writer.Query(sql); err != nil {
			t.Fatalf("%s beside an unread one-batch join: %v", sql, err)
		}
	}
	if rows, done, err := res.Cursor.Fetch(0); err != nil || !done || len(rows) != 2 {
		t.Fatalf("join: %d rows, done=%v, %v; want the 2 pairs of its first fetch", len(rows), done, err)
	}
}

// TestQueryFirstErrorWithoutRows: a cursor that fails before its first
// row makes Query itself fail with the server's message, leaves no
// server cursor, and leaves the connection in step.
func TestQueryFirstErrorWithoutRows(t *testing.T) {
	_, addr := startServer(t, errAfterBackend{n: 0}, Config{})
	cli := dial(t, addr)
	for i := 0; i < 2; i++ {
		_, err := cli.Query("SELECT id FROM whatever")
		var re *wire.RemoteError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, "backend exploded after 0 rows") {
			t.Fatalf("query %d: %v, want a RemoteError with the cursor's message", i, err)
		}
	}
	s, err := cli.Stats()
	if err != nil {
		t.Fatalf("connection unusable after the error: %v", err)
	}
	if s.CursorsOpen != 0 || s.CursorsOpened != 0 || s.Errors != 2 {
		t.Errorf("stats after two failed queries: %+v", s)
	}
}

// TestQueryFirstRowDeletedAfterReply: rows that came with the query
// reply were live at the statement's first fetch, so a DELETE that
// commits before the client reads them does not take them back.
func TestQueryFirstRowDeletedAfterReply(t *testing.T) {
	_, addr := startTestServer(t, newGridDB(t), Config{})
	reader, writer := dial(t, addr), dial(t, addr)
	res, err := reader.Query(gridWindow)
	if err != nil {
		t.Fatal(err)
	}
	del, err := writer.Query(strings.Replace(gridWindow, "SELECT id FROM", "DELETE FROM", 1))
	if err != nil || del.Message != "3 rows deleted" {
		t.Fatalf("DELETE: %+v, %v", del, err)
	}
	rows, done, err := res.Cursor.Fetch(0)
	if err != nil || !done || len(rows) != 3 {
		t.Fatalf("window SELECT after the DELETE: %d rows, done=%v, %v; want the 3 live at its first fetch", len(rows), done, err)
	}
	for _, row := range rows {
		if row[0].I > 2 {
			t.Errorf("window returned id %d, want ids 0, 1 and 2", row[0].I)
		}
	}
}

// TestQueryFirstFallbackToOldServer: a server that predates QueryFirst
// answers it with "unknown frame type". The client sends the statement
// again as Query or ScopedQuery, once, and from then on sends only the
// old frames on that connection — with answers identical to a new
// server's for SELECT (one batch and many), scoped SELECT, DML and
// COUNT.
func TestQueryFirstFallbackToOldServer(t *testing.T) {
	_, addr := startTestServer(t, newGridDB(t), Config{})
	old := startProxy(t, addr, wire.FrameQueryFirst)
	viaOld, direct := dial(t, old.addr), dial(t, addr)
	stmts := []struct {
		sql   string
		scope *wire.Scope
		sent  wire.FrameType
	}{
		{gridWindow, nil, wire.FrameQuery},
		{gridWindow, &gridScope, wire.FrameScopedQuery},
		{gridScan, nil, wire.FrameQuery},
		{gridScan, &gridScope, wire.FrameScopedQuery},
		{gridCount, nil, wire.FrameQuery},
		{gridCount, &gridScope, wire.FrameScopedQuery},
		{gridUpdate, nil, wire.FrameQuery},
		{gridJoin, nil, wire.FrameQuery},
	}
	for i, st := range stmts {
		got, err := answer(viaOld, st.sql, st.scope)
		if err != nil {
			t.Fatalf("%s via an old server: %v", st.sql, err)
		}
		want, err := answer(direct, st.sql, st.scope)
		if err != nil {
			t.Fatalf("%s: %v", st.sql, err)
		}
		if got != want {
			t.Errorf("%s: old server answered\n%.200s\nnew server\n%.200s", st.sql, got, want)
		}
		frames := old.take()
		wantFirst := 0
		if i == 0 {
			wantFirst = 1
		}
		if frames[wire.FrameQueryFirst] != wantFirst || frames[st.sent] != 1 {
			t.Errorf("%s: request frames %v, want %d QueryFirst and one 0x%02x", st.sql, frames, wantFirst, byte(st.sent))
		}
	}
}

// countingBackend counts the statements its sessions execute.
type countingBackend struct {
	db    *spatialtf.DB
	stmts *atomic.Int64
}

func (b countingBackend) NewSession() Session {
	return countingSession{dbSession{eng: sqlmini.NewEngineOn(b.db)}, b.stmts}
}

type countingSession struct {
	dbSession
	stmts *atomic.Int64
}

func (s countingSession) ExecuteStream(sql string) (*sqlmini.Stream, error) {
	s.stmts.Add(1)
	return s.dbSession.ExecuteStream(sql)
}

func (s countingSession) ExecuteStreamScoped(sql string, sc wire.Scope) (*sqlmini.Stream, error) {
	s.stmts.Add(1)
	return s.dbSession.ExecuteStreamScoped(sql, sc)
}

// TestQueryFirstRejectionIsNotRetried: a statement a new server rejects
// — a SQL error or a failed DML statement — comes back as a
// RemoteError after running exactly once; the client never sends it
// again as a Query, since the server may already have applied it.
func TestQueryFirstRejectionIsNotRetried(t *testing.T) {
	var stmts atomic.Int64
	_, addr := startServer(t, countingBackend{db: newGridDB(t), stmts: &stmts}, Config{})
	proxy := startProxy(t, addr, 0)
	cli := dial(t, proxy.addr)
	for _, c := range []struct {
		sql   string
		scope *wire.Scope
	}{
		{"SELEK nonsense", nil},
		{"SELECT id FROM missing", nil},
		{"INSERT INTO pts VALUES (9000, 'bad', 'POINT (1')", nil},
		{"UPDATE missing SET name = 'x'", nil},
		{"INSERT INTO pts VALUES (9000, 'bad', 'POINT (1')", &gridScope},
	} {
		before := stmts.Load()
		_, err := answer(cli, c.sql, c.scope)
		if !errors.As(err, new(*wire.RemoteError)) {
			t.Fatalf("%s: %v, want a RemoteError", c.sql, err)
		}
		if n := stmts.Load() - before; n != 1 {
			t.Errorf("%s: executed %d times, want once", c.sql, n)
		}
		if frames := proxy.take(); len(frames) != 1 || frames[wire.FrameQueryFirst] != 1 {
			t.Errorf("%s: request frames %v, want one QueryFirst", c.sql, frames)
		}
	}
	if got, err := answer(cli, gridWindow, nil); err != nil || !strings.HasPrefix(got, "3 rows\n") {
		t.Fatalf("connection after the rejections: %q, %v", got, err)
	}
}

// rawConn speaks frames without a wire.Client, as a client that
// predates QueryFirst does.
type rawConn struct {
	t  *testing.T
	br *bufio.Reader
	bw *bufio.Writer
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	r := &rawConn{t: t, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	if wire.WriteMagic(r.bw) != nil || r.bw.Flush() != nil || wire.ExpectMagic(r.br) != nil {
		t.Fatal("handshake failed")
	}
	return r
}

// call sends one frame and returns the next frame read, which must be
// of type want.
func (r *rawConn) call(ft wire.FrameType, payload []byte, want wire.FrameType) []byte {
	r.t.Helper()
	if ft != 0 {
		if wire.WriteFrame(r.bw, ft, payload) != nil || r.bw.Flush() != nil {
			r.t.Fatal("write failed")
		}
	}
	got, reply, err := wire.ReadFrame(r.br)
	if err != nil {
		r.t.Fatal(err)
	}
	if got != want {
		r.t.Fatalf("reply frame 0x%02x to 0x%02x, want 0x%02x (%q)", byte(got), byte(ft), byte(want), reply)
	}
	return reply
}

// TestOldClientRepliesUnchanged: a client that predates QueryFirst —
// Query, then Fetch — gets from a new server exactly the frames an old
// server sends: a Describe alone (the Stats reply that follows it is
// the next frame, not a stray batch), then one Batch per Fetch. Their
// bytes equal the encoders' image of the engine's own answer, and equal
// the Describe and Batches a QueryFirst client receives.
func TestOldClientRepliesUnchanged(t *testing.T) {
	db := newGridDB(t)
	_, addr := startTestServer(t, db, Config{})
	eng := sqlmini.NewEngineOn(db)
	for _, sql := range []string{gridWindow, gridScan} {
		st, err := eng.ExecuteStream(sql)
		if err != nil {
			t.Fatal(err)
		}
		var all storage.Batch
		for n := -1; n < len(all.Rows); {
			n = len(all.Rows)
			if err := st.Cursor.NextBatch(&all, 1<<20); err != nil {
				t.Fatal(err)
			}
		}
		st.Cursor.Close()

		oldc, newc := dialRaw(t, addr), dialRaw(t, addr)
		describe := oldc.call(wire.FrameQuery, wire.AppendQuery(nil, sql), wire.FrameDescribe)
		oldc.call(wire.FrameStats, nil, wire.FrameStatsReply)
		if want := wire.AppendDescribe(nil, 1, st.Schema); string(describe) != string(want) {
			t.Fatalf("%s: Describe %x, want %x", sql, describe, want)
		}
		if got := newc.call(wire.FrameQueryFirst, wire.AppendQueryFirst(nil, nil, sql), wire.FrameDescribe); string(got) != string(describe) {
			t.Fatalf("%s: QueryFirst Describe %x, Query Describe %x", sql, got, describe)
		}
		for lo, first := 0, true; lo < len(all.Rows); lo, first = lo+256, false {
			hi := min(lo+256, len(all.Rows))
			want, err := wire.AppendBatch(nil, 1, hi == len(all.Rows), st.Schema, all.Rows[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			if got := oldc.call(wire.FrameFetch, wire.AppendFetch(nil, 1, 0), wire.FrameBatch); string(got) != string(want) {
				t.Fatalf("%s: Batch at row %d differs from the engine's answer", sql, lo)
			}
			var got []byte
			if first {
				got = newc.call(0, nil, wire.FrameBatch)
			} else {
				got = newc.call(wire.FrameFetch, wire.AppendFetch(nil, 1, 0), wire.FrameBatch)
			}
			if string(got) != string(want) {
				t.Fatalf("%s: QueryFirst Batch at row %d differs from the Query client's", sql, lo)
			}
		}
		newc.call(wire.FrameStats, nil, wire.FrameStatsReply)
	}
	// An immediate result is one Result frame, the same for both frames.
	oldc, newc := dialRaw(t, addr), dialRaw(t, addr)
	res := oldc.call(wire.FrameQuery, wire.AppendQuery(nil, gridCount), wire.FrameResult)
	if got := newc.call(wire.FrameQueryFirst, wire.AppendQueryFirst(nil, nil, gridCount), wire.FrameResult); string(got) != string(res) {
		t.Fatalf("COUNT: QueryFirst Result %x, Query Result %x", got, res)
	}
	want := wire.AppendResult(nil, wire.Result{HasCount: true, Count: gridPoints,
		Columns: []string{"COUNT(*)"}, Rows: [][]string{{fmt.Sprint(gridPoints)}}})
	if string(res) != string(want) {
		t.Fatalf("COUNT: Result %x, want %x", res, want)
	}
}
