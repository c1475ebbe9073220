package wire

import (
	"net"
	"testing"
	"time"
)

func TestScopedQueryCodec(t *testing.T) {
	sc := Scope{MinX: 0, MinY: -10, MaxX: 1000, MaxY: 990, Cols: 8, Rows: 4, NShards: 3, Shard: 2}
	b := AppendScopedQuery(nil, sc, "SELECT * FROM counties")
	got, sql, err := ParseScopedQuery(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != sc {
		t.Fatalf("scope: got %+v want %+v", got, sc)
	}
	if sql != "SELECT * FROM counties" {
		t.Fatalf("sql: got %q", sql)
	}
}

func TestScopedQueryRejectsBadScopes(t *testing.T) {
	cases := []Scope{
		{MinX: 10, MinY: 0, MaxX: 10, MaxY: 1, Cols: 1, Rows: 1, NShards: 1},         // empty X
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1, Cols: 0, Rows: 1, NShards: 1},           // zero cols
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1, Cols: 1, Rows: 1, NShards: 2, Shard: 2}, // shard out of range
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1, Cols: 1 << 20, Rows: 1, NShards: 1},     // grid too large
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1, Cols: 1, Rows: 1, NShards: 0},           // no shards
	}
	for i, sc := range cases {
		b := AppendScopedQuery(nil, sc, "SELECT 1")
		if _, _, err := ParseScopedQuery(b); err == nil {
			t.Errorf("case %d: scope %+v parsed without error", i, sc)
		}
	}
}

func TestScopedQueryTruncated(t *testing.T) {
	sc := Scope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1, Cols: 1, Rows: 1, NShards: 1}
	b := AppendScopedQuery(nil, sc, "SELECT 1")
	for n := 0; n < len(b); n++ {
		if _, _, err := ParseScopedQuery(b[:n]); err == nil {
			t.Fatalf("truncation at %d bytes parsed without error", n)
		}
	}
}

func TestQueryFirstCodec(t *testing.T) {
	sc := Scope{MinX: 0, MinY: -10, MaxX: 1000, MaxY: 990, Cols: 8, Rows: 4, NShards: 3, Shard: 2}
	for _, want := range []*Scope{nil, &sc} {
		b := AppendQueryFirst(nil, want, "SELECT id FROM counties")
		got, sql, err := ParseQueryFirst(b)
		if err != nil || sql != "SELECT id FROM counties" || (got == nil) != (want == nil) || (got != nil && *got != *want) {
			t.Fatalf("round trip of %v: %v %q, %v", want, got, sql, err)
		}
		// The form byte is the frame the rest of the payload would travel
		// as without QueryFirst.
		if want == nil && string(b[1:]) != string(AppendQuery(nil, sql)) ||
			want != nil && string(b[1:]) != string(AppendScopedQuery(nil, sc, sql)) {
			t.Fatalf("payload %x does not wrap the inner form's payload", b)
		}
		for n := 0; n < len(b); n++ {
			if _, _, err := ParseQueryFirst(b[:n]); err == nil {
				t.Fatalf("truncation at %d bytes parsed without error", n)
			}
		}
	}
	for _, form := range []FrameType{FrameFetch, FrameQueryFirst, 0} {
		if _, _, err := ParseQueryFirst(append([]byte{byte(form)}, AppendQuery(nil, "SELECT 1")...)); err == nil {
			t.Errorf("form 0x%02x accepted", byte(form))
		}
	}
	bad := Scope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1, Cols: 1, Rows: 1, NShards: 0}
	if _, _, err := ParseQueryFirst(AppendQueryFirst(nil, &bad, "SELECT 1")); err == nil {
		t.Error("invalid scope accepted")
	}
}

// TestClientReadTimeout proves a client with a read deadline fails with
// a net timeout instead of hanging when the server accepts, handshakes,
// and then goes silent.
func TestClientReadTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Complete the handshake, then never answer the query.
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, len(Magic))
		conn.Read(buf)
		conn.Write([]byte(Magic))
		hold := make([]byte, 1024)
		for {
			// Absorb frames, replying with nothing, until the client
			// gives up and closes the connection.
			if _, err := conn.Read(hold); err != nil {
				return
			}
		}
	}()
	c, err := DialWith(ln.Addr().String(), Options{
		DialTimeout: 2 * time.Second,
		ReadTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Query("SELECT 1")
	if err == nil {
		t.Fatal("query against silent server succeeded")
	}
	nerr, ok := err.(net.Error)
	if !ok || !nerr.Timeout() {
		t.Fatalf("want net timeout error, got %T: %v", err, err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, deadline was 100ms", elapsed)
	}
	c.Close()
	<-srvDone
}

// TestClientDialTimeoutHandshake proves the handshake itself is bounded:
// a server that accepts but never sends its magic cannot hang DialWith.
func TestClientDialTimeoutHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		conn.Read(buf) // swallow the client magic, send nothing back
		conn.Read(buf) // block until the client gives up and closes
	}()
	start := time.Now()
	_, err = DialWith(ln.Addr().String(), Options{DialTimeout: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("dial against mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("handshake timeout took %v, deadline was 100ms", elapsed)
	}
	<-done
}

// TestClientNoTimeoutStillWorks guards back-compat: zero Options must
// behave exactly like the historical deadline-free client.
func TestClientNoTimeoutStillWorks(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, len(Magic))
		if _, err := conn.Read(buf); err != nil {
			return
		}
		conn.Write([]byte(Magic))
	}()
	c, err := NewClientWith(mustDial(t, ln.Addr().String()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-done
}

func mustDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}
