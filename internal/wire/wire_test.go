package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	payloads := [][]byte{nil, {}, {0x01}, bytes.Repeat([]byte{0xAB}, 4096)}
	for i, p := range payloads {
		if err := WriteFrame(bw, FrameType(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&buf)
	for i, p := range payloads {
		ft, got, err := ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if ft != FrameType(i+1) {
			t.Fatalf("frame %d: type %d, want %d", i, ft, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(got), len(p))
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := WriteFrame(bw, FrameQuery, make([]byte, MaxFrame+1)); err == nil {
		t.Errorf("oversize write accepted")
	}
	// A forged oversize header is rejected on read before allocating.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(FrameQuery)}
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr))); err == nil {
		t.Errorf("oversize read accepted")
	}
}

func TestMagicHandshake(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMagic(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ExpectMagic(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ExpectMagic(strings.NewReader("NOTMAGIC")); err == nil {
		t.Errorf("bad magic accepted")
	}
	if err := ExpectMagic(strings.NewReader("STF")); err == nil {
		t.Errorf("truncated magic accepted")
	}
}

func TestQueryFetchCloseCodec(t *testing.T) {
	sql := "SELECT * FROM t WHERE sdo_relate(geom, 'POINT (1 2)', 'mask=inside') = 'TRUE'"
	got, err := ParseQuery(AppendQuery(nil, sql))
	if err != nil || got != sql {
		t.Fatalf("query round trip: %q, %v", got, err)
	}
	id, maxRows, err := ParseFetch(AppendFetch(nil, 42, 1000))
	if err != nil || id != 42 || maxRows != 1000 {
		t.Fatalf("fetch round trip: %d/%d, %v", id, maxRows, err)
	}
	cid, err := ParseCloseCursor(AppendCloseCursor(nil, 7))
	if err != nil || cid != 7 {
		t.Fatalf("close round trip: %d, %v", cid, err)
	}
	// Trailing garbage is rejected.
	if _, _, err := ParseFetch(append(AppendFetch(nil, 1, 2), 0x00)); err == nil {
		t.Errorf("trailing bytes accepted")
	}
	if _, err := ParseQuery(nil); err == nil {
		t.Errorf("empty query payload accepted")
	}
}

func TestDescribeCodec(t *testing.T) {
	schema := []storage.Column{
		{Name: "id", Type: storage.TInt64},
		{Name: "name", Type: storage.TString},
		{Name: "geom", Type: storage.TGeometry},
	}
	id, got, err := ParseDescribe(AppendDescribe(nil, 3, schema))
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 || !reflect.DeepEqual(got, schema) {
		t.Fatalf("describe round trip: id=%d schema=%+v", id, got)
	}
}

func TestBatchCodec(t *testing.T) {
	g, err := geom.ParseWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	if err != nil {
		t.Fatal(err)
	}
	schema := []storage.Column{
		{Name: "id", Type: storage.TInt64},
		{Name: "name", Type: storage.TString},
		{Name: "geom", Type: storage.TGeometry},
	}
	rows := []storage.Row{
		{storage.Int(1), storage.Str("alpha"), storage.Geom(g)},
		{storage.Int(2), storage.Str("beta"), storage.Geom(g)},
	}
	img, err := AppendBatch(nil, 9, true, schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	id, done, got, err := ParseBatch(img, schema)
	if err != nil {
		t.Fatal(err)
	}
	if id != 9 || !done || len(got) != 2 {
		t.Fatalf("batch header: id=%d done=%v rows=%d", id, done, len(got))
	}
	if got[0][0].I != 1 || got[0][1].S != "alpha" || got[1][0].I != 2 {
		t.Fatalf("batch scalars corrupted: %v", got)
	}
	if !got[0][2].G.Equal(g) {
		t.Fatalf("geometry did not survive the wire: %v", got[0][2].G)
	}
	// Empty batch.
	img, err = AppendBatch(nil, 1, false, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, done, got, err := ParseBatch(img, schema); err != nil || done || len(got) != 0 {
		t.Fatalf("empty batch: done=%v rows=%d err=%v", done, len(got), err)
	}
	// Truncated payload.
	img, _ = AppendBatch(nil, 9, true, schema, rows)
	if _, _, _, err := ParseBatch(img[:len(img)/2], schema); err == nil {
		t.Errorf("truncated batch accepted")
	}
}

// TestBatchCodecAllocFloor holds the batch frame codec to its
// allocation counts per batch of 64 rows. Encoding into a reused buffer
// and writing the frame allocate nothing. Decoding costs the batch's one
// string, its row and value slabs, and the storage each geometry value
// decodes into (two allocations per polygon). Decoding into a reused
// batch, as a cursor does, costs the string and the geometries only.
func TestBatchCodecAllocFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g, err := geom.ParseWKT("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	if err != nil {
		t.Fatal(err)
	}
	schema := []storage.Column{
		{Name: "id", Type: storage.TInt64},
		{Name: "name", Type: storage.TString},
		{Name: "geom", Type: storage.TGeometry},
	}
	rows := make([]storage.Row, 64)
	for i := range rows {
		rows[i] = storage.Row{storage.Int(int64(i)), storage.Str(fmt.Sprintf("row-%d", i)), storage.Geom(g)}
	}
	img, err := AppendBatch(nil, 9, false, schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(io.Discard)
	enc := testing.AllocsPerRun(100, func() {
		img, _ = AppendBatch(img[:0], 9, false, schema, rows)
		if err := WriteFrame(w, FrameBatch, img); err != nil {
			t.Fatal(err)
		}
	})
	dec := testing.AllocsPerRun(100, func() { ParseBatch(img, schema) })
	var b storage.Batch
	reuse := testing.AllocsPerRun(100, func() {
		b.Reset()
		if _, _, err := decodeBatch(&b, img, schema); err != nil {
			t.Fatal(err)
		}
	})
	const encBudget, decBudget, reuseBudget = 0, 3 + 2*64, 1 + 2*64
	t.Logf("encode %.0f, decode %.0f, decode into a reused batch %.0f allocations per batch (budgets %d, %d and %d)",
		enc, dec, reuse, encBudget, decBudget, reuseBudget)
	if enc > encBudget {
		t.Errorf("encoding and writing a batch cost %.0f allocations, budget %d", enc, encBudget)
	}
	if dec > decBudget {
		t.Errorf("decoding a batch cost %.0f allocations, budget %d", dec, decBudget)
	}
	if reuse > reuseBudget {
		t.Errorf("decoding a batch into a reused batch cost %.0f allocations, budget %d", reuse, reuseBudget)
	}
}

func TestResultCodec(t *testing.T) {
	in := Result{
		Message:  "",
		HasCount: true,
		Count:    1234,
		Columns:  []string{"COUNT(*)"},
		Rows:     [][]string{{"1234"}},
	}
	got, err := ParseResult(AppendResult(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("result round trip: %+v want %+v", got, in)
	}
	msg := Result{Message: "table created"}
	got, err = ParseResult(AppendResult(nil, msg))
	if err != nil || got.Message != "table created" || got.HasCount {
		t.Fatalf("message result round trip: %+v, %v", got, err)
	}
}

func TestErrorCodec(t *testing.T) {
	msg, err := ParseError(AppendError(nil, "no such cursor 7"))
	if err != nil || msg != "no such cursor 7" {
		t.Fatalf("error round trip: %q, %v", msg, err)
	}
}

func TestStatsCodec(t *testing.T) {
	in := Stats{
		ConnsAccepted: 10, ConnsRejected: 2, ConnsActive: 3,
		CursorsOpened: 40, CursorsOpen: 4,
		Queries: 100, Errors: 5, RowsStreamed: 99999, Fetches: 400, FetchNanos: 123456789,
	}
	got, err := ParseStats(AppendStats(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Fatalf("stats round trip: %+v want %+v", got, in)
	}
	if _, err := ParseStats([]byte{0x01}); err == nil {
		t.Errorf("truncated stats accepted")
	}
}

// referenceAppendBatch is the FrameBatch encoder as first released:
// every row encoded on its own with storage.EncodeRow and copied in
// behind its length. It is the wire format's definition for the
// compatibility tests below — a peer built from the old code sends and
// expects exactly these bytes.
func referenceAppendBatch(t *testing.T, cursorID uint64, done bool, schema []storage.Column, rows []storage.Row) []byte {
	t.Helper()
	out := binary.AppendUvarint(nil, cursorID)
	if done {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = binary.AppendUvarint(out, uint64(len(rows)))
	for _, row := range rows {
		img, err := storage.EncodeRow(schema, row)
		if err != nil {
			t.Fatal(err)
		}
		out = binary.AppendUvarint(out, uint64(len(img)))
		out = append(out, img...)
	}
	return out
}

// TestBatchWireCompat pins FrameBatch's byte layout across the encoder
// and decoder rewrite: the new encoder emits byte for byte what an old
// server did (new server ↔ old client), and the new decoder reads an
// old server's bytes (old server ↔ new client) — for rows on both
// sides of the one-byte length boundary, every column type, and the
// empty batch.
func TestBatchWireCompat(t *testing.T) {
	poly, err := geom.ParseWKT("POLYGON ((0 0, 40 0, 40 40, 20 55, 0 40, 0 0), (5 5, 10 5, 10 10, 5 5))")
	if err != nil {
		t.Fatal(err)
	}
	schema := []storage.Column{
		{Name: "id", Type: storage.TInt64},
		{Name: "w", Type: storage.TFloat64},
		{Name: "name", Type: storage.TString},
		{Name: "blob", Type: storage.TBytes},
		{Name: "geom", Type: storage.TGeometry},
	}
	point := geom.NewPoint(1, 2)
	row := func(name string, blob []byte, g geom.Geometry) storage.Row {
		return storage.Row{storage.Int(-7), storage.Float(0.25), storage.Str(name), storage.Bytes(blob), storage.Geom(g)}
	}
	long := strings.Repeat("x", 20000) // a three-byte row length
	for _, c := range []struct {
		name string
		rows []storage.Row
	}{
		{"empty", nil},
		{"short rows", []storage.Row{row("a", nil, point), row("", []byte{1, 2}, point)}},
		{"127 and 128 bytes", []storage.Row{row(strings.Repeat("n", 127-38), nil, point), row(strings.Repeat("n", 128-38), nil, point)}},
		{"mixed lengths", []storage.Row{row("a", nil, point), row(long, []byte("raw"), poly), row("z", nil, point), row("p", nil, poly)}},
	} {
		want := referenceAppendBatch(t, 300, true, schema, c.rows)
		// Encode behind a prefix, as the server does into a reused image.
		got, err := AppendBatch([]byte("prefix"), 300, true, schema, c.rows)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("%s: the encoder's bytes differ from the released layout", c.name)
		}
		id, done, rows, err := ParseBatch(want, schema)
		if err != nil || id != 300 || !done || len(rows) != len(c.rows) {
			t.Fatalf("%s: decoding the released layout: id=%d done=%v rows=%d err=%v", c.name, id, done, len(rows), err)
		}
		for i, r := range rows {
			w := c.rows[i]
			if r[0].I != w[0].I || r[1].F != w[1].F || r[2].S != w[2].S || !bytes.Equal(r[3].B, w[3].B) || !r[4].G.Equal(w[4].G) {
				t.Fatalf("%s: row %d decoded wrong", c.name, i)
			}
		}
	}
	// The length boundary rows really are 127 and 128 bytes.
	for _, n := range []int{127, 128} {
		img, err := storage.EncodeRow(schema, row(strings.Repeat("n", n-38), nil, point))
		if err != nil || len(img) != n {
			t.Fatalf("boundary row is %d bytes (%v), want %d", len(img), err, n)
		}
	}
}

// TestParseBatchRowsOutliveThePayload checks the decoded rows own their
// memory: the client reuses its read buffer, so a row that pointed into
// the payload would change under the caller.
func TestParseBatchRowsOutliveThePayload(t *testing.T) {
	schema := []storage.Column{{Name: "a", Type: storage.TString}, {Name: "b", Type: storage.TString}}
	img, err := AppendBatch(nil, 1, true, schema, []storage.Row{
		{storage.Str("rid-1.1"), storage.Str("rid-2.2")},
		{storage.Str(""), storage.Str("rid-3.3")},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, rows, err := ParseBatch(img, schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := range img {
		img[i] = 0xFF
	}
	if rows[0][0].S != "rid-1.1" || rows[0][1].S != "rid-2.2" || rows[1][0].S != "" || rows[1][1].S != "rid-3.3" {
		t.Fatalf("decoded rows changed with the payload: %v", rows)
	}
}

// TestParseBatchForgedCount checks a row count the payload cannot hold
// is refused before anything is reserved for it.
func TestParseBatchForgedCount(t *testing.T) {
	schema := []storage.Column{{Name: "a", Type: storage.TInt64}}
	img := binary.AppendUvarint([]byte{1, 0}, 1<<40) // cursor 1, not done, 2^40 rows, no row bytes
	if _, _, _, err := ParseBatch(img, schema); err == nil {
		t.Fatal("a batch of 2^40 rows in 0 bytes was accepted")
	}
	allocs := testing.AllocsPerRun(10, func() { ParseBatch(img, schema) })
	if allocs > 4 { // the error and its formatted arguments, not a slab
		t.Fatalf("refusing a forged row count cost %.0f allocations", allocs)
	}
}

// reuseSchema is the narrower schema the reused-batch tests decode,
// after the batch held rows of fuzzSchema's five columns.
var reuseSchema = []storage.Column{
	{Name: "id", Type: storage.TInt64},
	{Name: "name", Type: storage.TString},
	{Name: "geom", Type: storage.TGeometry},
}

// reuseBatches returns a wide payload (fuzzSchema: strings, raw bytes,
// polygons, 40 rows) and a narrow one (reuseSchema: 3 rows), the two a
// reused batch holds in turn.
func reuseBatches(t *testing.T) (wide, narrow []byte) {
	t.Helper()
	poly, err := geom.ParseWKT("POLYGON ((0 0, 40 0, 40 40, 20 55, 0 40, 0 0), (5 5, 10 5, 10 10, 5 5))")
	if err != nil {
		t.Fatal(err)
	}
	var rows []storage.Row
	for i := range 40 {
		rows = append(rows, storage.Row{storage.Int(int64(-i)), storage.Float(float64(i) / 4),
			storage.Str(strings.Repeat("w", i*7)), storage.Bytes([]byte{byte(i), 1, 2}), storage.Geom(poly)})
	}
	if wide, err = AppendBatch(nil, 4, false, fuzzSchema, rows); err != nil {
		t.Fatal(err)
	}
	if narrow, err = AppendBatch(nil, 5, true, reuseSchema, []storage.Row{
		{storage.Int(7), storage.Str("seven"), storage.Geom(geom.NewPoint(1, 2))},
		{storage.Int(8), storage.Str(""), storage.Geom(poly)},
		{storage.Int(9), storage.Str("nine"), storage.Geom(geom.NewPoint(-3, 4))},
	}); err != nil {
		t.Fatal(err)
	}
	return wide, narrow
}

// TestDecodeBatchIntoReusedBatch checks a batch that is Reset and
// decoded into again gives exactly the rows a fresh decode gives, when
// it held wider rows, string, raw and geometry cells, and more rows
// than the new payload; and that decoding without a Reset appends
// behind the rows it held and leaves them as they were.
func TestDecodeBatchIntoReusedBatch(t *testing.T) {
	wide, narrow := reuseBatches(t)
	_, _, want, err := ParseBatch(narrow, reuseSchema)
	if err != nil {
		t.Fatal(err)
	}
	_, _, wideRows, err := ParseBatch(wide, fuzzSchema)
	if err != nil {
		t.Fatal(err)
	}
	var b storage.Batch
	for round := range 3 {
		b.Reset()
		if _, _, err := decodeBatch(&b, wide, fuzzSchema); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b.Rows, wideRows) {
			t.Fatalf("round %d: the wide batch decoded into a reused batch differs from a fresh decode", round)
		}
		b.Reset()
		id, done, err := decodeBatch(&b, narrow, reuseSchema)
		if err != nil || id != 5 || !done {
			t.Fatalf("round %d: id=%d done=%v err=%v", round, id, done, err)
		}
		if !reflect.DeepEqual(b.Rows, want) {
			t.Fatalf("round %d: reused batch decoded %v, a fresh decode %v", round, b.Rows, want)
		}
		for i, row := range b.Rows {
			if len(row) != len(reuseSchema) || cap(row) != len(reuseSchema) {
				t.Fatalf("round %d: row %d has len %d cap %d, want %d", round, i, len(row), cap(row), len(reuseSchema))
			}
		}
	}
	// Appending: the rows already held keep their values.
	if _, _, err := decodeBatch(&b, wide, fuzzSchema); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Rows[:len(want)], want) || !reflect.DeepEqual(b.Rows[len(want):], wideRows) {
		t.Fatal("decoding behind held rows changed them or decoded wrong")
	}
}

// TestDecodeBatchFailureKeepsRows checks a payload that fails on row k
// leaves the batch's rows exactly as they were, for k at the first,
// a middle and the last row, and for trailing bytes after the last.
func TestDecodeBatchFailureKeepsRows(t *testing.T) {
	wide, narrow := reuseBatches(t)
	var b storage.Batch
	if _, _, err := decodeBatch(&b, narrow, reuseSchema); err != nil {
		t.Fatal(err)
	}
	held := append([]storage.Row(nil), b.Rows...)
	heldVals := fmt.Sprint(b.Rows)
	_, _, wideRows, err := ParseBatch(wide, fuzzSchema)
	if err != nil {
		t.Fatal(err)
	}
	// Row k's image starts after the header and the k rows before it;
	// a zero byte where its geometry's kind belongs fails that row only.
	rowStart := func(k int) int {
		at := 3 // cursor id, done, row count (40 < 128: one byte each)
		for i := range k {
			img, err := storage.EncodeRow(fuzzSchema, wideRows[i])
			if err != nil {
				t.Fatal(err)
			}
			at += len(binary.AppendUvarint(nil, uint64(len(img)))) + len(img)
		}
		return at
	}
	bad := map[string][]byte{"trailing byte": append(append([]byte(nil), wide...), 0)}
	for _, k := range []int{0, 17, 39} {
		img, err := storage.EncodeRow(fuzzSchema, wideRows[k])
		if err != nil {
			t.Fatal(err)
		}
		p := append([]byte(nil), wide...)
		end := rowStart(k) + len(binary.AppendUvarint(nil, uint64(len(img)))) + len(img)
		p[end-geom.BinarySize(wideRows[k][4].G)] = 0xEE // the geometry's kind byte
		bad[fmt.Sprintf("row %d", k)] = p
	}
	for name, p := range bad {
		if _, _, err := decodeBatch(&b, p, fuzzSchema); err == nil {
			t.Fatalf("%s: a corrupt payload decoded", name)
		}
		if len(b.Rows) != len(held) || fmt.Sprint(b.Rows) != heldVals || !reflect.DeepEqual(b.Rows, held) {
			t.Fatalf("%s: a failed decode left the batch %d rows, want the %d it held, unchanged", name, len(b.Rows), len(held))
		}
		if _, _, rows, err := ParseBatch(p, fuzzSchema); err == nil || rows != nil {
			t.Fatalf("%s: ParseBatch returned %d rows, %v", name, len(rows), err)
		}
	}
}
