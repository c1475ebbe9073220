package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"spatialtf/internal/allocbound"
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
)

// fuzzSchema covers every column type, so ParseBatch drives the storage
// row codec and the geometry binary decoder from the same input.
var fuzzSchema = []storage.Column{
	{Name: "id", Type: storage.TInt64},
	{Name: "w", Type: storage.TFloat64},
	{Name: "name", Type: storage.TString},
	{Name: "blob", Type: storage.TBytes},
	{Name: "geom", Type: storage.TGeometry},
}

// FuzzWireDecode throws bytes at every decode path a peer can reach: the
// frame reader, then each payload parser on the raw payload. All of them
// must return an error rather than panic, hang, or allocate past
// allocbound's bound on hostile input, and what the batch and query
// parsers accept must survive re-encoding. A batch that decodes must decode to the same rows
// into a batch that already held another payload's.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendQuery(nil, "SELECT count(*) FROM cities"))
	f.Add(AppendFetch(nil, 7, 128))
	f.Add(AppendCloseCursor(nil, 7))
	f.Add(AppendDescribe(nil, 7, fuzzSchema))
	f.Add(AppendError(nil, "boom"))
	f.Add(AppendStats(nil, Stats{Queries: 3, RowsStreamed: 99}))
	f.Add(AppendMetrics(nil, []telemetry.Point{
		{Name: "a_total", Kind: telemetry.KindCounter, Value: 3},
		{Name: "lat", Kind: telemetry.KindHistogram, Bounds: []float64{0.1, 1},
			Counts: []int64{1, 2, 3}, Sum: 4.5, Count: 6},
	}))
	f.Add(AppendResult(nil, Result{Message: "ok", HasCount: true, Count: 2,
		Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}))
	if b, err := AppendBatch(nil, 7, true, fuzzSchema, []storage.Row{{
		storage.Int(1), storage.Float(0.5), storage.Str("x"), storage.Bytes([]byte{1}),
		storage.Geom(geom.Geometry{Kind: geom.KindPoint, Pts: []geom.Point{{X: 1, Y: 2}}}),
	}}); err == nil {
		f.Add(b)
	}
	// Seeds for the slab decoder: several rows sharing one value slab and
	// one backing string (with a row past the one-byte length boundary),
	// and a row count the payload cannot hold.
	pt := storage.Geom(geom.Geometry{Kind: geom.KindPoint, Pts: []geom.Point{{X: 1, Y: 2}}})
	prefill, err := AppendBatch(nil, 8, false, fuzzSchema, []storage.Row{
		{storage.Int(1), storage.Float(1), storage.Str("17.4"), storage.Bytes(nil), pt},
		{storage.Int(2), storage.Float(2), storage.Str(strings.Repeat("long", 64)), storage.Bytes([]byte("raw")), pt},
		{storage.Int(3), storage.Float(3), storage.Str(""), storage.Bytes(nil), pt},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(prefill)
	f.Add(binary.AppendUvarint([]byte{8, 0}, 1<<62))
	// Forged counts: a frame header claiming the whole MaxFrame with no
	// payload behind it, and a result of 256 Ki zero-column rows.
	f.Add(append(binary.LittleEndian.AppendUint32(nil, MaxFrame), byte(FrameBatch)))
	f.Add(binary.AppendUvarint([]byte{0, 0, 0, 0}, 1<<18))
	var frame bytes.Buffer
	bw := bufio.NewWriter(&frame)
	if err := WriteFrame(bw, FrameQuery, AppendQuery(nil, "SELECT * FROM rivers")); err == nil && bw.Flush() == nil {
		f.Add(frame.Bytes())
	}
	sc := Scope{MinX: -1, MinY: 0, MaxX: 10, MaxY: 12.5, Cols: 4, Rows: 3, NShards: 2, Shard: 1}
	f.Add(AppendScopedQuery(nil, sc, "SELECT id FROM cities"))
	f.Add(AppendQueryFirst(nil, nil, "SELECT id FROM cities"))
	f.Add(AppendQueryFirst(nil, &sc, "SELECT count(*) FROM cities"))

	f.Fuzz(func(t *testing.T, data []byte) {
		allocbound.Check(t, len(data), func() { decodeAll(t, data, prefill) })
	})
}

// decodeAll runs every decoder of FuzzWireDecode over data.
func decodeAll(t *testing.T, data, prefill []byte) {
	br := bufio.NewReader(bytes.NewReader(data))
	for {
		if _, _, err := ReadFrame(br); err != nil {
			break
		}
	}
	ParseQuery(data)
	// The query frames must re-encode to what they decoded from.
	if sc, sql, err := ParseScopedQuery(data); err == nil {
		if sc2, sql2, err := ParseScopedQuery(AppendScopedQuery(nil, sc, sql)); err != nil || sc2 != sc || sql2 != sql {
			t.Fatalf("scoped query %+v %q re-decoded as %+v %q (%v)", sc, sql, sc2, sql2, err)
		}
	}
	if sc, sql, err := ParseQueryFirst(data); err == nil {
		sc2, sql2, err := ParseQueryFirst(AppendQueryFirst(nil, sc, sql))
		if err != nil || sql2 != sql || (sc == nil) != (sc2 == nil) || (sc != nil && *sc != *sc2) {
			t.Fatalf("QueryFirst %v %q re-decoded as %v %q (%v)", sc, sql, sc2, sql2, err)
		}
	}
	ParseFetch(data)
	ParseCloseCursor(data)
	ParseDescribe(data)
	if id, done, rows, err := ParseBatch(data, fuzzSchema); err == nil {
		// What decoded must encode, and decode again to as many rows.
		img, err := AppendBatch(nil, id, done, fuzzSchema, rows)
		if err != nil {
			t.Fatalf("re-encoding a decoded batch: %v", err)
		}
		if _, _, again, err := ParseBatch(img, fuzzSchema); err != nil || len(again) != len(rows) {
			t.Fatalf("decoded %d rows, re-decoded %d (%v)", len(rows), len(again), err)
		}
		// Decoded into a batch that held another payload's rows, it
		// gives the same rows: after a Reset, and behind the rows
		// held, which stay as they were.
		var b storage.Batch
		if _, _, err := decodeBatch(&b, prefill, fuzzSchema); err != nil {
			t.Fatal(err)
		}
		held := len(b.Rows)
		if _, _, err := decodeBatch(&b, data, fuzzSchema); err != nil {
			t.Fatalf("decoding behind held rows: %v", err)
		}
		if again, _ := AppendBatch(nil, 8, false, fuzzSchema, b.Rows[:held]); !bytes.Equal(again, prefill) {
			t.Fatal("decoding behind held rows changed them")
		}
		if again, _ := AppendBatch(nil, id, done, fuzzSchema, b.Rows[held:]); !bytes.Equal(again, img) {
			t.Fatal("rows decoded behind held rows differ from a fresh decode")
		}
		b.Reset()
		if _, _, err := decodeBatch(&b, data, fuzzSchema); err != nil {
			t.Fatalf("decoding into a reset batch: %v", err)
		}
		if again, _ := AppendBatch(nil, id, done, fuzzSchema, b.Rows); !bytes.Equal(again, img) {
			t.Fatal("rows decoded into a reset batch differ from a fresh decode")
		}
	}
	ParseResult(data)
	ParseError(data)
	ParseStats(data)
	ParseMetrics(data)
}
