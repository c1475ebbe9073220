package spatialtf

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"spatialtf/internal/allocbound"
	"spatialtf/internal/geom"
	"spatialtf/internal/pager"
)

// fillGoldenDB builds the fixed database the format goldens under
// testdata/ were produced from — by the commit BEFORE the catalogue
// codec was unified, so they pin both on-disk formats: a non-spatial
// table, a spatial table, an R-tree recording an interior effort (which
// builds nothing, but the formats carry it) and a Quadtree with explicit
// bounds. Do not change it without regenerating
// the goldens from a commit known to write the formats correctly.
func fillGoldenDB(t testing.TB, db *DB) {
	t.Helper()
	notes, err := db.CreateTable("notes", []Column{
		{Name: "k", Type: TInt64},
		{Name: "v", Type: TString},
		{Name: "b", Type: TBytes},
		{Name: "f", Type: TFloat64},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []string{"one", "two"} {
		if _, err := notes.Insert(Int(int64(i+1)), Str(s), Bytes([]byte{byte(i), 0xFE}), Float(float64(i)+0.5)); err != nil {
			t.Fatal(err)
		}
	}
	parcels, err := db.CreateSpatialTable("parcels")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		x, y := float64(i%4)*10, float64(i/4)*10
		if _, err := parcels.Add("parcel", MustRect(x, y, x+6, y+6)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.CreateIndex("parcels_rt", "parcels", RTree, IndexOptions{Fanout: 8, InteriorEffort: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("parcels_qt", "parcels", Quadtree,
		IndexOptions{TilingLevel: 4, Bounds: MBR{MinX: -8, MinY: -8, MaxX: 56, MaxY: 56}}); err != nil {
		t.Fatal(err)
	}
}

func golden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// memFile returns the content of a MemFS file, nil if it does not exist.
func memFile(t testing.TB, fs *pager.MemFS, path string) []byte {
	t.Helper()
	if ok, _ := fs.Exists(path); !ok {
		return nil
	}
	f, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(b, 0); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func saveBytes(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sealCatalog frames a catalog body as catalog.bin: magic in front,
// CRC-32C behind.
func sealCatalog(body []byte) []byte {
	raw := append([]byte(catalogMagic), body...)
	return binary.LittleEndian.AppendUint32(raw, crc32.Checksum(raw, catalogCRC))
}

// TestCatalogGolden pins STFCAT01: the fixed database writes exactly
// the parent-generated catalog.bin, and reopening it (decode) followed
// by a forced rewrite (encode) reproduces it byte for byte.
func TestCatalogGolden(t *testing.T) {
	want := golden(t, "golden_catalog.bin")
	fs := pager.NewMemFS()
	db, err := OpenDir("data", DirOptions{fs: fs})
	if err != nil {
		t.Fatal(err)
	}
	fillGoldenDB(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := memFile(t, fs, "data/catalog.bin"); !bytes.Equal(got, want) {
		t.Fatalf("catalog.bin written for the golden database differs from testdata/golden_catalog.bin:\n got %x\nwant %x", got, want)
	}
	db, err = OpenDir("data", DirOptions{fs: fs})
	if err != nil {
		t.Fatalf("reopen golden catalog: %v", err)
	}
	defer db.Close()
	db.mu.Lock()
	err = db.writeCatalogLocked()
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := memFile(t, fs, "data/catalog.bin"); !bytes.Equal(got, want) {
		t.Fatalf("catalog.bin decoded and re-encoded differs from the golden:\n got %x\nwant %x", got, want)
	}
}

// TestPersistBoundErrors feeds both envelopes hand-built (and, for the
// catalog, CRC-valid) images with each count out of range: the error
// names the value and the limit, never a nil error's "<nil>".
func TestPersistBoundErrors(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	table := func(name string, space []byte, ncols uint64) []byte {
		b := append(appendString(uv(1), name), space...)
		return append(b, uv(ncols)...)
	}
	over := uint64(maxCatalogEntries + 1)
	cases := []struct {
		name string
		body []byte // what follows the magic; space ids where the catalog has them
		snap bool
		want string
	}{
		{"catalog table count", uv(over), false, "table count 65537 exceeds limit 65536"},
		{"catalog index count", uv(0, over), false, "index count 65537 exceeds limit 65536"},
		{"catalog no columns", table("t", uv(1), 0), false, `table "t": column count 0`},
		{"catalog column count", table("t", uv(1), maxCatalogCols+1), false, `table "t": column count 4097 exceeds limit 4096`},
		{"catalog page space", table("t", uv(1<<32), 1), false, `table "t": page space 4294967296 exceeds limit 4294967295`},
		{"snapshot table count", uv(over), true, "table count 65537 exceeds limit 65536"},
		{"snapshot index count", uv(0, over), true, "index count 65537 exceeds limit 65536"},
		{"snapshot no columns", table("t", nil, 0), true, `table "t": column count 0`},
		{"snapshot column count", table("t", nil, maxCatalogCols+1), true, `table "t": column count 4097 exceeds limit 4096`},
		{"snapshot row image", append(appendSchema(appendString(uv(1), "t"), []Column{{Name: "k", Type: TInt64}}), uv(1, maxSnapshotRowImage+1)...),
			true, `table "t" row 0: image length 16777217 exceeds limit 16777216`},
	}
	for _, c := range cases {
		var err error
		if c.snap {
			_, err = Restore(bytes.NewReader(append([]byte(snapshotMagic), c.body...)), 0)
		} else {
			fs := pager.NewMemFS()
			if werr := pager.AtomicWriteFile(fs, "data/catalog.bin", sealCatalog(c.body)); werr != nil {
				t.Fatal(werr)
			}
			_, err = OpenDir("data", DirOptions{fs: fs})
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "<nil>") {
			t.Errorf("%s: error %q, want it to contain %q", c.name, err, c.want)
		}
	}

	// Read failures keep the reader's error in the chain.
	snap := golden(t, "golden.snap")
	for _, cut := range []int{len(snapshotMagic), len(snapshotMagic) + 3, len(snap) / 2, len(snap) - 1} {
		_, err := Restore(bytes.NewReader(snap[:cut]), 0)
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("snapshot cut at %d: error %v does not wrap the read error", cut, err)
		}
	}
}

// dbContents renders everything Import promises to carry over: per
// table the schema and the rows as a sorted multiset (rowids are not
// stable across export), the index metadata, and one window and one
// join answer identified by the id column.
func dbContents(t testing.TB, db *DB) string {
	t.Helper()
	var sb strings.Builder
	names := db.TableNames()
	sort.Strings(names)
	for _, name := range names {
		tab, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "table %s %v\n", name, tab.Inner().Schema())
		var rows []string
		if err := tab.Scan(func(_ RowID, row Row) bool {
			rows = append(rows, fmt.Sprint(row))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(rows)
		sb.WriteString(strings.Join(rows, "\n") + "\n")
	}
	metas, err := db.IndexMetadata()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].IndexName < metas[j].IndexName })
	fmt.Fprintf(&sb, "indexes %+v\n", metas)

	parcels, err := db.Table("parcels")
	if err != nil {
		t.Fatal(err)
	}
	idOf := func(id RowID) int64 {
		row, err := parcels.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		return row[0].I
	}
	hits, err := db.Relate("parcels", "parcels_qt", MustRect(5, 5, 22, 12), "anyinteract")
	if err != nil {
		t.Fatal(err)
	}
	var window []int64
	for _, id := range hits {
		window = append(window, idOf(id))
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	cur, err := db.SpatialJoin("parcels", "parcels_rt", "parcels", "parcels_rt", JoinOptions{Distance: 5})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := cur.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var join []string
	for _, p := range pairs {
		join = append(join, fmt.Sprintf("%d-%d", idOf(p.A), idOf(p.B)))
	}
	sort.Strings(join)
	fmt.Fprintf(&sb, "window %v\njoin %v\n", window, join)
	return sb.String()
}

// TestImportEquivalence: a snapshot imported into an in-memory database
// and into a data directory yields the source database, and the durable
// copy still does after close and reopen.
func TestImportEquivalence(t *testing.T) {
	src := Open()
	fillGoldenDB(t, src)
	want := dbContents(t, src)
	snap := saveBytes(t, src)

	mem := Open()
	if err := mem.Import(bytes.NewReader(snap), 2); err != nil {
		t.Fatalf("Import into memory: %v", err)
	}
	if got := dbContents(t, mem); got != want {
		t.Fatalf("in-memory import differs from source:\n got %s\nwant %s", got, want)
	}

	fs := pager.NewMemFS()
	dur, err := OpenDir("data", DirOptions{fs: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := dur.Import(bytes.NewReader(snap), 0); err != nil {
		t.Fatalf("Import into data directory: %v", err)
	}
	if got := dbContents(t, dur); got != want {
		t.Fatalf("durable import differs from source:\n got %s\nwant %s", got, want)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	dur, err = OpenDir("data", DirOptions{fs: fs, Parallel: 2})
	if err != nil {
		t.Fatalf("reopen imported data directory: %v", err)
	}
	defer dur.Close()
	if got := dbContents(t, dur); got != want {
		t.Fatalf("durable import differs after reopen:\n got %s\nwant %s", got, want)
	}
}

// TestImportExistingTable: a name clash is CreateTable's error, and —
// Import not being all-or-nothing — the tables that sort before the
// clash stay loaded while nothing after it is created.
func TestImportExistingTable(t *testing.T) {
	db := Open()
	if _, err := db.CreateSpatialTable("parcels"); err != nil {
		t.Fatal(err)
	}
	err := db.Import(bytes.NewReader(golden(t, "golden.snap")), 0)
	if err == nil || !strings.Contains(err.Error(), `table "parcels" already exists`) {
		t.Fatalf("Import over an existing table: %v", err)
	}
	notes, err := db.Table("notes")
	if err != nil || notes.Len() != 2 {
		t.Fatalf("table before the clash: %v, want notes with 2 rows", err)
	}
	if parcels, _ := db.Table("parcels"); parcels.Len() != 0 {
		t.Fatalf("clashing table received %d rows", parcels.Len())
	}
	if metas, _ := db.IndexMetadata(); len(metas) != 0 {
		t.Fatalf("indexes created after a failed import: %+v", metas)
	}
}

// scanWindow answers a window query with no index: the oracle the
// crash matrix holds every recovered index to.
func scanWindow(t testing.TB, tab *Table, column string, w Geometry) []RowID {
	t.Helper()
	col, err := tab.Inner().ColumnIndex(column)
	if err != nil {
		t.Fatal(err)
	}
	var out []RowID
	if err := tab.Scan(func(id RowID, row Row) bool {
		if geom.Intersects(row[col].G, w) {
			out = append(out, id)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func FuzzImport(f *testing.F) {
	snap, err := os.ReadFile(filepath.Join("testdata", "golden.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	for _, cut := range []int{0, 8, 9, 40, len(snap) / 2, len(snap) - 1} {
		f.Add(snap[:cut])
	}
	// Forged counts: a row image of the full 16 MiB limit in a 20-byte
	// snapshot, and a 48 MiB table name.
	forged := appendSchema(appendString([]byte(snapshotMagic+"\x01"), "t"), []Column{{Name: "k", Type: TInt64}})
	f.Add(binary.AppendUvarint(append(forged, 1), maxSnapshotRowImage))
	f.Add(binary.AppendUvarint([]byte(snapshotMagic+"\x01"), 48<<20))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; every allocation is capped by the codec's
		// limits and by bytes actually present in data.
		db := Open()
		allocbound.Check(t, len(data), func() { db.Import(bytes.NewReader(data), 0) })
	})
}

// TestCatalogNameAllocatesWhatIsPresent decodes a 5-byte catalogue
// body, one table whose name claims 1 MiB and carries one byte: the
// name's buffer grows with the bytes read, so the decode allocates far
// less than the claim (it used to reserve the whole MiB up front).
func TestCatalogNameAllocatesWhatIsPresent(t *testing.T) {
	body := append(binary.AppendUvarint([]byte{1}, maxCatalogString), 'x')
	if len(body) != 5 {
		t.Fatalf("body is %d bytes", len(body))
	}
	least := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		br := bufio.NewReader(bytes.NewReader(body))
		_, cerr := readCount(br, "table count", maxCatalogEntries)
		_, err := readString(br, "name")
		runtime.ReadMemStats(&after)
		if cerr != nil || (!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF)) {
			t.Fatalf("count error %v, name error %v; want the short name to end the input", cerr, err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Fatalf("decoding a 5-byte body allocated %d B", least)
	}
}

func FuzzCatalog(f *testing.F) {
	cat, err := os.ReadFile(filepath.Join("testdata", "golden_catalog.bin"))
	if err != nil {
		f.Fatal(err)
	}
	body := cat[len(catalogMagic) : len(cat)-4]
	f.Add(body)
	f.Add(body[:len(body)/2])
	// A forged count: one table whose name is 48 MiB long.
	f.Add(binary.AppendUvarint([]byte{1}, 48<<20))
	f.Fuzz(func(t *testing.T, body []byte) {
		// The fuzzer mutates the body; the frame around it is recomputed
		// so mutations reach the decoder instead of dying at the CRC.
		fs := pager.NewMemFS()
		if err := pager.AtomicWriteFile(fs, "data/catalog.bin", sealCatalog(body)); err != nil {
			t.Fatal(err)
		}
		allocbound.Check(t, len(body), func() {
			if db, err := OpenDir("data", DirOptions{fs: fs}); err == nil {
				db.Close()
			}
		})
	})
}

// TestIndexMetadataDifferential pins the index catalogue across the
// change that made IndexMetadata read the registry's in-memory list
// instead of a heap table: over a fixed script of creates (both kinds,
// two tables, a second geometry column, names out of alphabetical
// order) IndexMetadata lists the same rows in creation order, and
// catalog.bin and the snapshot hash to the bytes recorded before it.
// A reopen rebuilds the indexes in catalogue order and lists them the
// same way.
func TestIndexMetadataDifferential(t *testing.T) {
	const (
		wantRows = `{IndexName:roads_g2_qt TableName:roads ColumnName:g2 Kind:QUADTREE Dimensions:2 Fanout:0 TilingLevel:4 Bounds:MBR(-8,-8; 72,72) InteriorEffort:0 RowsIndexed:8}
{IndexName:parcels_rt TableName:parcels ColumnName:geom Kind:RTREE Dimensions:2 Fanout:8 TilingLevel:0 Bounds:MBR(0,0; 36,26) InteriorEffort:0 RowsIndexed:12}
{IndexName:roads_rt TableName:roads ColumnName:geom Kind:RTREE Dimensions:2 Fanout:4 TilingLevel:0 Bounds:MBR(0,0; 56,4) InteriorEffort:1 RowsIndexed:8}
{IndexName:parcels_qt TableName:parcels ColumnName:geom Kind:QUADTREE Dimensions:2 Fanout:0 TilingLevel:5 Bounds:MBR(-8,-8; 56,56) InteriorEffort:0 RowsIndexed:12}
{IndexName:roads_g2_rt TableName:roads ColumnName:g2 Kind:RTREE Dimensions:2 Fanout:16 TilingLevel:0 Bounds:MBR(0,30; 56,37) InteriorEffort:0 RowsIndexed:8}
`
		wantCatalog = "d25f625213fa2b20159201c2c1c5c147b4dac055cc671e64c7c14d874db81208"
		wantSnap    = "ad4f87328af8d20b22df24071f81417cd6b6dd7a1a9987b5393072d75ac98a6e"
	)
	fs := pager.NewMemFS()
	db, err := OpenDir("data", DirOptions{fs: fs})
	if err != nil {
		t.Fatal(err)
	}
	parcels, err := db.CreateSpatialTable("parcels")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		x, y := float64(i%4)*10, float64(i/4)*10
		if _, err := parcels.Add("parcel", MustRect(x, y, x+6, y+6)); err != nil {
			t.Fatal(err)
		}
	}
	roads, err := db.CreateTable("roads", []Column{
		{Name: "id", Type: TInt64},
		{Name: "geom", Type: TGeometry},
		{Name: "g2", Type: TGeometry},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		x := float64(i) * 7
		if _, err := roads.Insert(Int(int64(i)), Geom(MustRect(x, 0, x+7, 4)), Geom(MustRect(x, 30, x+7, 37))); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name, table, column string
		kind                IndexKind
		opt                 IndexOptions
	}{
		{"roads_g2_qt", "roads", "g2", Quadtree, IndexOptions{TilingLevel: 4, Bounds: MBR{MinX: -8, MinY: -8, MaxX: 72, MaxY: 72}}},
		{"parcels_rt", "parcels", "geom", RTree, IndexOptions{Fanout: 8}},
		{"roads_rt", "roads", "geom", RTree, IndexOptions{Fanout: 4, InteriorEffort: 1}},
		{"parcels_qt", "parcels", "geom", Quadtree, IndexOptions{TilingLevel: 5, Bounds: MBR{MinX: -8, MinY: -8, MaxX: 56, MaxY: 56}}},
		{"roads_g2_rt", "roads", "g2", RTree, IndexOptions{Fanout: 16}},
	} {
		if _, err := db.CreateIndexOn(c.name, c.table, c.column, c.kind, c.opt); err != nil {
			t.Fatalf("create %s: %v", c.name, err)
		}
	}
	rows := func(db *DB) string {
		metas, err := db.IndexMetadata()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, m := range metas {
			fmt.Fprintf(&sb, "%+v\n", m)
		}
		return sb.String()
	}
	if got := rows(db); got != wantRows {
		t.Errorf("IndexMetadata:\n got %s\nwant %s", got, wantRows)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(memFile(t, fs, "data/catalog.bin"))); got != wantCatalog {
		t.Errorf("catalog.bin sha256 = %s, want %s", got, wantCatalog)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(saveBytes(t, db))); got != wantSnap {
		t.Errorf("snapshot sha256 = %s, want %s", got, wantSnap)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenDir("data", DirOptions{fs: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := rows(db); got != wantRows {
		t.Errorf("IndexMetadata after reopen:\n got %s\nwant %s", got, wantRows)
	}
}
