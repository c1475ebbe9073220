package cluster

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spatialtf"
	"spatialtf/internal/allocbound"
	"spatialtf/internal/geom"
)

func testMap(n int) *ShardMap {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return &ShardMap{
		Bounds: geom.MBR{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000},
		Cols:   4, Rows: 4,
		Margin: 8,
		Shards: addrs,
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := testMap(3)
	m.Shards = []string{"10.0.0.1:7878", "10.0.0.2:7878", "10.0.0.3:7878"}
	path := filepath.Join(t.TempDir(), "cluster.stf")
	if err := m.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := LoadShardMap(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n  saved  %+v\n  loaded %+v", m, got)
	}
}

func TestManifestRejectsCorruption(t *testing.T) {
	m := testMap(2)
	path := filepath.Join(t.TempDir(), "cluster.stf")
	if err := m.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one body byte: the CRC tail must catch it.
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardMap(path); err == nil {
		t.Fatal("corrupted manifest loaded without error")
	}
	// Truncations at every length must error, never panic.
	for cut := 0; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadShardMap(path); err == nil {
			t.Fatalf("truncated manifest (%d bytes) loaded without error", cut)
		}
	}
	// Wrong magic.
	bad = append([]byte(nil), raw...)
	copy(bad, "NOTSTFXX")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardMap(path); err == nil {
		t.Fatal("wrong-magic manifest loaded without error")
	}
}

func TestShardMapValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []*ShardMap{
		{Cols: 4, Rows: 4, Shards: []string{"a"}}, // empty bounds
		func() *ShardMap { m := testMap(2); m.Cols = 0; return m }(),
		func() *ShardMap { m := testMap(2); m.Margin = -1; return m }(),
		func() *ShardMap { m := testMap(2); m.Shards = nil; return m }(),
		func() *ShardMap { m := testMap(2); m.Shards[1] = ""; return m }(),
		func() *ShardMap { m := testMap(2); m.Margin = nan; return m }(),
		func() *ShardMap { m := testMap(2); m.Margin = inf; return m }(),
		func() *ShardMap { m := testMap(2); m.Bounds.MinX = -inf; return m }(),
		func() *ShardMap { m := testMap(2); m.Bounds.MaxX = inf; return m }(),
		func() *ShardMap { m := testMap(2); m.Bounds.MinY = -inf; return m }(),
		func() *ShardMap { m := testMap(2); m.Bounds.MaxY = inf; return m }(),
		func() *ShardMap { m := testMap(2); m.Bounds.MinX = nan; return m }(),
		func() *ShardMap { m := testMap(2); m.Bounds.MaxY = nan; return m }(),
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid map validated: %+v", i, m)
		}
		// Save validates before writing, and a hand-made image of the
		// map does not load.
		if err := m.Save(filepath.Join(t.TempDir(), "cluster.stf")); err == nil {
			t.Errorf("case %d: invalid map saved", i)
		}
		if _, err := decodeShardMap(m.encode()); err == nil {
			t.Errorf("case %d: invalid map image decoded", i)
		}
	}
	if err := testMap(3).Validate(); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
}

// TestShardsForMBRNonFinite: a huge, infinite or NaN expansion still
// routes to every shard the grown box reaches. Converting the tile
// quotient to int before clamping sent +Inf and 1e300 to column 0.
func TestShardsForMBRNonFinite(t *testing.T) {
	m := testMap(3)
	box := geom.MBR{MinX: 600, MinY: 10, MaxX: 610, MaxY: 20} // tile (2, 0)
	if got := m.ShardsForMBR(box, 0); !reflect.DeepEqual(got, []int{m.TileOwner(2, 0)}) {
		t.Fatalf("unexpanded box routes to %v, want [%d]", got, m.TileOwner(2, 0))
	}
	for _, expand := range []float64{1e300, math.MaxFloat64, math.Inf(1)} {
		if got := m.ShardsForMBR(box, expand); !reflect.DeepEqual(got, m.AllShards()) {
			t.Errorf("expand %g: routes to %v, want every shard", expand, got)
		}
	}
	g := m.Grid()
	for _, c := range []struct {
		x    float64
		want int
	}{{math.NaN(), 0}, {math.Inf(-1), 0}, {-1e300, 0}, {1e300, m.Cols - 1}, {math.Inf(1), m.Cols - 1}, {999.9, m.Cols - 1}, {250, 1}} {
		if got := g.ColOf(c.x); got != c.want {
			t.Errorf("ColOf(%g) = %d, want %d", c.x, got, c.want)
		}
		if got := g.RowOf(c.x); got != c.want {
			t.Errorf("RowOf(%g) = %d, want %d", c.x, got, c.want)
		}
	}
}

// FuzzManifest feeds arbitrary images to the manifest decoder: it must
// never panic or allocate past allocbound's bound, and an image it
// accepts validates and re-encodes to the same bytes.
func FuzzManifest(f *testing.F) {
	f.Add(testMap(3).encode())
	m := testMap(2)
	m.Shards = []string{"10.0.0.1:7878", ""}
	f.Add(m.encode())
	f.Add([]byte(manifestMagic))
	// A forged count: 2 Mi shards (32 MiB of addresses) with none behind
	// the count.
	forged := append([]byte(manifestMagic), make([]byte, 5*8+2*4)...)
	forged = binary.LittleEndian.AppendUint32(forged, 2<<20)
	f.Add(binary.LittleEndian.AppendUint32(forged, crc32.Checksum(forged, manifestCRC)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var m *ShardMap
		var err error
		allocbound.Check(t, len(raw), func() { m, err = decodeShardMap(raw) })
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoded map fails validation: %v", err)
		}
		if enc := m.encode(); !bytes.Equal(enc, raw) {
			t.Fatalf("re-encoded image differs:\n in  %x\n out %x", raw, enc)
		}
	})
}

func TestShardsForMBR(t *testing.T) {
	m := testMap(3)
	// A world-sized window touches every tile, hence every shard.
	all := m.ShardsForMBR(m.Bounds, 0)
	if len(all) != 3 {
		t.Fatalf("world window hit %d of 3 shards", len(all))
	}
	// A window inside one 250x250 tile hits exactly that tile's owner.
	one := m.ShardsForMBR(geom.MBR{MinX: 10, MinY: 10, MaxX: 20, MaxY: 20}, 0)
	if len(one) != 1 || one[0] != m.TileOwner(0, 0) {
		t.Fatalf("single-tile window hit shards %v, want [%d]", one, m.TileOwner(0, 0))
	}
	// Growing it by a margin that crosses the tile border adds owners.
	grown := m.ShardsForMBR(geom.MBR{MinX: 245, MinY: 10, MaxX: 248, MaxY: 20}, 8)
	if len(grown) < 2 {
		t.Fatalf("margin-grown window should straddle two tiles, hit %v", grown)
	}
	// Geometry far outside the world clamps to border tiles instead of
	// vanishing: every row has at least one home.
	out := m.ShardsForMBR(geom.MBR{MinX: -5000, MinY: 4000, MaxX: -4000, MaxY: 5000}, 0)
	if len(out) == 0 {
		t.Fatal("off-world window owns no shard")
	}
}

// TestOwnershipExactlyOnce is the duplicate-freedom proof the scatter
// protocol rests on: for any row MBR, window reference point, or join
// pair, exactly one shard's scope claims it.
func TestOwnershipExactlyOnce(t *testing.T) {
	m := testMap(3)
	scopes := make([]*spatialtf.ClusterScope, m.NShards())
	for i := range scopes {
		scopes[i] = spatialtf.NewClusterScope(m.Bounds, m.Cols, m.Rows, m.NShards(), i)
	}
	rng := rand.New(rand.NewSource(42))
	randMBR := func(spread float64) geom.MBR {
		x := rng.Float64()*1100 - 50 // deliberately overhangs the world
		y := rng.Float64()*1100 - 50
		return geom.MBR{MinX: x, MinY: y, MaxX: x + rng.Float64()*spread, MaxY: y + rng.Float64()*spread}
	}
	for trial := 0; trial < 2000; trial++ {
		r := randMBR(30)
		owners := 0
		for _, sc := range scopes {
			if sc.OwnsMBR(r) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("row MBR %+v owned by %d shards", r, owners)
		}
		q := randMBR(200)
		d := rng.Float64() * 10
		if r.MinX > q.MaxX+d || q.MinX > r.MaxX+d || r.MinY > q.MaxY+d || q.MinY > r.MaxY+d {
			continue // the window rule only applies to actual results
		}
		owners = 0
		for _, sc := range scopes {
			if sc.OwnsWindow(r, q, d) {
				owners++
			}
			if sc.OwnsWindow(r, q, d) != sc.OwnsPair(q, r, d) {
				t.Fatalf("shard %d: window r=%+v q=%+v d=%g owned unlike join pair (q, r)", sc.Shard, r, q, d)
			}
		}
		if owners != 1 {
			t.Fatalf("window result r=%+v q=%+v d=%g owned by %d shards", r, q, d, owners)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		a := randMBR(25)
		b := randMBR(25)
		d := rng.Float64() * m.Margin
		if a.MinX > b.MaxX+d || b.MinX > a.MaxX+d || a.MinY > b.MaxY+d || b.MinY > a.MaxY+d {
			continue
		}
		owners := 0
		for _, sc := range scopes {
			if sc.OwnsPair(a, b, d) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("join pair a=%+v b=%+v d=%g owned by %d shards", a, b, d, owners)
		}
	}
}
