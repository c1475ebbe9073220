// Package cluster implements the space-partitioned shard cluster: a
// coordinator that partitions tables across N spatialserverd instances
// by grid tile and exposes the same query surface as a single node.
//
// The paper's start–fetch–close cursor interface composes over the
// network unchanged: a remote shard cursor is just another row source,
// so a scatter-gather query is a parallel table function whose
// instances happen to fetch over TCP (the Gray–Szalay–Fekete spatial
// library served planet-scale cross-match traffic behind exactly this
// shape). Ownership reuses the sjoin two-layer grid: every row is
// replicated to the shards whose tiles its margin-grown MBR touches,
// and each query result is reported only by the shard owning the tile
// containing its reference point (the A/B/C/D corner rule), so shard
// streams concatenate duplicate-free.
package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"spatialtf/internal/geom"
	"spatialtf/internal/pager"
	"spatialtf/internal/sjoin"
	"spatialtf/internal/wire"
)

// manifestMagic versions the shard-map manifest file; the trailing
// digit is the format version (the pager catalog idiom).
const manifestMagic = "STFCLUS1"

// manifestCRC is the CRC-32C table guarding the manifest tail.
var manifestCRC = crc32.MakeTable(crc32.Castagnoli)

// ShardMap is the cluster's ownership function: a fixed Cols×Rows grid
// over Bounds, tile (col, row) owned by shard (row*Cols+col) % N where
// N = len(Shards). Rows are replicated to every shard whose tiles their
// MBR grown by Margin intersects, which lets any shard answer scoped
// window queries margin-free and scoped joins up to distance Margin.
// Every node of a cluster must agree on the ShardMap exactly; it is
// persisted as a CRC-tailed manifest next to the router.
type ShardMap struct {
	// Bounds is the world extent the grid covers. Geometry outside it
	// clamps to the border tiles.
	Bounds geom.MBR
	// Cols, Rows are the grid dimensions.
	Cols, Rows int
	// Margin is the replication margin: the largest join distance the
	// cluster can evaluate. Window/distance predicates do not need it.
	Margin float64
	// Shards are the shard server addresses; the slice index is the
	// shard id.
	Shards []string
}

// Validate rejects unusable maps, among them a NaN or infinite bound or
// margin: every grid coordinate it reaches is NaN or infinite, and
// routes to a border tile.
func (m *ShardMap) Validate() error {
	b := m.Bounds
	if !finite(b.MinX, b.MinY, b.MaxX, b.MaxY) {
		return fmt.Errorf("cluster: shard map with non-finite bounds %+v", b)
	}
	if !(b.MinX < b.MaxX) || !(b.MinY < b.MaxY) {
		return fmt.Errorf("cluster: shard map with empty bounds %+v", b)
	}
	if m.Cols < 1 || m.Rows < 1 || m.Cols > 1<<16 || m.Rows > 1<<16 {
		return fmt.Errorf("cluster: shard map with %dx%d grid", m.Cols, m.Rows)
	}
	if !finite(m.Margin) || m.Margin < 0 {
		return fmt.Errorf("cluster: replication margin %g is not a finite non-negative distance", m.Margin)
	}
	if len(m.Shards) < 1 {
		return fmt.Errorf("cluster: shard map with no shards")
	}
	for i, a := range m.Shards {
		if a == "" {
			return fmt.Errorf("cluster: shard %d has no address", i)
		}
	}
	return nil
}

// finite reports whether every value is neither NaN nor infinite.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// NShards returns the cluster size.
func (m *ShardMap) NShards() int { return len(m.Shards) }

// Grid returns the ownership grid.
func (m *ShardMap) Grid() sjoin.Grid { return sjoin.NewGrid(m.Bounds, m.Cols, m.Rows) }

// TileOwner returns the shard owning tile (col, row).
func (m *ShardMap) TileOwner(col, row int) int {
	return (row*m.Cols + col) % len(m.Shards)
}

// Scope returns the wire scope shard i evaluates scatter queries under.
func (m *ShardMap) Scope(shard int) wire.Scope {
	return wire.Scope{
		MinX: m.Bounds.MinX, MinY: m.Bounds.MinY,
		MaxX: m.Bounds.MaxX, MaxY: m.Bounds.MaxY,
		Cols: m.Cols, Rows: m.Rows,
		NShards: len(m.Shards), Shard: shard,
	}
}

// ShardsForMBR returns the distinct shards owning at least one tile the
// MBR grown by expand intersects, in shard order. Used both for insert
// replication (expand = Margin) and for window-query scatter pruning
// (expand = search distance).
func (m *ShardMap) ShardsForMBR(b geom.MBR, expand float64) []int {
	g := m.Grid()
	c0, c1 := g.ColOf(b.MinX-expand), g.ColOf(b.MaxX+expand)
	r0, r1 := g.RowOf(b.MinY-expand), g.RowOf(b.MaxY+expand)
	seen := make([]bool, len(m.Shards))
	n := 0
	for r := r0; r <= r1 && n < len(m.Shards); r++ {
		for c := c0; c <= c1 && n < len(m.Shards); c++ {
			if o := m.TileOwner(c, r); !seen[o] {
				seen[o] = true
				n++
			}
		}
	}
	out := make([]int, 0, n)
	for i, s := range seen {
		if s {
			out = append(out, i)
		}
	}
	return out
}

// AllShards returns every shard id.
func (m *ShardMap) AllShards() []int {
	out := make([]int, len(m.Shards))
	for i := range out {
		out[i] = i
	}
	return out
}

// encode renders the manifest image: magic, little-endian body, CRC-32C
// tail.
func (m *ShardMap) encode() []byte {
	buf := []byte(manifestMagic)
	for _, f := range []float64{m.Bounds.MinX, m.Bounds.MinY, m.Bounds.MaxX, m.Bounds.MaxY, m.Margin} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Cols))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Shards)))
	for _, a := range m.Shards {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a)))
		buf = append(buf, a...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, manifestCRC))
}

// Save writes the manifest through pager.AtomicWrite, so a crash leaves
// either the old or the new manifest, never a torn one.
func (m *ShardMap) Save(path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	return pager.AtomicWriteFile(pager.OSFS, path, m.encode())
}

// LoadShardMap reads and verifies a manifest.
func LoadShardMap(path string) (*ShardMap, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := decodeShardMap(raw)
	if err != nil {
		return nil, fmt.Errorf("%w (manifest %s)", err, path)
	}
	return m, nil
}

// decodeShardMap parses and validates a manifest image, the inverse of
// encode.
func decodeShardMap(raw []byte) (*ShardMap, error) {
	if len(raw) < len(manifestMagic)+4 || string(raw[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("cluster: not a shard-map manifest")
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, manifestCRC) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("cluster: manifest fails its checksum")
	}
	p := body[len(manifestMagic):]
	need := func(n int) error {
		if len(p) < n {
			return fmt.Errorf("cluster: manifest is truncated")
		}
		return nil
	}
	var m ShardMap
	fs := []*float64{&m.Bounds.MinX, &m.Bounds.MinY, &m.Bounds.MaxX, &m.Bounds.MaxY, &m.Margin}
	for _, dst := range fs {
		if err := need(8); err != nil {
			return nil, err
		}
		*dst = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	u32 := func() (uint32, error) {
		if err := need(4); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint32(p)
		p = p[4:]
		return v, nil
	}
	cols, err := u32()
	if err != nil {
		return nil, err
	}
	rows, err := u32()
	if err != nil {
		return nil, err
	}
	n, err := u32()
	if err != nil {
		return nil, err
	}
	m.Cols, m.Rows = int(cols), int(rows)
	if n > 1<<16 {
		return nil, fmt.Errorf("cluster: manifest names %d shards", n)
	}
	m.Shards = make([]string, n)
	for i := range m.Shards {
		l, err := u32()
		if err != nil {
			return nil, err
		}
		if err := need(int(l)); err != nil {
			return nil, err
		}
		m.Shards[i] = string(p[:l])
		p = p[l:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("cluster: manifest has %d trailing bytes", len(p))
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
