package sjoin

import (
	"sync"
	"sync/atomic"

	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

// DefaultGeomCacheBytes is the default byte budget of the decoded-
// geometry cache — a few megabytes, the same order as the candidate
// array ("determined by existing memory resources" per the paper).
const DefaultGeomCacheBytes = 8 << 20

// GeomCache is a byte-bounded concurrent map of decoded geometries
// keyed by (table, column, rowid). The join's secondary filter fetches
// exact geometries through it, so the sorted candidate drain stops
// re-decoding the same base-table cell: a cell whose geometry was
// decoded for one candidate batch (or by the other join operand of a
// self-join) is served from memory. The column is part of the key
// because a table may carry several GEOMETRY columns, each
// independently indexable. Rowids are never reused by the heap
// (deletes tombstone), so a cached entry can never go stale.
//
// A lookup takes no lock and writes no shared word: it reads the
// current table through one atomic pointer and its slots through
// atomic loads. Puts serialise on one mutex, which also guards the one
// byte count of the budget. A Put that takes the count over the budget
// drops resident entries in the order a clock hand meets them in the
// table until it is back under, so the cache keeps no recency order.
// Lookups are counted by the joins (JoinStats.CacheHits, CacheMisses),
// not here.
//
// All methods are safe for concurrent use; a cache may be shared across
// joins, their parallel instances and the nested-loop reference.
type GeomCache struct {
	table atomic.Pointer[geomTable]

	mu       sync.Mutex // serialises Put and guards what follows
	maxBytes int
	bytes    int
	hand     int // the next slot an over-budget Put looks at
}

// geomTable is an open-addressed, linearly probed table of immutable
// entries, at most half of its slots used, so every probe meets an
// empty slot. A slot only changes from empty to an entry and from an
// entry to another (a re-put, or dropped), so readers need no lock; a
// table that outgrows half its slots is rebuilt into a new one and
// published, and readers still on the old one see a frozen table.
type geomTable struct {
	slots []atomic.Pointer[geomEntry]
	used  int // slots not empty, dropped ones included (under mu)
	live  int // slots holding an entry (under mu)
}

// geomKey identifies one cached geometry: a geometry-typed cell.
type geomKey struct {
	tab *storage.Table
	col int
	id  storage.RowID
}

// geomEntry is one cached geometry with the size it was charged.
type geomEntry struct {
	key  geomKey
	g    geom.Geometry
	size int
}

// dropped marks the slot of an entry an over-budget Put dropped. Its
// zero key matches no lookup, so probes walk past it.
var dropped = &geomEntry{}

// NewGeomCache returns a cache bounded to maxBytes of decoded geometry
// (0 selects DefaultGeomCacheBytes).
func NewGeomCache(maxBytes int) *GeomCache {
	if maxBytes <= 0 {
		maxBytes = DefaultGeomCacheBytes
	}
	c := &GeomCache{maxBytes: maxBytes}
	c.table.Store(newGeomTable(0))
	return c
}

// newGeomTable returns an empty table with room for live entries at a
// quarter of its slots.
func newGeomTable(live int) *geomTable {
	n := 64
	for n < 4*live {
		n *= 2
	}
	return &geomTable{slots: make([]atomic.Pointer[geomEntry], n)}
}

// find returns the slot that holds k with its entry, or the empty slot
// its probe ends at with nil. Rowids are (page, slot); pages are
// sequential, so a multiplicative hash spreads neighbouring rows.
func (t *geomTable) find(k geomKey) (int, *geomEntry) {
	mask := uint64(len(t.slots) - 1)
	h := (uint64(k.id.Page)<<16 | uint64(k.id.Slot) | uint64(k.col)<<48) * 0x9E3779B97F4A7C15
	for i := h >> 32 & mask; ; i = (i + 1) & mask {
		if e := t.slots[i].Load(); e == nil || e.key == k {
			return int(i), e
		}
	}
}

// Get returns the cached geometry of column col of (tab, id), if present.
func (c *GeomCache) Get(tab *storage.Table, col int, id storage.RowID) (geom.Geometry, bool) {
	if _, e := c.table.Load().find(geomKey{tab: tab, col: col, id: id}); e != nil {
		return e.g, true
	}
	return geom.Geometry{}, false
}

// Put stores the decoded geometry of column col of (tab, id), then drops
// resident entries until the cache is back within its budget. A geometry
// larger than the whole budget is not cached. A re-put of a resident key
// replaces the stored geometry rather than assuming the caller passed
// identical data.
func (c *GeomCache) Put(tab *storage.Table, col int, id storage.RowID, g geom.Geometry) {
	e := &geomEntry{key: geomKey{tab: tab, col: col, id: id}, g: g, size: geomSizeBytes(g)}
	if e.size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.table.Load()
	if 2*(t.used+1) > len(t.slots) {
		t = c.rebuild(t)
	}
	i, old := t.find(e.key)
	if old != nil {
		c.bytes -= old.size
	} else {
		t.used++
		t.live++
	}
	t.slots[i].Store(e)
	c.bytes += e.size
	for c.bytes > c.maxBytes {
		c.hand = (c.hand + 1) % len(t.slots)
		if old := t.slots[c.hand].Load(); old != nil && old != dropped {
			t.slots[c.hand].Store(dropped)
			t.live--
			c.bytes -= old.size
		}
	}
}

// rebuild copies t's entries into a fresh table and publishes it; the
// caller holds c.mu.
func (c *GeomCache) rebuild(t *geomTable) *geomTable {
	nt := newGeomTable(t.live + 1)
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil && e != dropped {
			j, _ := nt.find(e.key)
			nt.slots[j].Store(e)
			nt.used++
			nt.live++
		}
	}
	c.table.Store(nt)
	c.hand = 0
	return nt
}

// Resident returns the decoded-geometry bytes and the number of
// geometries the cache holds.
func (c *GeomCache) Resident() (bytes, entries int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.bytes), int64(c.table.Load().live)
}

// geomSizeBytes estimates the in-memory footprint of a decoded geometry:
// struct headers plus 16 bytes per vertex and the memo of its bounds
// (geom.Bounded), recursing into collection elements. An estimate is
// enough — the budget bounds memory order, not exact bytes.
func geomSizeBytes(g geom.Geometry) int {
	const header = 104 // Geometry struct + table slot + entry overhead
	n := header + 16*len(g.Pts) + g.MemoBytes()
	for _, r := range g.Rings {
		n += 24 + 16*len(r)
	}
	for _, e := range g.Elems {
		n += geomSizeBytes(e)
	}
	return n
}

// resolveCache returns the cache a join should fetch through: the
// explicitly shared instance if set, a private one sized by
// GeomCacheBytes otherwise, or nil when caching is disabled.
func (c Config) resolveCache() *GeomCache {
	if c.GeomCache != nil {
		return c.GeomCache
	}
	if c.GeomCacheBytes < 0 {
		return nil
	}
	return NewGeomCache(c.GeomCacheBytes)
}

// cachedFetch fetches the geometry column col of (tab, id) through
// cache (which may be nil). hit reports whether the base-table fetch
// was avoided; live is false for a row deleted since its index entry
// was read (Table.FetchColumns), which is then no candidate's side. A
// geometry put into the cache carries its bounds (geom.Bounded), so the
// candidates that read it again skip the passes over its vertices that
// do not depend on the partner.
func cachedFetch(cache *GeomCache, tab *storage.Table, col int, id storage.RowID) (g geom.Geometry, hit, live bool, err error) {
	if cache != nil {
		if g, ok := cache.Get(tab, col, id); ok {
			return g, true, true, nil
		}
	}
	cols, v := [1]int{col}, [1]storage.Value{}
	if live, err = tab.FetchColumns(id, cols[:], v[:]); !live || err != nil {
		return geom.Geometry{}, false, false, err
	}
	g = v[0].G
	if cache != nil {
		g = geom.Bounded(g)
		cache.Put(tab, col, id, g)
	}
	return g, false, true, nil
}
