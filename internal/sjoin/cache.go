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

// geomCacheShards spreads the cache over independently locked shards so
// parallel join instances do not serialise on one mutex.
const geomCacheShards = 16

// GeomCache is a bounded, sharded LRU of decoded geometries keyed by
// (table, column, rowid). The join's secondary filter fetches exact
// geometries through it, so the sorted candidate drain stops re-decoding
// the same base-table cell: a cell whose geometry was decoded for one
// candidate batch (or by the other join operand of a self-join) is
// served from memory. The column is part of the key because a table may
// carry several GEOMETRY columns, each independently indexable. Rowids
// are never reused by the heap (deletes tombstone), so a cached entry
// can never go stale.
//
// All methods are safe for concurrent use; a cache may be shared across
// joins, their parallel instances and the nested-loop reference.
type GeomCache struct {
	shards [geomCacheShards]geomShard
	hits   atomic.Int64
	misses atomic.Int64
}

// geomKey identifies one cached geometry: a geometry-typed cell.
type geomKey struct {
	tab *storage.Table
	col int
	id  storage.RowID
}

// geomEntry is one cached geometry on an intrusive LRU list.
type geomEntry struct {
	key        geomKey
	g          geom.Geometry
	size       int
	prev, next *geomEntry
}

// geomShard is one lock domain: an LRU list (head = most recent) plus
// its lookup map and byte accounting.
type geomShard struct {
	mu       sync.Mutex
	maxBytes int
	curBytes int
	entries  map[geomKey]*geomEntry
	head     *geomEntry
	tail     *geomEntry
}

// NewGeomCache returns a cache bounded to maxBytes of decoded geometry
// (0 selects DefaultGeomCacheBytes). The budget is split evenly across
// the shards.
func NewGeomCache(maxBytes int) *GeomCache {
	if maxBytes <= 0 {
		maxBytes = DefaultGeomCacheBytes
	}
	c := &GeomCache{}
	per := maxBytes / geomCacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].maxBytes = per
		c.shards[i].entries = make(map[geomKey]*geomEntry)
	}
	return c
}

// shardFor picks the shard of a key. Rowids are (page, slot); pages are
// sequential, so a multiplicative hash spreads neighbouring pages.
func (c *GeomCache) shardFor(k geomKey) *geomShard {
	h := ((uint64(k.id.Page)+uint64(k.col)<<24)*0x9E3779B97F4A7C15 + uint64(k.id.Slot)) >> 32
	return &c.shards[h%geomCacheShards]
}

// Get returns the cached geometry of column col of (tab, id), if present.
func (c *GeomCache) Get(tab *storage.Table, col int, id storage.RowID) (geom.Geometry, bool) {
	k := geomKey{tab: tab, col: col, id: id}
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return geom.Geometry{}, false
	}
	s.moveToFront(e)
	g := e.g
	s.mu.Unlock()
	c.hits.Add(1)
	return g, true
}

// Put stores the decoded geometry of column col of (tab, id), evicting
// least-recently used entries if the shard overflows its byte budget.
// Geometries larger than the whole shard budget are not cached. A re-put
// of a resident key replaces the stored geometry rather than assuming the
// caller passed identical data.
func (c *GeomCache) Put(tab *storage.Table, col int, id storage.RowID, g geom.Geometry) {
	k := geomKey{tab: tab, col: col, id: id}
	size := geomSizeBytes(g)
	s := c.shardFor(k)
	if size > s.maxBytes {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		s.curBytes += size - e.size
		e.g, e.size = g, size
		s.moveToFront(e)
	} else {
		e := &geomEntry{key: k, g: g, size: size}
		s.entries[k] = e
		s.pushFront(e)
		s.curBytes += size
	}
	for s.curBytes > s.maxBytes && s.tail != nil {
		s.evict(s.tail)
	}
}

// CacheStats is a point-in-time summary of cache effectiveness.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Bytes   int64
	Entries int64
}

// Hits returns the lifetime hit count — a cheap read for scrape-time
// counter views (Stats locks every shard).
func (c *GeomCache) Hits() int64 { return c.hits.Load() }

// Misses returns the lifetime miss count.
func (c *GeomCache) Misses() int64 { return c.misses.Load() }

// Stats returns the cache counters. Hits/Misses count Get outcomes over
// the cache lifetime; Bytes/Entries are the current residency.
func (c *GeomCache) Stats() CacheStats {
	st := CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Bytes += int64(s.curBytes)
		st.Entries += int64(len(s.entries))
		s.mu.Unlock()
	}
	return st
}

// --- shard list plumbing (callers hold s.mu) ---

func (s *geomShard) pushFront(e *geomEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *geomShard) unlink(e *geomEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *geomShard) moveToFront(e *geomEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *geomShard) evict(e *geomEntry) {
	s.unlink(e)
	delete(s.entries, e.key)
	s.curBytes -= e.size
}

// geomSizeBytes estimates the in-memory footprint of a decoded geometry:
// struct headers plus 16 bytes per vertex and the memo of its bounds
// (geom.Bounded), recursing into collection elements. An estimate is
// enough — the budget bounds memory order, not exact bytes.
func geomSizeBytes(g geom.Geometry) int {
	const header = 104 // Geometry struct + map entry + LRU entry overhead
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
