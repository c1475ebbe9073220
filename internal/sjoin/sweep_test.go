package sjoin

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/idxbuild"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
)

// collect runs the pipelined index join under cfg and returns the
// sorted result pairs.
func collect(t *testing.T, a, b Source, cfg Config) []Pair {
	t.Helper()
	cur, err := IndexJoin(a, b, cfg)
	return sortedPairs(t, cur, err)
}

// TestSweepMatchesNestedPrimaryFilter is the differential test for the
// plane-sweep primary filter: across uniform (counties), clustered
// (stars), and skewed (block groups) data, with and without a join
// distance, the serial index join returns the nested-loop reference's
// result set.
func TestSweepMatchesNestedPrimaryFilter(t *testing.T) {
	uniform := buildSource(t, "t_uniform", datagen.Counties(300, 11))
	clustered := buildSource(t, "t_clustered", datagen.Stars(800, 12))
	skewed := buildSource(t, "t_skewed", datagen.BlockGroups(250, 13))

	cases := []struct {
		name string
		a, b Source
	}{
		{"uniform_self", uniform, uniform},
		{"clustered_self", clustered, clustered},
		{"skewed_self", skewed, skewed},
		{"uniform_x_clustered", uniform, clustered},
		{"clustered_x_skewed", clustered, skewed},
	}
	for _, tc := range cases {
		for _, dist := range []float64{0, 10} {
			t.Run(fmt.Sprintf("%s/dist=%g", tc.name, dist), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Distance = dist
				got := collect(t, tc.a, tc.b, cfg)
				if want := nestedPairs(t, tc.a, tc.b, cfg); !pairsEqual(got, want) {
					t.Fatalf("sweep produced %d pairs, nested loop %d; result sets differ", len(got), len(want))
				}
			})
		}
	}
}

// TestSweepMatchesNestedParallel checks the same equivalence through
// the parallel subtree-pair path: each instance runs the sweep on its
// own share of the decomposition, and the merged result must match the
// nested-loop reference pair for pair.
func TestSweepMatchesNestedParallel(t *testing.T) {
	a := buildSource(t, "p_stars", datagen.Stars(900, 21))
	b := buildSource(t, "p_counties", datagen.Counties(250, 22))
	want := nestedPairs(t, a, b, DefaultConfig())
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cur, err := ParallelIndexJoin(a, b, DefaultConfig(), workers)
			if got := sortedPairs(t, cur, err); !pairsEqual(got, want) {
				t.Fatalf("parallel sweep produced %d pairs, nested loop %d; result sets differ", len(got), len(want))
			}
		})
	}
}

// nestedScanSource is the serial join's synchronized R-tree traversal
// with the O(n·m) entry-pair scan under primaryAccepts in place of the
// sweep: a reference primary filter, kept in the tests only. A node
// paired with itself under the mirror mode pairs entry i with the
// entries k ≥ i, so it meets each unordered entry pair once, as the
// sweep's self mode does.
type nestedScanSource struct {
	roots, stack []PairOfRoots
}

func (s *nestedScanSource) start() { s.stack = append(s.stack[:0], s.roots...) }

func (s *nestedScanSource) refill(j *JoinFunction) {
	for j.room() > 0 && len(s.stack) > 0 {
		top := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		a, b := top.A, top.B
		switch {
		case a.IsLeaf() && !b.IsLeaf():
			for k := 0; k < b.NumEntries(); k++ {
				if j.cfg.primaryAccepts(a.MBR(), b.EntryMBR(k)) {
					s.stack = append(s.stack, PairOfRoots{a, b.Child(k)})
				}
			}
		case !a.IsLeaf() && b.IsLeaf():
			for i := 0; i < a.NumEntries(); i++ {
				if j.cfg.primaryAccepts(a.EntryMBR(i), b.MBR()) {
					s.stack = append(s.stack, PairOfRoots{a.Child(i), b})
				}
			}
		default:
			for i := 0; i < a.NumEntries(); i++ {
				k0 := 0
				if j.routes.has(routeMirror) && a == b {
					k0 = i
				}
				for k := k0; k < b.NumEntries(); k++ {
					ma, mb := a.EntryMBR(i), b.EntryMBR(k)
					switch {
					case !j.cfg.primaryAccepts(ma, mb):
					case a.IsLeaf():
						j.emit(Pair{A: a.EntryID(i), B: b.EntryID(k)}, ma, mb)
					default:
						s.stack = append(s.stack, PairOfRoots{a.Child(i), b.Child(k)})
					}
				}
			}
		}
	}
}

// nestedScanJoin is IndexJoin over nestedScanSource: the serial
// evaluator, its routes and its owner test, fed by the reference
// primary filter instead of the sweep.
func nestedScanJoin(a, b Source, cfg Config) (storage.Cursor, error) {
	src := &nestedScanSource{}
	if a.Tree.Len() > 0 && b.Tree.Len() > 0 {
		src.roots = []PairOfRoots{{a.Tree.Root(), b.Tree.Root()}}
	}
	fn, err := newJoinFn(a, b, cfg, src)
	if err != nil {
		return nil, err
	}
	return pipeline(fn, fn.cfg), nil
}

// sweepItems returns n random rectangles — a quarter of them points,
// some snapped to a unit lattice so edges touch and gaps tie — and then
// the points pts, sorted on low x, with rowids numbered from first.
func sweepItems(seed int64, n, first int, pts ...geom.Point) []rtree.Item {
	rng := rand.New(rand.NewSource(seed))
	var items []rtree.Item
	add := func(m geom.MBR) {
		id := first + len(items)
		items = append(items, rtree.Item{MBR: m, ID: storage.RowID{Page: uint32(id/100 + 1), Slot: uint16(id % 100)}})
	}
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*60, rng.Float64()*60
		if i%3 == 0 {
			x, y = math.Floor(x), math.Floor(y)
		}
		w, h := rng.Float64()*4, rng.Float64()*4
		if i%4 == 0 {
			w, h = 0, 0
		}
		add(geom.MBR{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h})
	}
	for _, p := range pts {
		add(geom.MBR{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
	}
	slices.SortFunc(items, byMinX)
	return items
}

// bruteSweepPairs counts every pair of items cfg.primaryAccepts — all
// of a × b, or with self the unordered pairs of a, each row paired
// with itself once — the O(n·m) enumeration the sweep must equal.
func bruteSweepPairs(cfg Config, a, b []rtree.Item, self bool) map[Pair]int {
	want := map[Pair]int{}
	for i, x := range a {
		if self {
			b = a[i:]
		}
		for _, y := range b {
			if cfg.primaryAccepts(x.MBR, y.MBR) {
				want[pairKey(x.ID, y.ID, self)]++
			}
		}
	}
	return want
}

// pairKey is the pair of two rowids, lower first when unordered.
func pairKey(a, b storage.RowID, unordered bool) Pair {
	if unordered && b.Less(a) {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// TestSweepEqualsBruteForce holds the kernel to the brute-force pair
// enumeration in each of its modes — a node pair (cross), a node paired
// with itself (self), and the tiles of a cross and an unordered grid,
// whose classes must leave each pair in exactly one tile — over random
// rectangles and point pairs whose gap rounds to the join distance:
// side A holds both ends of every such pair, side B the second ends.
func TestSweepEqualsBruteForce(t *testing.T) {
	firsts, seconds := roundingBoundaryPoints(63, 20, 1.5, 7)
	itemsA := sweepItems(61, 300, 0, append(firsts, seconds...)...)
	itemsB := sweepItems(62, 250, 1000, seconds...)
	entries := func(items []rtree.Item) []sweepEntry {
		es := make([]sweepEntry, len(items))
		for i, it := range items {
			es[i] = sweepEntry{MBR: it.MBR, id: it.ID, idx: int32(i), class: classBoth}
		}
		return es
	}
	for _, d := range []float64{0, 1.5, 7} {
		cfg := DefaultConfig()
		cfg.Distance = d
		for _, mode := range []struct {
			name string
			self bool
			grid bool
		}{{"node cross", false, false}, {"node self", true, false}, {"grid cross", false, true}, {"grid self", true, true}} {
			t.Run(fmt.Sprintf("%s/d=%g", mode.name, d), func(t *testing.T) {
				a, b := itemsA, itemsB
				if mode.self {
					b = a
				}
				want := bruteSweepPairs(cfg, a, b, mode.self)
				if len(want) < 100 {
					t.Fatalf("only %d pairs: the fixture tests little", len(want))
				}
				grow := sweepGrow(d, itemsBounds(a), itemsBounds(b))
				got := map[Pair]int{}
				emit := func(e, o *sweepEntry) { got[pairKey(e.id, o.id, mode.self)]++ }
				if mode.grid {
					// placeTiles orders its input itself: hand it
					// the items shuffled.
					g := NewGrid(itemsBounds(a).Expand(grow).Union(itemsBounds(b)), 7, 7)
					for _, tile := range placeTiles(g, shuffled(64, a), shuffled(65, b), grow, mode.self) {
						sweep(tile.ra, tile.rb, grow, d, mode.self, emit)
					}
				} else {
					ea := entries(a)
					eb := ea
					if !mode.self {
						eb = entries(b)
					}
					sweep(ea, eb, grow, d, mode.self, emit)
				}
				for p, n := range got {
					if n != 1 || want[p] != 1 {
						t.Fatalf("pair %v emitted %d times, brute force counts it %d times", p, n, want[p])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("the sweep emitted %d pairs, brute force %d", len(got), len(want))
				}
			})
		}
	}
}

// TestGeomCacheOnOffIdentical is the cache differential: results must
// be identical with the cache disabled, private, or shared, and the
// cached run must not fetch more base-table geometries than the
// uncached one.
func TestGeomCacheOnOffIdentical(t *testing.T) {
	a := buildSource(t, "c_stars", datagen.Stars(700, 41))
	b := buildSource(t, "c_blocks", datagen.BlockGroups(400, 42))

	run := func(cfg Config) ([]Pair, JoinStats) {
		fn, err := NewJoinFunction(a, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn.Start(); err != nil {
			t.Fatal(err)
		}
		defer fn.Close()
		var pairs []Pair
		var batch storage.Batch
		for {
			batch.Reset()
			if err := fn.Fetch(&batch, 512); err != nil {
				t.Fatal(err)
			}
			if len(batch.Rows) == 0 {
				break
			}
			if pairs, err = AppendPairs(pairs, batch.Rows); err != nil {
				t.Fatal(err)
			}
		}
		SortPairs(pairs)
		return pairs, fn.Stats()
	}

	off := DefaultConfig()
	off.GeomCacheBytes = -1
	pOff, sOff := run(off)
	if sOff.CacheHits != 0 || sOff.CacheMisses != 0 {
		t.Fatalf("disabled cache recorded lookups: %+v", sOff)
	}

	on := DefaultConfig()
	pOn, sOn := run(on)
	if !pairsEqual(pOn, pOff) {
		t.Fatalf("cache-on join produced %d pairs, cache-off %d", len(pOn), len(pOff))
	}
	if sOn.CacheHits == 0 {
		t.Fatalf("cache-on join recorded no hits: %+v", sOn)
	}
	if sOn.GeomFetches > sOff.GeomFetches {
		t.Fatalf("cache-on fetched %d geometries, cache-off only %d", sOn.GeomFetches, sOff.GeomFetches)
	}
	if sOn.GeomFetches != sOn.CacheMisses {
		t.Fatalf("cached fetches (%d) and misses (%d) disagree", sOn.GeomFetches, sOn.CacheMisses)
	}

	shared := DefaultConfig()
	shared.GeomCache = NewGeomCache(0)
	pShared, _ := run(shared)
	if !pairsEqual(pShared, pOff) {
		t.Fatalf("shared-cache join produced %d pairs, cache-off %d", len(pShared), len(pOff))
	}
	// A second join through the now-warm shared cache: same results,
	// and (cache larger than both datasets) no base-table fetches at all.
	pWarm, sWarm := run(shared)
	if !pairsEqual(pWarm, pOff) {
		t.Fatalf("warm shared-cache join produced %d pairs, cache-off %d", len(pWarm), len(pOff))
	}
	if sWarm.GeomFetches != 0 {
		t.Fatalf("warm shared cache still fetched %d geometries", sWarm.GeomFetches)
	}
}

// TestGeomCacheMultiColumn pins the cache key down to the column: a
// table with two GEOMETRY columns joined through one shared cache must
// never be served the other column's geometry for the same rowid.
func TestGeomCacheMultiColumn(t *testing.T) {
	dsA := datagen.Counties(200, 71)
	dsB := datagen.Stars(200, 72)
	n := len(dsA.Geoms)
	if len(dsB.Geoms) < n {
		n = len(dsB.Geoms)
	}
	tab, err := storage.NewTable("mc_two_geoms", []storage.Column{
		{Name: "id", Type: storage.TInt64},
		{Name: "g_a", Type: storage.TGeometry},
		{Name: "g_b", Type: storage.TGeometry},
	})
	if err != nil {
		t.Fatal(err)
	}
	var first storage.RowID
	for i := 0; i < n; i++ {
		id, err := tab.Insert(storage.Row{
			storage.Int(int64(i)),
			storage.Geom(dsA.Geoms[i]),
			storage.Geom(dsB.Geoms[i]),
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = id
		}
	}
	treeA, _, err := idxbuild.CreateRtree(tab, "g_a", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	treeB, _, err := idxbuild.CreateRtree(tab, "g_b", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	srcA := Source{Table: tab, Column: "g_a", Tree: treeA}
	srcB := Source{Table: tab, Column: "g_b", Tree: treeB}

	// Direct check: the two columns of one row are distinct entries.
	colA, err := srcA.geomColumn()
	if err != nil {
		t.Fatal(err)
	}
	colB, err := srcB.geomColumn()
	if err != nil {
		t.Fatal(err)
	}
	c := NewGeomCache(0)
	c.Put(tab, colA, first, dsA.Geoms[0])
	c.Put(tab, colB, first, dsB.Geoms[0])
	gA, okA := c.Get(tab, colA, first)
	gB, okB := c.Get(tab, colB, first)
	if !okA || !okB {
		t.Fatalf("per-column entries not resident: g_a=%v g_b=%v", okA, okB)
	}
	if !gA.Equal(dsA.Geoms[0]) || !gB.Equal(dsB.Geoms[0]) {
		t.Fatalf("cache returned the wrong column's geometry")
	}

	// Ground truth with caching disabled, then the same joins through
	// one shared cache: the g_a join warms every rowid, and the g_b
	// join over the same rowids must still fetch g_b geometries.
	off := DefaultConfig()
	off.GeomCacheBytes = -1
	probe := buildSource(t, "mc_probe", datagen.Counties(150, 73))
	wantA := collect(t, srcA, probe, off)
	wantB := collect(t, srcB, probe, off)
	wantSelf := collect(t, srcA, srcB, off)

	shared := DefaultConfig()
	shared.GeomCache = NewGeomCache(0)
	if got := collect(t, srcA, probe, shared); !pairsEqual(got, wantA) {
		t.Fatalf("g_a join through shared cache produced %d pairs, uncached %d", len(got), len(wantA))
	}
	if got := collect(t, srcB, probe, shared); !pairsEqual(got, wantB) {
		t.Fatalf("g_b join through warm shared cache produced %d pairs, uncached %d", len(got), len(wantB))
	}
	// A single join can also collide with itself: g_a against g_b of
	// the same table shares one private cache across both operands.
	if got := collect(t, srcA, srcB, DefaultConfig()); !pairsEqual(got, wantSelf) {
		t.Fatalf("g_a x g_b self-table join produced %d pairs, uncached %d", len(got), len(wantSelf))
	}
}

// TestGeomCacheEviction exercises the byte bound directly: a tiny cache
// must stay within budget, hold only part of what was put, charge
// exactly what it holds, and refuse a geometry larger than its whole
// budget. Four goroutines getting and putting at once (the race lane
// runs this) must leave it within budget and its count exact too.
func TestGeomCacheEviction(t *testing.T) {
	src := buildSource(t, "ev_counties", datagen.Counties(200, 51))
	col, err := src.geomColumn()
	if err != nil {
		t.Fatal(err)
	}
	var ids []storage.RowID
	var geoms []geom.Geometry
	src.Table.Scan(func(id storage.RowID, row storage.Row) bool {
		ids = append(ids, id)
		geoms = append(geoms, row[col].G)
		return true
	})
	budget := geomSizeBytes(geoms[0]) * 40
	// within checks the residency against the budget and against the
	// sizes of the geometries the cache still returns.
	within := func(c *GeomCache, when string) {
		t.Helper()
		bytes, entries := c.Resident()
		if entries == 0 || entries >= int64(len(ids)) {
			t.Fatalf("%s: expected partial residency, have %d of %d entries", when, entries, len(ids))
		}
		if bytes > int64(budget) {
			t.Fatalf("%s: cache overflows its %d-byte budget: %d bytes resident", when, budget, bytes)
		}
		held, n := 0, int64(0)
		for _, id := range ids {
			if g, ok := c.Get(src.Table, col, id); ok {
				held += geomSizeBytes(g)
				n++
			}
		}
		if int64(held) != bytes || n != entries {
			t.Fatalf("%s: cache counts %d bytes in %d entries, holds %d bytes in %d", when, bytes, entries, held, n)
		}
	}

	c := NewGeomCache(budget)
	for i, id := range ids {
		c.Put(src.Table, col, id, geoms[i])
	}
	within(c, "serial puts")

	roomy := NewGeomCache(0)
	roomy.Put(src.Table, col, ids[1], geoms[1])
	roomy.Put(src.Table, col, ids[1], geoms[0]) // a re-put replaces
	g, ok := roomy.Get(src.Table, col, ids[1])
	if bytes, entries := roomy.Resident(); !ok || !g.Equal(geoms[0]) || entries != 1 || bytes != int64(geomSizeBytes(geoms[0])) {
		t.Fatalf("a re-put left %d bytes in %d entries, replaced %v", bytes, entries, ok && g.Equal(geoms[0]))
	}

	tiny := NewGeomCache(geomSizeBytes(geoms[0]) - 1)
	tiny.Put(src.Table, col, ids[0], geoms[0])
	if _, ok := tiny.Get(src.Table, col, ids[0]); ok {
		t.Fatalf("a geometry larger than the whole budget was cached")
	}
	if bytes, entries := tiny.Resident(); bytes != 0 || entries != 0 {
		t.Fatalf("an empty cache holds %d bytes in %d entries", bytes, entries)
	}

	shared := NewGeomCache(budget)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := w; i < len(ids); i += 2 {
					if g, ok := shared.Get(src.Table, col, ids[i]); ok && !g.Equal(geoms[i]) {
						t.Errorf("entry %d: the cache returned another row's geometry", i)
						return
					}
					shared.Put(src.Table, col, ids[i], geoms[i])
				}
			}
		}()
	}
	wg.Wait()
	within(shared, "concurrent gets and puts")
}

// TestGeomCacheJoinRefineTrafficEvictsNothing pins the traffic the
// cache serves: join_refine's two statements (350 block groups × 256
// zones, ANYINTERACT, and the self-join of 1 000 counties at distance
// 7), each run twice through one default-sized cache, put every
// geometry they fetch once and drop none, so entries equal misses. The
// cache drops entries in whatever order its map yields them; if a
// budget or size-estimate change puts that order on this traffic, this
// goes red.
func TestGeomCacheJoinRefineTrafficEvictsNothing(t *testing.T) {
	bg := buildSource(t, "tr_bg", datagen.BlockGroups(350, 1))
	zones := buildSource(t, "tr_zones", datagen.Counties(256, 3))
	counties := buildSource(t, "tr_counties", datagen.Counties(1000, 2))
	cfg := DefaultConfig()
	cfg.GeomCache = NewGeomCache(0)
	near := cfg
	near.Distance = 7
	misses, hits := 0, 0
	for run := 0; run < 2; run++ {
		for _, j := range []struct {
			a, b Source
			cfg  Config
		}{{bg, zones, cfg}, {counties, counties, near}} {
			fn, err := NewJoinFunction(j.a, j.b, j.cfg)
			if err != nil {
				t.Fatal(err)
			}
			n, stats, err := RunJoinFunction(fn, 256)
			if err != nil || n == 0 {
				t.Fatalf("run %d: %d results, %v", run, n, err)
			}
			if run == 1 && stats.CacheMisses != 0 {
				t.Errorf("run 2 missed %d geometries the first run cached", stats.CacheMisses)
			}
			misses += stats.CacheMisses
			hits += stats.CacheHits
		}
	}
	bytes, entries := cfg.GeomCache.Resident()
	if entries != int64(misses) {
		t.Fatalf("the cache holds %d entries after %d misses: the traffic evicted", entries, misses)
	}
	if hits == 0 || bytes > DefaultGeomCacheBytes {
		t.Fatalf("%d hits, %d bytes resident of a %d-byte budget", hits, bytes, DefaultGeomCacheBytes)
	}
}

// TestGeomCacheHoldsBounds pins where the bounds memo comes from: a
// geometry the join puts into its cache carries it (geom.Bounded), the
// cache's sizing counts it, and a fetch with no cache leaves the decoded
// geometry as it is. TestGeomCacheOnOffIdentical is the differential
// over the answers: cache off reads no memo, cache on reads one.
func TestGeomCacheHoldsBounds(t *testing.T) {
	src := buildSource(t, "memo_counties", datagen.Counties(50, 61))
	col, err := src.geomColumn()
	if err != nil {
		t.Fatal(err)
	}
	var ids []storage.RowID
	src.Table.Scan(func(id storage.RowID, _ storage.Row) bool {
		ids = append(ids, id)
		return true
	})
	c := NewGeomCache(0)
	want := 0
	for _, id := range ids {
		g, hit, live, err := cachedFetch(c, src.Table, col, id)
		if err != nil || !live || hit {
			t.Fatalf("fetch %v: hit %v, live %v, err %v", id, hit, live, err)
		}
		if g.MemoBytes() == 0 {
			t.Fatalf("fetch %v: a cached %v carries no memo", id, g.Kind)
		}
		if geom.MBROf(g) != geom.MBROf(geom.Geometry{Kind: g.Kind, Rings: g.Rings}) {
			t.Fatalf("fetch %v: the memo's box is not the MBR", id)
		}
		want += geomSizeBytes(g)
		if again, hit, _, _ := cachedFetch(c, src.Table, col, id); !hit || again.MemoBytes() == 0 {
			t.Fatalf("fetch %v again: hit %v, memo bytes %d", id, hit, again.MemoBytes())
		}
		if bare, _, _, _ := cachedFetch(nil, src.Table, col, id); bare.MemoBytes() != 0 {
			t.Fatalf("fetch %v without a cache attached a memo", id)
		}
	}
	if bytes, _ := c.Resident(); bytes != int64(want) {
		t.Fatalf("cache holds %d bytes, the fetched geometries size to %d", bytes, want)
	}
}

// TestCachedBoundsSharedByInstances has parallel subtree and grid
// instances of two joins read the same bounded geometries out of one
// shared cache at once. A memo is written before its geometry is put
// into the cache and only read after a lookup, so the race lane (`make
// race-hot`) holds that handoff; the answers must be the serial join's
// on a cache of its own.
func TestCachedBoundsSharedByInstances(t *testing.T) {
	src := buildSource(t, "shared_counties", datagen.Counties(200, 81))
	cfg := DefaultConfig()
	cfg.Distance = 7
	cur, err := IndexJoin(src, src, cfg)
	want := sortedPairs(t, cur, err)
	shared := cfg
	shared.GeomCache = NewGeomCache(0)
	reg := telemetry.New()
	shared.Instr = NewInstruments(reg)
	opens := []func() (storage.Cursor, error){
		func() (storage.Cursor, error) { return ParallelIndexJoin(src, src, shared, 4) },
		func() (storage.Cursor, error) { return GridParallelJoin(src, src, shared, 4) },
	}
	got := make([][]Pair, len(opens))
	errs := make([]error, len(opens))
	var wg sync.WaitGroup
	for i, open := range opens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur, err := open()
			if err == nil {
				got[i], err = CollectPairs(cur)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i := range opens {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		SortPairs(got[i])
		if !pairsEqual(got[i], want) {
			t.Errorf("join %d on the shared cache: %d pairs, serial %d", i, len(got[i]), len(want))
		}
	}
	if hits := lookupValue(t, reg, "geom_cache_hits_total"); hits == 0 {
		t.Fatalf("the instances shared no cached geometry: %d hits", hits)
	}
}
