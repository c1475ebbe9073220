package sjoin

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
)

// gridPairs drives the goroutine-parallel grid join and returns the
// sorted result pairs.
func gridPairs(t *testing.T, a, b Source, cfg Config, workers int) []Pair {
	t.Helper()
	cur, err := GridParallelJoin(a, b, cfg, workers)
	return sortedPairs(t, cur, err)
}

// nestedPairs is the serial nested-loop ground truth, sorted.
func nestedPairs(t *testing.T, a, b Source, cfg Config) []Pair {
	t.Helper()
	pairs, _, err := NestedLoopStats(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	SortPairs(pairs)
	return pairs
}

// TestGridJoinMatchesNestedSerial is the differential test of the
// acceptance criteria: the grid-partitioned join must produce exactly
// the serial nested join's pairs — no duplicates, no misses — across
// uniform/clustered/skewed datasets, predicates, and worker counts.
func TestGridJoinMatchesNestedSerial(t *testing.T) {
	datasets := []struct {
		name string
		ds   datagen.Dataset
	}{
		{"uniform", datagen.Counties(160, 21)},
		{"clustered", datagen.Stars(300, 22)},
		{"skewed", datagen.BlockGroups(140, 23)},
	}
	cross := datagen.Counties(110, 24)
	crossSrc := buildSource(t, "cross", cross)
	configs := []struct {
		name string
		cfg  Config
	}{
		{"anyinteract", Config{Mask: geom.MaskAnyInteract, SortCandidates: true}},
		{"touch", Config{Mask: geom.MaskTouch, SortCandidates: true}},
		{"equal", Config{Mask: geom.MaskEqual, SortCandidates: true}},
		{"contains", Config{Mask: geom.MaskContains, SortCandidates: true}},
		{"inside", Config{Mask: geom.MaskInside, SortCandidates: true}},
		{"coveredby", Config{Mask: geom.MaskCoveredBy, SortCandidates: true}},
		{"distance", Config{Distance: 12, SortCandidates: true}},
	}
	if raceEnabled {
		// Under the ~10x race-detector slowdown, one dataset and the two
		// predicate shapes suffice: the concurrency under test (tile
		// stealing, shared cache, shared trace) is identical across the
		// matrix. TestGridJoinRace drives the high-worker case.
		datasets = datasets[:1]
		configs = []struct {
			name string
			cfg  Config
		}{configs[0], configs[len(configs)-1]}
	}
	for _, d := range datasets {
		src := buildSource(t, d.name, d.ds)
		for _, c := range configs {
			for _, pair := range []struct {
				name string
				b    Source
			}{{"self", src}, {"cross", crossSrc}} {
				want := nestedPairs(t, src, pair.b, c.cfg)
				for _, workers := range []int{1, 2, 4, 8} {
					name := fmt.Sprintf("%s/%s/%s/w%d", d.name, c.name, pair.name, workers)
					got := gridPairs(t, src, pair.b, c.cfg, workers)
					if len(got) != len(want) {
						t.Errorf("%s: grid %d pairs, nested %d", name, len(got), len(want))
						continue
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("%s: pair %d = %v, want %v", name, i, got[i], want[i])
							break
						}
					}
					for i := 1; i < len(got); i++ {
						if got[i] == got[i-1] {
							t.Errorf("%s: duplicate pair %v", name, got[i])
							break
						}
					}
				}
			}
		}
	}
}

// TestGridJoinRace drives many concurrent tile-stealing instances over
// one shared grid state, geometry cache, instrument set, and trace —
// the -race target for the grid worker pool.
func TestGridJoinRace(t *testing.T) {
	src := buildSource(t, "r", datagen.Stars(400, 51))
	reg := telemetry.New()
	cfg := DefaultConfig()
	cfg.Instr = NewInstruments(reg)
	cfg.Trace = telemetry.NewTracer(reg, -1, nil).Begin("grid race")
	want := nestedPairs(t, src, src, Config{Mask: geom.MaskAnyInteract, SortCandidates: true})
	got := gridPairs(t, src, src, cfg, 8)
	if len(got) != len(want) {
		t.Fatalf("grid %d pairs, nested %d", len(got), len(want))
	}
	if _, n := cfg.Trace.StageTotal(telemetry.StageTileSweep); n == 0 {
		t.Errorf("no tile-sweep spans recorded on the shared trace")
	}
	cfg.Trace.Finish()
}

// TestGridClassesEmitEachPairOnce checks the two-layer class scheme
// directly at the tile level. A scoped self-join keeps two copies of
// every rectangle: with the class filter every candidate pair is
// produced by exactly one tile; without it, replicated rectangles
// produce duplicates (proving the filter is load-bearing). An unscoped
// self-join under a symmetric predicate keeps one copy, grown by d/2:
// each unordered candidate pair comes from exactly one tile in one
// orientation, and each row's pair with itself exactly once.
func TestGridClassesEmitEachPairOnce(t *testing.T) {
	src := buildSource(t, "c", datagen.Counties(400, 31))
	cfg := DefaultConfig().WithDefaults()
	// Force many small tiles so rectangles straddle tile boundaries.
	cfg.GridTiles = 256
	scoped := cfg
	scoped.Owns = func(x, y float64) bool { return true }
	gs := buildGridState(src, src, scoped, 4)
	if len(gs.tiles) < 16 {
		t.Fatalf("grid state too small: %+v", gs)
	}
	counts := map[Pair]int{}
	raw := 0
	for ti := range gs.tiles {
		tl := &gs.tiles[ti]
		// Count raw sweep candidates, ignoring classes.
		for _, ea := range tl.ra {
			for _, eb := range tl.rb {
				if ea.Intersects(eb.MBR) {
					raw++
				}
			}
		}
		gs.sweepTile(tl, func(a, b *sweepEntry) {
			counts[Pair{A: a.id, B: b.id}]++
		})
	}
	if raw <= len(counts) {
		t.Fatalf("expected raw tile candidates (%d) to exceed deduplicated pairs (%d) — no replication means the test dataset is too easy", raw, len(counts))
	}
	for p, n := range counts {
		if n != 1 {
			t.Fatalf("pair %v emitted by %d tiles, want exactly 1", p, n)
		}
	}

	lattice := pointTable(t, "lattice", "point", latticePoints(31, 1500))
	for _, leg := range []struct {
		name string
		src  Source
		d    float64
	}{{"counties anyinteract", src, 0}, {"counties d=7", src, 7}, {"lattice d=1.5", lattice, 1.5}} {
		t.Run("unordered/"+leg.name, func(t *testing.T) {
			cfg := cfg
			cfg.Distance = leg.d
			checkUnorderedTiles(t, leg.src, cfg)
		})
	}
}

// checkUnorderedTiles sweeps every tile of an unordered grid self-join
// and checks that the sweeps emit exactly the unordered primary-filter
// candidates of the table, each by one tile in one orientation, and
// that some candidates of two points exactly d apart lie on opposite
// sides of a tile edge.
func checkUnorderedTiles(t *testing.T, src Source, cfg Config) {
	t.Helper()
	gs := buildGridState(src, src, cfg, 4)
	if len(gs.tiles) < 16 {
		t.Fatalf("grid state too small: %d tiles", len(gs.tiles))
	}
	unordered := func(a, b storage.RowID) Pair {
		if b.Less(a) {
			a, b = b, a
		}
		return Pair{A: a, B: b}
	}
	counts := map[Pair]int{}
	for ti := range gs.tiles {
		gs.sweepTile(&gs.tiles[ti], func(a, b *sweepEntry) {
			counts[unordered(a.id, b.id)]++
		})
	}
	items := src.Tree.Items()
	want, mbrs := 0, map[storage.RowID]geom.MBR{}
	for i, x := range items {
		mbrs[x.ID] = x.MBR
		for _, y := range items[i:] {
			if cfg.primaryAccepts(x.MBR, y.MBR) {
				want++
				if n := counts[unordered(x.ID, y.ID)]; n != 1 {
					t.Fatalf("candidate (%v, %v) emitted %d times, want once", x.ID, y.ID, n)
				}
			}
		}
	}
	if len(counts) != want {
		t.Fatalf("the sweeps emitted %d unordered pairs, the table has %d candidates", len(counts), want)
	}
	if cfg.Distance == 0 || !items[0].MBR.IsPoint() {
		return
	}
	edge := 0
	for p := range counts {
		a, b := mbrs[p.A], mbrs[p.B]
		if a.Dist(b) == cfg.Distance && (gs.grid.ColOf(a.MinX) != gs.grid.ColOf(b.MinX) || gs.grid.RowOf(a.MinY) != gs.grid.RowOf(b.MinY)) {
			edge++
		}
	}
	if edge == 0 {
		t.Fatalf("no candidate of two points %g apart straddles a tile edge: the fixture tests nothing", cfg.Distance)
	}
}

// TestGridJoinEmptyAndTiny covers the degenerate paths: an empty side,
// and inputs smaller than one tile.
func TestGridJoinEmptyAndTiny(t *testing.T) {
	full := buildSource(t, "full", datagen.Counties(50, 41))
	empty := buildSource(t, "empty", datagen.Dataset{Name: "empty"})
	cfg := DefaultConfig()
	if pairs := gridPairs(t, full, empty, cfg, 4); len(pairs) != 0 {
		t.Errorf("join with empty side returned %d pairs", len(pairs))
	}
	if pairs := gridPairs(t, empty, full, cfg, 4); len(pairs) != 0 {
		t.Errorf("join with empty first side returned %d pairs", len(pairs))
	}
	tiny := buildSource(t, "tiny", datagen.Counties(3, 42))
	want := nestedPairs(t, tiny, tiny, cfg)
	got := gridPairs(t, tiny, tiny, cfg, 8)
	if len(got) != len(want) {
		t.Errorf("tiny self-join: grid %d pairs, nested %d", len(got), len(want))
	}
}

// TestGridShape sanity-checks the sizing heuristic.
func TestGridShape(t *testing.T) {
	cols, rows := GridShape(0, 0, 1)
	if cols < 1 || rows < 1 {
		t.Fatalf("empty shape %dx%d", cols, rows)
	}
	c4, r4 := GridShape(10000, 10000, 4)
	c8, r8 := GridShape(10000, 10000, 8)
	if c8*r8 < c4*r4 {
		t.Errorf("more workers shrank the grid: %d tiles vs %d", c8*r8, c4*r4)
	}
	if c, r := GridShape(1<<30, 1<<30, 4); c*r > gridMaxTiles*2 {
		t.Errorf("tile cap not applied: %d tiles", c*r)
	}
}

// byMinX orders items on low x: the comparison sort of the reference
// placement.
func byMinX(p, q rtree.Item) int {
	switch {
	case p.MBR.MinX < q.MBR.MinX:
		return -1
	case p.MBR.MinX > q.MBR.MinX:
		return 1
	default:
		return 0
	}
}

// referencePlaceTiles is the grid placement before minXOrder and the
// counting pass, kept in the tests only: sort each side's items on low
// x, then append every copy to its tile's list, which grows as it goes.
// placeTiles must place the same copies with the same classes.
func referencePlaceTiles(g Grid, itemsA, itemsB []rtree.Item, grow float64, unordered bool) []gridTile {
	dense := make([]gridTile, g.Tiles())
	add := func(items []rtree.Item, expand float64, sideA bool) {
		items = slices.Clone(items)
		slices.SortFunc(items, byMinX)
		for _, it := range items {
			c0 := g.ColOf(it.MBR.MinX - expand)
			c1 := g.ColOf(it.MBR.MaxX + expand)
			r0 := g.RowOf(it.MBR.MinY - expand)
			r1 := g.RowOf(it.MBR.MaxY + expand)
			e := sweepEntry{MBR: it.MBR, id: it.ID}
			for r := r0; r <= r1; r++ {
				for c := c0; c <= c1; c++ {
					e.class = 0
					if c == c0 {
						e.class |= classXStart
					}
					if r == r0 {
						e.class |= classYStart
					}
					t := &dense[r*g.Cols+c]
					if sideA {
						t.ra = append(t.ra, e)
					} else {
						t.rb = append(t.rb, e)
					}
				}
			}
		}
	}
	if unordered {
		add(itemsA, grow/2, true)
		for i := range dense {
			dense[i].rb = dense[i].ra
		}
		return dense
	}
	add(itemsA, grow, true)
	add(itemsB, 0, false)
	return dense
}

// itemsBounds is the union of the items' MBRs.
func itemsBounds(items []rtree.Item) geom.MBR {
	m := geom.EmptyMBR()
	for _, it := range items {
		m = m.Union(it.MBR)
	}
	return m
}

// shuffled returns a copy of items in a random order.
func shuffled(seed int64, items []rtree.Item) []rtree.Item {
	out := slices.Clone(items)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, k int) { out[i], out[k] = out[k], out[i] })
	return out
}

// placementItems builds one side of a placement fixture: an item per
// MBR, rowids numbered from first, in a random order.
func placementItems(seed int64, first int, mbrs []geom.MBR) []rtree.Item {
	items := make([]rtree.Item, len(mbrs))
	for i, m := range mbrs {
		id := first + i
		items[i] = rtree.Item{MBR: m, ID: storage.RowID{Page: uint32(id/100 + 1), Slot: uint16(id % 100)}}
	}
	return shuffled(seed, items)
}

// placementMBRs returns n rectangles with their low x drawn by lowX,
// their low y uniform on [-50, 50), and sides up to 3 wide, a third of
// them points.
func placementMBRs(rng *rand.Rand, n int, lowX func(i int) float64) []geom.MBR {
	mbrs := make([]geom.MBR, n)
	for i := range mbrs {
		x, y := lowX(i), rng.Float64()*100-50
		w, h := rng.Float64()*3, rng.Float64()*3
		if i%3 == 0 {
			w, h = 0, 0
		}
		mbrs[i] = geom.MBR{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
	}
	return mbrs
}

// TestPlaceTilesMatchesReference is the placement differential: over
// shuffled inputs — random rectangles and adversarial low-x keys
// (duplicates, -0 beside +0, negative coordinates, ±1e300, every item
// at one x, a single item) — placeTiles puts the same multiset of
// (rowid, class) copies in every tile as the sort-then-append reference,
// in both layouts, and every tile list is non-decreasing in low x.
func TestPlaceTilesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	uniform := func(lo, hi float64) func(int) float64 {
		return func(int) float64 { return lo + rng.Float64()*(hi-lo) }
	}
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		a, b []geom.MBR
	}{
		{"random", placementMBRs(rng, 600, uniform(0, 60)), placementMBRs(rng, 500, uniform(10, 80))},
		{"duplicate keys", placementMBRs(rng, 400, func(i int) float64 { return float64(i % 5) }), placementMBRs(rng, 300, func(i int) float64 { return float64(i%3) * 2 })},
		{"signed zeros", placementMBRs(rng, 300, func(i int) float64 {
			return []float64{negZero, 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, -1, 1}[i%6]
		}), placementMBRs(rng, 200, func(i int) float64 { return []float64{0, negZero}[i%2] })},
		{"negative", placementMBRs(rng, 400, uniform(-90, -1)), placementMBRs(rng, 300, uniform(-60, 5))},
		{"huge", placementMBRs(rng, 300, func(i int) float64 { return []float64{-1e300, 1e300, 0, -7, 1e299}[i%5] }), placementMBRs(rng, 200, uniform(-1e300, 1e300))},
		{"one x", placementMBRs(rng, 300, func(int) float64 { return 5 }), placementMBRs(rng, 200, func(int) float64 { return 5 })},
		{"single item", placementMBRs(rng, 1, uniform(0, 10)), placementMBRs(rng, 1, uniform(0, 10))},
	}
	type copyKey struct {
		id    storage.RowID
		class uint8
	}
	multiset := func(list []sweepEntry) map[copyKey]int {
		m := map[copyKey]int{}
		for _, e := range list {
			m[copyKey{e.id, e.class}]++
		}
		return m
	}
	for ci, tc := range cases {
		a := placementItems(int64(ci), 0, tc.a)
		b := placementItems(int64(ci)+100, 5000, tc.b)
		for _, d := range []float64{0, 1.5} {
			for _, unordered := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/d=%g/unordered=%v", tc.name, d, unordered), func(t *testing.T) {
					grow := sweepGrow(d, itemsBounds(a), itemsBounds(b))
					bounds := itemsBounds(a).Expand(grow).Union(itemsBounds(b))
					if unordered {
						bounds = itemsBounds(a).Expand(grow / 2)
					}
					g := NewGrid(bounds, 7, 5)
					got := placeTiles(g, a, b, grow, unordered)
					want := referencePlaceTiles(g, a, b, grow, unordered)
					copies := 0
					for ti := range want {
						for side, lists := range [][2][]sweepEntry{{got[ti].ra, want[ti].ra}, {got[ti].rb, want[ti].rb}} {
							if !maps.Equal(multiset(lists[0]), multiset(lists[1])) {
								t.Fatalf("tile %d side %d: placed %d copies, the reference %d; the (rowid, class) multisets differ", ti, side, len(lists[0]), len(lists[1]))
							}
							for k := 1; k < len(lists[0]); k++ {
								if lists[0][k].MinX < lists[0][k-1].MinX {
									t.Fatalf("tile %d side %d: low x falls from %g to %g at copy %d", ti, side, lists[0][k-1].MinX, lists[0][k].MinX, k)
								}
							}
							copies += len(lists[0])
						}
					}
					if copies == 0 {
						t.Fatal("no copies placed: the fixture tests nothing")
					}
				})
			}
		}
	}
}

// gridBuildAllocFloor bounds buildGridState's allocations per
// statement: a fixed number per side and per grid, whatever the input
// size and the tile count.
const gridBuildAllocFloor = 16

// TestGridBuildAllocFloor holds buildGridState to gridBuildAllocFloor
// allocations over 4 000 and 16 000 star points, in the unordered
// layout (a self-join at distance 1.5) and the ordered one (the same
// join scoped), at the default grid shape and at 4 096 tiles.
func TestGridBuildAllocFloor(t *testing.T) {
	for _, n := range []int{4000, 16000} {
		stars := datagen.Stars(n, 7)
		pts := make([]geom.Point, len(stars.Geoms))
		for i, g := range stars.Geoms {
			pts[i] = geom.MBROf(g).Center()
		}
		src := pointTable(t, fmt.Sprintf("floor_%d", n), "point", pts)
		for _, scoped := range []bool{false, true} {
			for _, tiles := range []int{0, 4096} {
				cfg := DefaultConfig().WithDefaults()
				cfg.Distance = 1.5
				cfg.GridTiles = tiles
				if scoped {
					cfg.Owns = func(x, y float64) bool { return true }
				}
				if got := buildGridState(src, src, cfg, 2); len(got.tiles) == 0 || got.unordered == scoped {
					t.Fatalf("n=%d scoped=%v: %d tiles, unordered=%v", n, scoped, len(got.tiles), got.unordered)
				}
				allocs := testing.AllocsPerRun(5, func() { buildGridState(src, src, cfg, 2) })
				if allocs > gridBuildAllocFloor {
					t.Errorf("n=%d scoped=%v tiles=%d: buildGridState made %.0f allocations, floor %d", n, scoped, tiles, allocs, gridBuildAllocFloor)
				}
			}
		}
	}
}
