package spatialtf

// One testing.B benchmark per paper table and figure, plus ablation
// benches for the design choices called out in DESIGN.md §6. The table
// and figure benchmarks report the paper's columns beside ns/op through
// b.ReportMetric: result sizes and index node accesses (the "buffer
// gets") for Tables 1 and 2, phase times for Table 3, and the pipeline
// counts of Figures 1 and 2. Every parallel leg is real goroutine
// execution. The datasets are a tenth of the paper's or smaller, fixed
// in code; shape_test.go asserts the shapes the tables show.

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/idxbuild"
	"spatialtf/internal/quadtree"
	"spatialtf/internal/rtree"
	"spatialtf/internal/sjoin"
	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
)

// Shared fixtures, built once.
var (
	fixOnce     sync.Once
	fixCounties sjoin.Source // 900 counties
	fixStars    sjoin.Source // 5000 stars
	fixBlocks   sjoin.Source // 1500 block groups (skewed)
	fixBGTab    *storage.Table
	fixBGDs     datagen.Dataset

	pointsOnce sync.Once
	fixPoints  sjoin.Source // 16 000 star centres

	zonesOnce  sync.Once
	fixZoneBGs sjoin.Source // 350 block groups
	fixZones   sjoin.Source // 256 county-shaped zones

	table2Once  sync.Once
	table2Stars map[int]sjoin.Source // prefixes of one 25 000-star set
)

func fixtures(b testing.TB) {
	b.Helper()
	fixOnce.Do(func() {
		var err error
		fixCounties, err = benchSource("bench_counties", datagen.Counties(900, 1), 0)
		if err != nil {
			panic(err)
		}
		fixStars, err = benchSource("bench_stars", datagen.Stars(5000, 2), 0)
		if err != nil {
			panic(err)
		}
		fixBGDs = datagen.BlockGroups(1500, 3)
		fixBGTab, _, err = datagen.LoadTable("bench_bg", fixBGDs)
		if err != nil {
			panic(err)
		}
		fixBlocks, err = benchSource("bench_blocks", fixBGDs, 0)
		if err != nil {
			panic(err)
		}
	})
}

// zonesFixture builds join_refine's primary operands at the sizes the
// benchmark workload loads them.
func zonesFixture() {
	zonesOnce.Do(func() {
		var err error
		if fixZoneBGs, err = benchSource("bench_zone_bgs", datagen.BlockGroups(350, 1), 0); err != nil {
			panic(err)
		}
		if fixZones, err = benchSource("bench_zones", datagen.Counties(256, 3), 0); err != nil {
			panic(err)
		}
	})
}

// benchSource loads ds and builds its R-tree with the given node fanout
// (0 = default).
func benchSource(name string, ds datagen.Dataset, fanout int) (sjoin.Source, error) {
	tab, _, err := datagen.LoadTable(name, ds)
	if err != nil {
		return sjoin.Source{}, err
	}
	tree, _, err := idxbuild.CreateRtree(tab, "geom", fanout, 1)
	if err != nil {
		return sjoin.Source{}, err
	}
	return sjoin.Source{Table: tab, Column: "geom", Tree: tree}, nil
}

// --- Table 1: counties self-join, nested loop vs index join ---

// table1Cells is Table 1's distance sweep in county cells: plain
// intersection, then distances that pull in more and more of the next
// ring of neighbours (every county already touches its 8 neighbours).
var table1Cells = []float64{0, 0.4, 0.8, 1.2}

// table1Distance converts a sweep point to a distance: the 900 fixture
// counties tile a 30 × 30 grid of the world.
func table1Distance(cells float64) float64 {
	return cells * (datagen.World.Width() / math.Ceil(math.Sqrt(900)))
}

// nestedLoop runs the nested-loop join and returns its result size and
// counters.
func nestedLoop(a, b sjoin.Source, cfg sjoin.Config) (int, sjoin.JoinStats, error) {
	pairs, stats, err := sjoin.NestedLoopStats(a, b, cfg)
	return len(pairs), stats, err
}

// indexJoin runs the serial spatial_join table function to exhaustion
// and returns its result size and counters.
func indexJoin(a, b sjoin.Source, cfg sjoin.Config) (int, sjoin.JoinStats, error) {
	fn, err := sjoin.NewJoinFunction(a, b, cfg)
	if err != nil {
		return 0, sjoin.JoinStats{}, err
	}
	return sjoin.RunJoinFunction(fn, 0)
}

// benchJoin times join over src × src and reports the columns of
// Tables 1 and 2 beside the time: the result size and the index node
// accesses.
func benchJoin(b *testing.B, src sjoin.Source, cfg sjoin.Config, join func(a, b sjoin.Source, cfg sjoin.Config) (int, sjoin.JoinStats, error)) {
	for i := 0; i < b.N; i++ {
		n, stats, err := join(src, src, cfg)
		if err != nil || n == 0 {
			b.Fatal(n, err)
		}
		b.ReportMetric(float64(n), "result-size")
		b.ReportMetric(float64(stats.NodeAccesses), "node-accesses")
	}
}

func BenchmarkTable1NestedLoop(b *testing.B) {
	fixtures(b)
	for _, cells := range table1Cells {
		b.Run(fmt.Sprintf("distance=%gcell", cells), func(b *testing.B) {
			cfg := sjoin.DefaultConfig()
			cfg.Distance = table1Distance(cells)
			benchJoin(b, fixCounties, cfg, nestedLoop)
		})
	}
}

func BenchmarkTable1IndexJoin(b *testing.B) {
	fixtures(b)
	for _, cells := range table1Cells {
		b.Run(fmt.Sprintf("distance=%gcell", cells), func(b *testing.B) {
			cfg := sjoin.DefaultConfig()
			cfg.Distance = table1Distance(cells)
			benchJoin(b, fixCounties, cfg, indexJoin)
		})
	}
}

// The join_refine workload's secondary statement in miniature: the
// counties self-join at distance 7, serial, streamed as rows like the
// statement. Every candidate is like-sized and fetched, so the
// secondary filter does the work; the allocs/op lane of bench-smoke
// watches its refine path.
func BenchmarkSelfJoinRefine(b *testing.B) {
	fixtures(b)
	cfg := sjoin.DefaultConfig()
	cfg.Distance = 7
	benchRefine(b, fixCounties, fixCounties, cfg)
}

// The join_refine workload's primary statement in miniature: 350 block
// groups × 256 zones, ANYINTERACT, serial, streamed as rows. The box
// route decides some candidates from their MBRs; the rest are fetched
// and refined.
func BenchmarkZonesJoinRefine(b *testing.B) {
	zonesFixture()
	benchRefine(b, fixZoneBGs, fixZones, sjoin.DefaultConfig())
}

// benchRefine drains the serial index join of a × c with cfg on two
// cache legs. cache=db shares one geometry cache across iterations,
// warmed before timing, as a DB's statements share the database's
// cache; cache=join gives each join a private cache, so every iteration
// fetches and decodes each geometry it refines.
func benchRefine(b *testing.B, a, c sjoin.Source, cfg sjoin.Config) {
	for _, leg := range []string{"db", "join"} {
		b.Run("cache="+leg, func(b *testing.B) {
			cfg := cfg
			if leg == "db" {
				cfg.GeomCache = sjoin.NewGeomCache(0)
				if n, err := drainRows(sjoin.IndexJoin(a, c, cfg)); err != nil || n == 0 {
					b.Fatal(n, err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := drainRows(sjoin.IndexJoin(a, c, cfg)); err != nil || n == 0 {
					b.Fatal(n, err)
				}
			}
		})
	}
}

// drainRows drains and closes a join cursor, a fetch batch at a time,
// and returns its row count.
func drainRows(cur storage.Cursor, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	n := 0
	var batch storage.Batch
	for {
		batch.Reset()
		if err := cur.NextBatch(&batch, 0); err != nil {
			return n, err
		}
		if len(batch.Rows) == 0 {
			return n, cur.Close()
		}
		n += len(batch.Rows)
	}
}

// --- Table 2: star self-join scaling, serial vs parallel join ---

// table2Sizes are Table 2's subset sizes at a tenth of the paper's
// (25, 2 500, 25 000, 100 000 and 250 000 stars; the smallest stays 25).
var table2Sizes = []int{25, 250, 2500, 10000, 25000}

// table2Fixture builds one source per Table 2 size over the prefixes of
// a single seeded star set, as the paper joins subsets of one catalogue.
func table2Fixture() {
	table2Once.Do(func() {
		full := datagen.Stars(table2Sizes[len(table2Sizes)-1], 2)
		table2Stars = make(map[int]sjoin.Source, len(table2Sizes))
		for _, n := range table2Sizes {
			subset := datagen.Dataset{Name: "stars", Geoms: full.Geoms[:n], Bounds: full.Bounds}
			src, err := benchSource(fmt.Sprintf("bench_stars_%d", n), subset, 0)
			if err != nil {
				panic(err)
			}
			table2Stars[n] = src
		}
	})
}

// benchTable2 runs join over every Table 2 size, one sub-benchmark each.
func benchTable2(b *testing.B, join func(a, b sjoin.Source, cfg sjoin.Config) (int, sjoin.JoinStats, error)) {
	table2Fixture()
	for _, n := range table2Sizes {
		b.Run(fmt.Sprintf("size=%d", n), func(b *testing.B) {
			benchJoin(b, table2Stars[n], sjoin.DefaultConfig(), join)
		})
	}
}

func BenchmarkTable2NestedLoop(b *testing.B) { benchTable2(b, nestedLoop) }

func BenchmarkTable2IndexJoin(b *testing.B) { benchTable2(b, indexJoin) }

// Telemetry overhead ablation: the identical star self-join with live
// instruments and a per-query span trace attached. The delta against
// BenchmarkTable2IndexJoin/size=10000 (which runs on the Nop registry)
// is the full enabled-observability cost; the budget in DESIGN.md §12
// is <= 2%.
func BenchmarkTable2IndexJoinTelemetry(b *testing.B) {
	table2Fixture()
	src := table2Stars[10000]
	reg := telemetry.New()
	tracer := telemetry.NewTracer(reg, -1, nil)
	cfg := sjoin.DefaultConfig()
	cfg.Instr = sjoin.NewInstruments(reg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Trace = tracer.Begin("bench stars*stars")
		fn, err := sjoin.NewJoinFunction(src, src, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sjoin.RunJoinFunction(fn, 0); err != nil {
			b.Fatal(err)
		}
		cfg.Trace.Finish()
	}
}

// parallelJoin drains the real parallel join algo (AlgoSubtree or
// AlgoGrid) over workers instances and returns its row count.
func parallelJoin(a, b sjoin.Source, cfg sjoin.Config, algo sjoin.Algo, workers int) (int, error) {
	if algo == sjoin.AlgoGrid {
		return drainRows(sjoin.GridParallelJoin(a, b, cfg, workers))
	}
	return drainRows(sjoin.ParallelIndexJoin(a, b, cfg, workers))
}

// benchParallel drains the real parallel join of src × src b.N times
// and reports the candidates per join and, on the grid path, the tiles
// swept per join, read off live join instruments: the parallel cursors
// return no counters.
func benchParallel(b *testing.B, src sjoin.Source, cfg sjoin.Config, algo sjoin.Algo, workers int) {
	reg := telemetry.New()
	cfg.Instr = sjoin.NewInstruments(reg)
	perJoin := func(name, unit string) {
		p, _ := reg.Lookup(name)
		b.ReportMetric(p.Value/float64(b.N), unit)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n, err := parallelJoin(src, src, cfg, algo, workers); err != nil || n == 0 {
			b.Fatal(n, err)
		}
	}
	perJoin("join_candidates_total", "candidates")
	if algo == sjoin.AlgoGrid {
		perJoin("join_tiles_swept_total", "tiles")
	}
}

// Table 2's parallel column: the 5 000-star self-join on the subtree
// path, its instances claiming subtree pairs off one queue. Run with
// -cpu 1,2 beside BenchmarkSpinProbe: the host decides whether a second
// processor is there.
func BenchmarkTable2ParallelJoin(b *testing.B) {
	fixtures(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchParallel(b, fixStars, sjoin.DefaultConfig(), sjoin.AlgoSubtree, workers)
		})
	}
}

// Table 2 on the grid-partitioned path: the same star self-join, its
// instances claiming tiles. Against BenchmarkTable2ParallelJoin at the
// same worker count it is the grid-vs-subtree comparison. The scoped
// case is the shard side of a cluster join (shard 0 of 3): its
// candidates and allocs/op against workers=4 pin the owner test ahead
// of the secondary filter.
func BenchmarkTable2GridJoin(b *testing.B) {
	fixtures(b)
	cfg := sjoin.DefaultConfig()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchParallel(b, fixStars, cfg, sjoin.AlgoGrid, workers)
		})
	}
	cfg.Owns = NewClusterScope(World, 4, 4, 3, 0).OwnsPoint
	b.Run("workers=4/scoped", func(b *testing.B) {
		benchParallel(b, fixStars, cfg, sjoin.AlgoGrid, 4)
	})
}

// spinProbe is a fixed amount of arithmetic on one goroutine.
func spinProbe() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < 1<<22; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// BenchmarkSpinProbe times spinProbe on one goroutine (one-ms) and then
// on two at once (two-ms, until both are done), the probe of
// benchmark/NOISE.md. With -cpu 2 on a host whose second processor is
// there, two-ms reads as one-ms; where it is gone, about twice that.
// Run it in the same minute as any 2-worker number.
func BenchmarkSpinProbe(b *testing.B) {
	var one, two time.Duration
	var sink [2]uint64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		sink[0] = spinProbe()
		one += time.Since(t0)
		t0 = time.Now()
		var wg sync.WaitGroup
		for g := range sink {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sink[g] = spinProbe()
			}()
		}
		wg.Wait()
		two += time.Since(t0)
	}
	if sink[0] != sink[1] {
		b.Fatal("spin probe is not deterministic")
	}
	b.ReportMetric(float64(one.Microseconds())/1e3/float64(b.N), "one-ms")
	b.ReportMetric(float64(two.Microseconds())/1e3/float64(b.N), "two-ms")
}

// pointFixture loads the join_stream workload's table in miniature:
// the 16 000-point star catalogue.
func pointFixture() {
	pointsOnce.Do(func() {
		ds := datagen.Stars(16000, 1)
		for i, g := range ds.Geoms {
			c := geom.MBROf(g).Center()
			ds.Geoms[i] = geom.NewPoint(c.X, c.Y)
		}
		var err error
		if fixPoints, err = benchSource("bench_points", ds, 0); err != nil {
			panic(err)
		}
	})
}

// The join_stream workload's join in miniature: the 16 000-point star
// self-join at distance 1.5 on the grid path with two instances,
// drained as rows. Every pair is decided from the index, so the
// primary filter — grid partition and tile sweeps — and the ready
// queue's drain into rows do the work; the allocs/op lane of
// bench-smoke watches it.
func BenchmarkPointSelfJoinGrid(b *testing.B) {
	pointFixture()
	cfg := sjoin.DefaultConfig()
	cfg.Distance = 1.5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := drainRows(sjoin.GridParallelJoin(fixPoints, fixPoints, cfg, 2)); err != nil || n == 0 {
			b.Fatal(n, err)
		}
	}
}

// BenchmarkPointSelfJoinGridCount is the same join as a count(*): each
// instance counts its pairs and returns one row, so no pair becomes a
// row. Beside BenchmarkPointSelfJoinGrid it prices the row pipeline.
func BenchmarkPointSelfJoinGridCount(b *testing.B) {
	pointFixture()
	cfg := sjoin.DefaultConfig()
	cfg.Distance = 1.5
	plan := sjoin.PlanChoice{Algo: sjoin.AlgoGrid, Workers: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := sjoin.CountJoin(fixPoints, fixPoints, cfg, plan); err != nil || n == 0 {
			b.Fatal(n, err)
		}
	}
}

// --- Table 3: parallel index creation ---
//
// Each build runs on goroutines at 1, 2 and 4 workers over the 1 500
// block groups and reports, as means over b.N, its total build time
// (total-s) and its table-function phase beside it (load-s: the
// quadtree's tessellation, the R-tree's MBR load), and the index
// entries it produced.

// benchBuild runs build b.N times and reports its phase times and
// entries.
func benchBuild(b *testing.B, build func() (idxbuild.Stats, error)) {
	var total, load time.Duration
	var stats idxbuild.Stats
	for i := 0; i < b.N; i++ {
		var err error
		if stats, err = build(); err != nil {
			b.Fatal(err)
		}
		total += stats.Total
		load += stats.LoadPhase
	}
	b.ReportMetric(total.Seconds()/float64(b.N), "total-s")
	b.ReportMetric(load.Seconds()/float64(b.N), "load-s")
	b.ReportMetric(float64(stats.Entries), "entries")
}

func BenchmarkTable3QuadtreeCreate(b *testing.B) {
	fixtures(b)
	grid, err := quadtree.NewGrid(fixBGDs.Bounds, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchBuild(b, func() (idxbuild.Stats, error) {
				_, stats, err := idxbuild.CreateQuadtree(fixBGTab, "geom", grid, workers)
				return stats, err
			})
		})
	}
}

func BenchmarkTable3RtreeCreate(b *testing.B) {
	fixtures(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchBuild(b, func() (idxbuild.Stats, error) {
				_, stats, err := idxbuild.CreateRtree(fixBGTab, "geom", 0, workers)
				return stats, err
			})
		})
	}
}

// --- Figure 1: subtree-pair decomposition ---

// figure1Fixture builds Figure 1's two indexes at fanout 8: a clustered
// star set joined with a contiguous counties map, which tiles the whole
// domain, so subtree pairs overlap while some still prune.
func figure1Fixture(tb testing.TB) (a, b sjoin.Source) {
	tb.Helper()
	a, err := benchSource("fig1_a", datagen.Stars(3000, 5), 8)
	if err != nil {
		tb.Fatal(err)
	}
	if b, err = benchSource("fig1_b", datagen.Counties(751, 6), 8); err != nil {
		tb.Fatal(err)
	}
	return a, b
}

// BenchmarkFigure1SubtreePairs enumerates the subtree join pairs after
// a one-level descent of both indexes, and reports the figure's counts:
// the roots of each index and the pairs scheduled.
func BenchmarkFigure1SubtreePairs(b *testing.B) {
	a, c := figure1Fixture(b)
	cfg := sjoin.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := sjoin.SubtreePairs(a.Tree, c.Tree, 1, cfg)
		if len(pairs) == 0 {
			b.Fatal("no subtree pairs")
		}
		b.ReportMetric(float64(len(pairs)), "pairs")
	}
	b.ReportMetric(float64(len(a.Tree.SubtreeRoots(1))), "roots-a")
	b.ReportMetric(float64(len(c.Tree.SubtreeRoots(1))), "roots-b")
}

// --- Figure 2: the tessellation pipeline ---

// BenchmarkFigure2TessellationPipeline runs the quadtree build of
// Figure 2 on 4 tessellator instances and reports the tile rows the
// instances produced and the entries the index B-tree holds.
func BenchmarkFigure2TessellationPipeline(b *testing.B) {
	fixtures(b)
	grid, err := quadtree.NewGrid(fixBGDs.Bounds, 7)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		idx, stats, err := idxbuild.CreateQuadtree(fixBGTab, "geom", grid, 4)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Entries == 0 {
			b.Fatal("no tiles")
		}
		b.ReportMetric(float64(stats.Entries), "tile-rows")
		b.ReportMetric(float64(idx.EntryCount()), "index-entries")
	}
}

// --- Ablations (DESIGN.md §6) ---

// Ablation 1: candidate fetch order — sorted by first rowid (paper) vs
// arrival order.
func BenchmarkAblationCandidateOrder(b *testing.B) {
	fixtures(b)
	for _, sorted := range []bool{true, false} {
		b.Run(fmt.Sprintf("sorted=%v", sorted), func(b *testing.B) {
			cfg := sjoin.DefaultConfig()
			cfg.SortCandidates = sorted
			cfg.CandidateCap = 1 << 20
			// Cache off: with caching both orders converge on one fetch
			// per distinct rowid, hiding the ordering effect under test.
			cfg.GeomCacheBytes = -1
			for i := 0; i < b.N; i++ {
				fn, err := sjoin.NewJoinFunction(fixStars, fixStars, cfg)
				if err != nil {
					b.Fatal(err)
				}
				_, stats, err := sjoin.RunJoinFunction(fn, 0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.GeomFetches), "geom-fetches")
			}
		})
	}
}

// Ablation 2: subtree decomposition level for the parallel join.
func BenchmarkAblationSubtreeLevel(b *testing.B) {
	fixtures(b)
	cfg := sjoin.DefaultConfig()
	maxDescend := fixStars.Tree.Height() - 1
	for d := 0; d <= maxDescend; d++ {
		b.Run(fmt.Sprintf("descend=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pairs := sjoin.SubtreePairs(fixStars.Tree, fixStars.Tree, d, cfg)
				b.ReportMetric(float64(len(pairs)), "tasks")
			}
		})
	}
}

// Ablation 3: candidate array capacity (the paper's "determined by
// existing memory resources").
func BenchmarkAblationCandidateCap(b *testing.B) {
	fixtures(b)
	for _, cap := range []int{64, 1024, 16384, 1 << 20} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			cfg := sjoin.DefaultConfig()
			cfg.CandidateCap = cap
			for i := 0; i < b.N; i++ {
				fn, err := sjoin.NewJoinFunction(fixStars, fixStars, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := sjoin.RunJoinFunction(fn, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation 4: R-tree construction strategy — dynamic inserts vs STR
// packing.
func BenchmarkAblationRtreeBuild(b *testing.B) {
	fixtures(b)
	items := make([]rtree.Item, 0, fixBGTab.Len())
	col, _ := fixBGTab.ColumnIndex("geom")
	fixBGTab.Scan(func(id storage.RowID, row storage.Row) bool {
		items = append(items, rtree.Item{MBR: geom.MBROf(row[col].G), ID: id})
		return true
	})
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := rtree.New(0)
			for _, it := range items {
				if err := tr.Insert(it); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("str", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			work := make([]rtree.Item, len(items))
			copy(work, items)
			rtree.BulkLoad(work, 0)
		}
	})
}

// Ablation 5: quadtree tiling level — tessellation cost vs candidate
// precision.
func BenchmarkAblationTilingLevel(b *testing.B) {
	fixtures(b)
	for _, level := range []int{5, 7, 9} {
		b.Run(fmt.Sprintf("level=%d", level), func(b *testing.B) {
			grid, err := quadtree.NewGrid(fixBGDs.Bounds, level)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				idx, stats, err := idxbuild.CreateQuadtree(fixBGTab, "geom", grid, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.Entries), "tiles")
				_ = idx
			}
		})
	}
}

// Ablation 8: decoded-geometry cache on (default size) vs off,
// reporting the secondary filter's base-table fetch count and the
// cache hit rate.
func BenchmarkAblationGeomCache(b *testing.B) {
	fixtures(b)
	for _, cached := range []bool{true, false} {
		b.Run(fmt.Sprintf("cache=%v", cached), func(b *testing.B) {
			cfg := sjoin.DefaultConfig()
			if !cached {
				cfg.GeomCacheBytes = -1
			}
			for i := 0; i < b.N; i++ {
				fn, err := sjoin.NewJoinFunction(fixStars, fixStars, cfg)
				if err != nil {
					b.Fatal(err)
				}
				_, stats, err := sjoin.RunJoinFunction(fn, 0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.GeomFetches), "geom-fetches")
				if looks := stats.CacheHits + stats.CacheMisses; looks > 0 {
					b.ReportMetric(100*float64(stats.CacheHits)/float64(looks), "hit-%")
				}
			}
		})
	}
}

// Ablation 9: grid tile count — the GridShape default vs coarser and
// finer uniform grids on the star self-join at 4 workers. Fewer tiles
// mean less per-entry replication but coarser claims; more tiles
// balance the instances at a higher partition cost.
func BenchmarkAblationGridTiles(b *testing.B) {
	fixtures(b)
	for _, tiles := range []int{0, 16, 64, 256, 1024} {
		name := fmt.Sprintf("tiles=%d", tiles)
		if tiles == 0 {
			name = "tiles=auto"
		}
		b.Run(name, func(b *testing.B) {
			cfg := sjoin.DefaultConfig()
			cfg.GridTiles = tiles
			benchParallel(b, fixStars, cfg, sjoin.AlgoGrid, 4)
		})
	}
}

// Ablation 10: grid vs subtree-pair partitioning at 4 workers across
// the three datagen families — uniform polygons (counties), clustered
// points (stars), and skewed polygons (block groups). This is the
// spread the cost model in sjoin.ChoosePlan arbitrates.
func BenchmarkAblationGridVsSubtree(b *testing.B) {
	fixtures(b)
	families := []struct {
		name string
		src  sjoin.Source
	}{
		{"uniform", fixCounties},
		{"clustered", fixStars},
		{"skewed", fixBlocks},
	}
	for _, fam := range families {
		for _, algo := range []sjoin.Algo{sjoin.AlgoGrid, sjoin.AlgoSubtree} {
			b.Run(fmt.Sprintf("%s/algo=%v", fam.name, algo), func(b *testing.B) {
				benchParallel(b, fam.src, sjoin.DefaultConfig(), algo, 4)
			})
		}
	}
}

// --- Micro-benchmarks for the substrates ---

func BenchmarkGeomIntersectsPolyPoly(b *testing.B) {
	fixtures(b)
	gs := fixBGDs.Geoms
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.Intersects(gs[i%len(gs)], gs[(i+1)%len(gs)])
	}
}

func BenchmarkRtreeWindowQuery(b *testing.B) {
	fixtures(b)
	q := geom.MBR{MinX: 400, MinY: 400, MaxX: 480, MaxY: 480}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fixStars.Tree.Search(q, func(rtree.Item) bool { return true })
	}
}

func BenchmarkTessellateComplexPolygon(b *testing.B) {
	fixtures(b)
	grid, err := quadtree.NewGrid(fixBGDs.Bounds, 9)
	if err != nil {
		b.Fatal(err)
	}
	g := fixBGDs.Geoms[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quadtree.Tessellate(grid, g); err != nil {
			b.Fatal(err)
		}
	}
}
