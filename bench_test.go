package spatialtf

// One testing.B benchmark per paper table and figure, plus ablation
// benches for the design choices called out in DESIGN.md §6. These run
// at laptop scale; cmd/spatialbench reproduces the tables at any scale
// with ratio reporting.

import (
	"fmt"
	"sync"
	"testing"

	"spatialtf/internal/bench"
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
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		var err error
		fixCounties, err = benchSource("bench_counties", datagen.Counties(900, 1))
		if err != nil {
			panic(err)
		}
		fixStars, err = benchSource("bench_stars", datagen.Stars(5000, 2))
		if err != nil {
			panic(err)
		}
		fixBGDs = datagen.BlockGroups(1500, 3)
		fixBGTab, _, err = datagen.LoadTable("bench_bg", fixBGDs)
		if err != nil {
			panic(err)
		}
		fixBlocks, err = benchSource("bench_blocks", fixBGDs)
		if err != nil {
			panic(err)
		}
	})
}

func benchSource(name string, ds datagen.Dataset) (sjoin.Source, error) {
	tab, _, err := datagen.LoadTable(name, ds)
	if err != nil {
		return sjoin.Source{}, err
	}
	tree, _, err := idxbuild.CreateRtree(tab, "geom", 0, 1)
	if err != nil {
		return sjoin.Source{}, err
	}
	return sjoin.Source{Table: tab, Column: "geom", Tree: tree}, nil
}

// --- Table 1: counties self-join, nested loop vs index join ---

func BenchmarkTable1NestedLoop(b *testing.B) {
	fixtures(b)
	for _, d := range []float64{0, 25} {
		b.Run(fmt.Sprintf("distance=%g", d), func(b *testing.B) {
			cfg := sjoin.DefaultConfig()
			cfg.Distance = d
			for i := 0; i < b.N; i++ {
				pairs, err := sjoin.NestedLoop(fixCounties, fixCounties, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(pairs) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

func BenchmarkTable1IndexJoin(b *testing.B) {
	fixtures(b)
	for _, d := range []float64{0, 25} {
		b.Run(fmt.Sprintf("distance=%g", d), func(b *testing.B) {
			cfg := sjoin.DefaultConfig()
			cfg.Distance = d
			for i := 0; i < b.N; i++ {
				fn, err := sjoin.NewJoinFunction(fixCounties, fixCounties, cfg)
				if err != nil {
					b.Fatal(err)
				}
				n, _, err := sjoin.RunJoinFunction(fn, 0)
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("empty result")
				}
			}
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
	for i := 0; i < b.N; i++ {
		if n, err := drainRows(sjoin.IndexJoin(fixCounties, fixCounties, cfg)); err != nil || n == 0 {
			b.Fatal(n, err)
		}
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

func BenchmarkTable2IndexJoin(b *testing.B) {
	fixtures(b)
	cfg := sjoin.DefaultConfig()
	for i := 0; i < b.N; i++ {
		fn, err := sjoin.NewJoinFunction(fixStars, fixStars, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sjoin.RunJoinFunction(fn, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// Telemetry overhead ablation: the identical star self-join with live
// instruments and a per-query span trace attached. The delta against
// BenchmarkTable2IndexJoin (which runs on the Nop registry) is the full
// enabled-observability cost; the budget in DESIGN.md §12 is <= 2%.
func BenchmarkTable2IndexJoinTelemetry(b *testing.B) {
	fixtures(b)
	reg := telemetry.New()
	tracer := telemetry.NewTracer(reg, -1, nil)
	cfg := sjoin.DefaultConfig()
	cfg.Instr = sjoin.NewInstruments(reg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Trace = tracer.Begin("bench stars*stars")
		fn, err := sjoin.NewJoinFunction(fixStars, fixStars, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sjoin.RunJoinFunction(fn, 0); err != nil {
			b.Fatal(err)
		}
		cfg.Trace.Finish()
	}
}

// Table 2's parallel column: the star self-join on the subtree path
// under the simulator (sim-makespan-s), plus a real 2-worker leg
// (real-s, the mean wall clock of one join) that prices the
// simulator's error when run with -cpu 2.
func BenchmarkTable2ParallelJoin(b *testing.B) {
	fixtures(b)
	cfg := sjoin.DefaultConfig()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sjoin.Simulate(fixStars, fixStars, cfg, sjoin.AlgoSubtree, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Pairs) == 0 {
					b.Fatal("empty result")
				}
				b.ReportMetric(res.Elapsed.Seconds(), "sim-makespan-s")
			}
		})
	}
	b.Run("workers=2/real", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cur, err := sjoin.ParallelIndexJoin(fixStars, fixStars, cfg, 2)
			if err != nil {
				b.Fatal(err)
			}
			if _, rows, err := storage.Drain(cur); err != nil || len(rows) == 0 {
				b.Fatal(len(rows), err)
			}
		}
		b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "real-s")
	})
}

// Table 2 on the grid-partitioned path: same star self-join, tiles
// swept per-partition under the deterministic scheduler. sim-makespan-s
// against BenchmarkTable2ParallelJoin at the same worker count is the
// grid-vs-subtree comparison; tile-skew-max/mean-ms quantify how even
// the tile costs are (dynamic claiming absorbs the difference). The
// scoped case is the shard side of a cluster join (shard 0 of 3): its
// candidates and allocs/op against workers=4 pin the owner test ahead
// of the secondary filter.
func BenchmarkTable2GridJoin(b *testing.B) {
	fixtures(b)
	run := func(name string, cfg sjoin.Config, workers int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sjoin.Simulate(fixStars, fixStars, cfg, sjoin.AlgoGrid, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Pairs) == 0 {
					b.Fatal("empty result")
				}
				max, mean := res.Skew()
				b.ReportMetric(res.Elapsed.Seconds(), "sim-makespan-s")
				b.ReportMetric(float64(max.Microseconds())/1e3, "tile-skew-max-ms")
				b.ReportMetric(float64(mean.Microseconds())/1e3, "tile-skew-mean-ms")
				b.ReportMetric(float64(res.Stats.Candidates), "candidates")
			}
		})
	}
	cfg := sjoin.DefaultConfig()
	for _, workers := range []int{1, 2, 4, 8} {
		run(fmt.Sprintf("workers=%d", workers), cfg, workers)
	}
	cfg.Owns = NewClusterScope(World, 4, 4, 3, 0).OwnsPoint
	run("workers=4/scoped", cfg, 4)
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
		if fixPoints, err = benchSource("bench_points", ds); err != nil {
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

func BenchmarkTable2NestedLoop(b *testing.B) {
	fixtures(b)
	cfg := sjoin.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := sjoin.NestedLoop(fixStars, fixStars, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 3: parallel index creation ---
//
// Each build runs under the simulator (sim-total-s) at 1, 2 and 4
// workers, plus a real 2-worker leg (real-total-s) that prices the
// simulator's error when run with -cpu 2.

func BenchmarkTable3QuadtreeCreate(b *testing.B) {
	fixtures(b)
	grid, err := quadtree.NewGrid(fixBGDs.Bounds, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, stats, err := idxbuild.CreateQuadtreeSim(fixBGTab, "geom", grid, workers)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(stats.Total.Seconds(), "sim-total-s")
			}
		})
	}
	b.Run("workers=2/real", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, stats, err := idxbuild.CreateQuadtree(fixBGTab, "geom", grid, 2)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(stats.Total.Seconds(), "real-total-s")
		}
	})
}

func BenchmarkTable3RtreeCreate(b *testing.B) {
	fixtures(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, stats, err := idxbuild.CreateRtreeSim(fixBGTab, "geom", 0, workers)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(stats.Total.Seconds(), "sim-total-s")
			}
		})
	}
	b.Run("workers=2/real", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, stats, err := idxbuild.CreateRtree(fixBGTab, "geom", 0, 2)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(stats.Total.Seconds(), "real-total-s")
		}
	})
}

// --- Figure 1: subtree-pair decomposition ---

func BenchmarkFigure1SubtreePairs(b *testing.B) {
	fixtures(b)
	cfg := sjoin.DefaultConfig()
	for i := 0; i < b.N; i++ {
		pairs := sjoin.SubtreePairs(fixStars.Tree, fixStars.Tree, 1, cfg)
		if len(pairs) == 0 {
			b.Fatal("no subtree pairs")
		}
	}
}

// --- Figure 2: the tessellation pipeline ---

func BenchmarkFigure2TessellationPipeline(b *testing.B) {
	fixtures(b)
	grid, err := quadtree.NewGrid(fixBGDs.Bounds, 7)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_, stats, err := idxbuild.CreateQuadtree(fixBGTab, "geom", grid, 4)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Entries == 0 {
			b.Fatal("no tiles")
		}
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
// mean less per-entry replication but worse load balance (higher
// tile-skew); more tiles amortise skew at higher partition cost.
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
			for i := 0; i < b.N; i++ {
				res, err := sjoin.Simulate(fixStars, fixStars, cfg, sjoin.AlgoGrid, 4)
				if err != nil {
					b.Fatal(err)
				}
				max, mean := res.Skew()
				b.ReportMetric(res.Elapsed.Seconds(), "sim-makespan-s")
				b.ReportMetric(float64(len(res.UnitTimes)), "tiles")
				b.ReportMetric(float64(res.Stats.Candidates), "candidates")
				if mean > 0 {
					b.ReportMetric(float64(max)/float64(mean), "skew-ratio")
				}
			}
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
				cfg := sjoin.DefaultConfig()
				for i := 0; i < b.N; i++ {
					res, err := sjoin.Simulate(fam.src, fam.src, cfg, algo, 4)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.Elapsed.Seconds(), "sim-makespan-s")
				}
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

// Sanity: the harness runs end-to-end at bench scale; keeps -bench runs
// honest when benches are filtered.
func BenchmarkHarnessTable1Tiny(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable1(bench.Table1Options{Counties: 64, Seed: 1, Distances: []float64{0}})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].ResultSize == 0 {
			b.Fatal("empty result")
		}
	}
}
