package sjoin

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/idxbuild"
	"spatialtf/internal/quadtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/storage/storagetest"
)

// joinPath is one way to evaluate the same join, as a cursor.
type joinPath struct {
	name    string
	ordered bool // the row order is deterministic
	open    func(cfg Config) (storage.Cursor, error)
}

// pathFixture is one table with every index kind on it, and the join
// paths over them. All paths join the table with itself, so they share
// rowids and must return the same pairs.
type pathFixture struct {
	plain Source // R-tree without interior approximations
	paths []joinPath
	mbrs  map[storage.RowID]geom.MBR // geom.MBROf of every heap row
}

func newPathFixture(t *testing.T, ds datagen.Dataset) pathFixture {
	t.Helper()
	tab, _, err := datagen.LoadTable("paths", ds)
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := idxbuild.CreateRtree(tab, "geom", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	itree, _, err := idxbuild.CreateRtreeOpts(tab, "geom", idxbuild.RtreeOptions{Workers: 1, InteriorEffort: 3})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := quadtree.NewGrid(ds.Bounds, 7)
	if err != nil {
		t.Fatal(err)
	}
	qidx, _, err := idxbuild.CreateQuadtree(tab, "geom", grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := Source{Table: tab, Column: "geom", Tree: tree}
	isrc := Source{Table: tab, Column: "geom", Tree: itree}
	qsrc := QSource{Table: tab, Column: "geom", Index: qidx}
	eager := func(pairs []Pair, err error) (storage.Cursor, error) {
		if err != nil {
			return nil, err
		}
		return PairsCursor(pairs), nil
	}
	f := pathFixture{plain: src, mbrs: map[storage.RowID]geom.MBR{}}
	f.paths = []joinPath{
		{"serial", true, func(cfg Config) (storage.Cursor, error) { return IndexJoin(src, src, cfg) }},
		{"serial nested scan", true, func(cfg Config) (storage.Cursor, error) {
			cfg.SweepThreshold = math.MaxInt
			return IndexJoin(src, src, cfg)
		}},
		{"serial interior", true, func(cfg Config) (storage.Cursor, error) {
			cfg.UseInteriorApprox = true
			return IndexJoin(isrc, isrc, cfg)
		}},
		{"subtree x3", false, func(cfg Config) (storage.Cursor, error) { return ParallelIndexJoin(src, src, cfg, 3) }},
		{"grid x3", false, func(cfg Config) (storage.Cursor, error) { return GridParallelJoin(src, src, cfg, 3) }},
		{"nested", true, func(cfg Config) (storage.Cursor, error) { return eager(NestedLoop(src, src, cfg)) }},
		// Unordered: the tile merge join dedups through a map.
		{"quadtree", false, func(cfg Config) (storage.Cursor, error) { return eager(QuadtreeJoin(qsrc, qsrc, cfg)) }},
	}
	col, err := src.geomColumn()
	if err != nil {
		t.Fatal(err)
	}
	err = tab.Scan(func(id storage.RowID, row storage.Row) bool {
		f.mbrs[id] = geom.MBROf(row[col].G)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// stripes is an n-way partition of the plane into owner functions:
// vertical stripes 3 units wide dealt round-robin, so every shard owns
// part of a star cluster and most fetch batches lose rows.
func stripes(n int) []func(x, y float64) bool {
	owners := make([]func(x, y float64) bool, n)
	for k := range owners {
		owners[k] = func(x, _ float64) bool { return int(math.Floor(x/3))%n == k }
	}
	return owners
}

func sortedPairs(t *testing.T, cur storage.Cursor, err error) []Pair {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := CollectPairs(cur)
	if err != nil {
		t.Fatal(err)
	}
	SortPairs(pairs)
	return pairs
}

// TestBatchDrainEqualsRowDrain is the sjoin differential table: every
// join path × predicate shape × {unscoped, scoped}. Read a fetch batch
// at a time (at any size) a path returns the rows it returns row by
// row; unscoped it returns the nested-loop reference's pairs; scoped it
// returns exactly the reference pairs whose reference point — taken
// from geom.MBROf of the two heap rows, not from any index — the scope
// owns, so the shards of any partition return every pair exactly once.
func TestBatchDrainEqualsRowDrain(t *testing.T) {
	f := newPathFixture(t, datagen.Stars(300, 41))
	shardCounts := []int{1, 3, 4}
	if raceEnabled {
		// The concurrency under test is the same at every partition;
		// one suffices under the ~10x race-detector slowdown.
		shardCounts = shardCounts[1:2]
	}
	for _, dist := range []float64{0, 2} {
		cfg := DefaultConfig()
		cfg.Distance = dist
		want := nestedPairs(t, f.plain, f.plain, cfg)
		if len(want) == 0 {
			t.Fatalf("distance=%g: degenerate fixture, empty join", dist)
		}
		owned := func(own func(x, y float64) bool) []Pair {
			var out []Pair
			for _, p := range want {
				if own(PairRefPoint(f.mbrs[p.A], f.mbrs[p.B], dist)) {
					out = append(out, p)
				}
			}
			return out
		}
		for _, p := range f.paths {
			quad := p.name == "quadtree"
			if quad && dist > 0 {
				continue // the tile merge join has no distance predicate
			}
			t.Run(fmt.Sprintf("%s/distance=%g", p.name, dist), func(t *testing.T) {
				storagetest.CheckBatchEqualsNext(t, p.ordered, func() (storage.Cursor, error) { return p.open(cfg) })
				cur, err := p.open(cfg)
				if got := sortedPairs(t, cur, err); !pairsEqual(got, want) {
					t.Fatalf("unscoped: %d pairs, nested-loop reference %d", len(got), len(want))
				}
				for _, n := range shardCounts {
					var union []Pair
					for k, own := range stripes(n) {
						scoped := cfg
						scoped.Owns = own
						if quad {
							if _, err := p.open(scoped); !errors.Is(err, errors.ErrUnsupported) {
								t.Fatalf("scoped quadtree join: err = %v, want ErrUnsupported", err)
							}
							continue
						}
						cur, err := p.open(scoped)
						got := sortedPairs(t, cur, err)
						if exp := owned(own); !pairsEqual(got, exp) {
							t.Fatalf("shard %d of %d: %d pairs, want the %d reference pairs it owns", k, n, len(got), len(exp))
						}
						if n == 3 && k == 0 {
							if len(got) == 0 || len(got) >= len(want) {
								t.Fatalf("stripe scope keeps %d of %d pairs; want a proper subset", len(got), len(want))
							}
							storagetest.CheckBatchEqualsNext(t, p.ordered, func() (storage.Cursor, error) { return p.open(scoped) })
						}
						union = append(union, got...)
					}
					// Equal as sorted lists: complete and pairwise disjoint.
					if SortPairs(union); !quad && !pairsEqual(union, want) {
						t.Fatalf("%d shards: union has %d pairs, unscoped %d", n, len(union), len(want))
					}
				}
			})
		}
	}
}

// TestScopeFiltersBeforeSecondaryFilter pins where the owner test runs:
// a scoped join queues strictly fewer candidates than the unscoped one
// (unowned pairs never reach the secondary filter), and the pairs the
// interior approximations fast-accept are owner-filtered too.
func TestScopeFiltersBeforeSecondaryFilter(t *testing.T) {
	src := buildInteriorSource(t, "scoped_stats", datagen.Stars(300, 41))
	run := func(cfg Config) JoinStats {
		t.Helper()
		fn, err := NewJoinFunction(src, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := RunJoinFunction(fn, 0)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	for _, interior := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.UseInteriorApprox = interior
		all := run(cfg)
		cfg.Owns = stripes(3)[0]
		own := run(cfg)
		if own.Candidates == 0 || own.Candidates >= all.Candidates {
			t.Errorf("interior=%v: scoped join queued %d candidates, unscoped %d; want strictly fewer", interior, own.Candidates, all.Candidates)
		}
		if own.GeomFetches+own.CacheHits >= all.GeomFetches+all.CacheHits {
			t.Errorf("interior=%v: scoped join looked up %d geometries, unscoped %d", interior, own.GeomFetches+own.CacheHits, all.GeomFetches+all.CacheHits)
		}
		if interior && (own.FastAccepts == 0 || own.FastAccepts >= all.FastAccepts) {
			t.Errorf("scoped join fast-accepted %d pairs, unscoped %d; want a proper subset", own.FastAccepts, all.FastAccepts)
		}
	}
}

// TestFetchDrainsFastAcceptsWithoutCandidates covers a refill that
// yields fast-accepted results but no candidates: a lone polygon's
// self-pair is proven by its own interior, and the fetch must still
// return it.
func TestFetchDrainsFastAcceptsWithoutCandidates(t *testing.T) {
	src := buildInteriorSource(t, "lone", datagen.Counties(1, 7))
	cfg := DefaultConfig()
	cfg.UseInteriorApprox = true
	fn, err := NewJoinFunction(src, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, stats, err := RunJoinFunction(fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || stats.FastAccepts != 1 || stats.Candidates != 0 {
		t.Fatalf("lone self-join: %d rows, %d fast accepts, %d candidates; want 1, 1, 0", n, stats.FastAccepts, stats.Candidates)
	}
}

// TestSimulateMatchesParallel checks the simulator against the
// goroutine execution of both parallel algorithms: the same pair set,
// and a schedule that accounts for every unit.
func TestSimulateMatchesParallel(t *testing.T) {
	src := buildSource(t, "sim", datagen.Stars(1200, 331))
	cfg := DefaultConfig()
	execs := map[Algo]func(workers int) (storage.Cursor, error){
		AlgoSubtree: func(w int) (storage.Cursor, error) { return ParallelIndexJoin(src, src, cfg, w) },
		AlgoGrid:    func(w int) (storage.Cursor, error) { return GridParallelJoin(src, src, cfg, w) },
	}
	for algo, exec := range execs {
		for _, w := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v/workers=%d", algo, w), func(t *testing.T) {
				cur, err := exec(w)
				want := sortedPairs(t, cur, err)
				res, err := Simulate(src, src, cfg, algo, w)
				if err != nil {
					t.Fatal(err)
				}
				if got := sortedPairs(t, PairsCursor(res.Pairs), nil); !pairsEqual(got, want) || len(got) == 0 {
					t.Fatalf("simulated join %d pairs, goroutine execution %d", len(got), len(want))
				}
				if res.Stats.Results != len(want) {
					t.Errorf("Stats.Results = %d, want %d", res.Stats.Results, len(want))
				}
				if len(res.InstanceTimes) != w {
					t.Fatalf("%d instance times, want %d", len(res.InstanceTimes), w)
				}
				var busy, units, longest time.Duration
				for _, d := range res.InstanceTimes {
					busy += d
					longest = max(longest, d)
				}
				for _, d := range res.UnitTimes {
					units += d
				}
				if res.Elapsed != longest {
					t.Errorf("Elapsed %v != max instance time %v", res.Elapsed, longest)
				}
				if busy != units {
					t.Errorf("instances busy %v, units cost %v", busy, units)
				}
				maxUnit, mean := res.Skew()
				if mean > maxUnit || maxUnit > res.Elapsed {
					t.Errorf("unit skew max %v mean %v under makespan %v", maxUnit, mean, res.Elapsed)
				}
				switch algo {
				case AlgoGrid:
					if res.Stats.TilesSwept != len(res.UnitTimes) || res.Grid.Tiles() < len(res.UnitTimes) {
						t.Errorf("%d tiles swept, %d unit times, %d-tile grid", res.Stats.TilesSwept, len(res.UnitTimes), res.Grid.Tiles())
					}
				case AlgoSubtree:
					// At most one partition per instance: the makespan
					// is the slowest instance's own time.
					if len(res.UnitTimes) > w || res.Elapsed != maxUnit {
						t.Errorf("%d units on %d workers, makespan %v, slowest unit %v", len(res.UnitTimes), w, res.Elapsed, maxUnit)
					}
				}
			})
		}
	}
	if _, err := Simulate(src, src, cfg, AlgoNested, 2); err == nil {
		t.Errorf("simulating the serial nested loop: want error")
	}
}
