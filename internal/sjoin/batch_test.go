package sjoin

import (
	"fmt"
	"math"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/idxbuild"
	"spatialtf/internal/storage"
	"spatialtf/internal/storage/storagetest"
)

// joinPath is one way to evaluate the same join, as a cursor.
type joinPath struct {
	name    string
	ordered bool // the row order is deterministic
	open    func(cfg Config) (storage.Cursor, error)
}

// pathFixture is one R-tree-indexed table and the join paths over it.
// All paths join the table with itself, so they share rowids and must
// return the same pairs.
type pathFixture struct {
	plain Source
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
	src := Source{Table: tab, Column: "geom", Tree: tree}
	eager := func(pairs []Pair, err error) (storage.Cursor, error) {
		if err != nil {
			return nil, err
		}
		return PairsCursor(pairs), nil
	}
	f := pathFixture{plain: src, mbrs: map[storage.RowID]geom.MBR{}}
	f.paths = []joinPath{
		{"serial", true, func(cfg Config) (storage.Cursor, error) { return IndexJoin(src, src, cfg) }},
		{"serial nested scan", true, func(cfg Config) (storage.Cursor, error) { return nestedScanJoin(src, src, cfg) }},
		{"subtree x3", false, func(cfg Config) (storage.Cursor, error) { return ParallelIndexJoin(src, src, cfg, 3) }},
		{"grid x3", false, func(cfg Config) (storage.Cursor, error) { return GridParallelJoin(src, src, cfg, 3) }},
		{"nested", true, func(cfg Config) (storage.Cursor, error) { return eager(NestedLoop(src, src, cfg)) }},
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
// join path × fixture × predicate shape × {unscoped, scoped}. Read a
// fetch batch at a time (at any size) a path returns the rows it
// returns row by row; unscoped it returns the nested-loop reference's
// pairs; scoped it returns exactly the reference pairs whose reference
// point — taken from geom.MBROf of the two heap rows, not from any
// index — the scope owns, so the shards of any partition return every
// pair exactly once. The stars prove each row's pair with itself at
// emission, the point lattice every pair: both proven routes are
// owner-filtered like the refined one.
func TestBatchDrainEqualsRowDrain(t *testing.T) {
	for _, fx := range []struct {
		prefix string
		ds     datagen.Dataset
	}{
		{"", datagen.Stars(300, 41)},
		{"points ", pointDataset(t, "point", latticePoints(5, 300))},
	} {
		checkBatchDrain(t, fx.prefix, newPathFixture(t, fx.ds))
	}
}

// checkBatchDrain runs the differential over one fixture, naming each
// leg by prefix and path.
func checkBatchDrain(t *testing.T, prefix string, f pathFixture) {
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
			t.Run(fmt.Sprintf("%s%s/distance=%g", prefix, p.name, dist), func(t *testing.T) {
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
					if SortPairs(union); !pairsEqual(union, want) {
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
// self and points routes prove at emission are owner-filtered too.
func TestScopeFiltersBeforeSecondaryFilter(t *testing.T) {
	stars := buildSource(t, "scoped_stars", datagen.Stars(300, 41))
	points := pointTable(t, "scoped_points", "point", latticePoints(5, 300))
	run := func(src Source, cfg Config) JoinStats {
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
	cfg := DefaultConfig()
	all := run(stars, cfg)
	scoped := cfg
	scoped.Owns = stripes(3)[0]
	own := run(stars, scoped)
	if own.Candidates == 0 || own.Candidates >= all.Candidates {
		t.Errorf("scoped join queued %d candidates, unscoped %d; want strictly fewer", own.Candidates, all.Candidates)
	}
	if own.GeomFetches+own.CacheHits >= all.GeomFetches+all.CacheHits {
		t.Errorf("scoped join looked up %d geometries, unscoped %d", own.GeomFetches+own.CacheHits, all.GeomFetches+all.CacheHits)
	}
	for _, c := range []struct {
		src Source
		d   float64
		r   route
	}{{stars, 0, routeSelf}, {points, 1.5, routePoints}} {
		cfg.Distance, scoped.Distance = c.d, c.d
		all, own := run(c.src, cfg), run(c.src, scoped)
		if n, m := own.routes[c.r].kept, all.routes[c.r].kept; n == 0 || n >= m {
			t.Errorf("the %v route: scoped join proved %d pairs, unscoped %d; want a proper subset", c.r, n, m)
		}
	}
}

// TestFetchDrainsFastAcceptsWithoutCandidates covers a refill that
// yields pairs proven at emission but no candidates: a lone polygon's
// pair with itself is proven by the self route, and the fetch must
// still return it.
func TestFetchDrainsFastAcceptsWithoutCandidates(t *testing.T) {
	src := buildSource(t, "lone", datagen.Counties(1, 7))
	cfg := DefaultConfig()
	fn, err := NewJoinFunction(src, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, stats, err := RunJoinFunction(fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if self := stats.routes[routeSelf].kept; n != 1 || self != 1 || stats.Candidates != 0 {
		t.Fatalf("lone self-join: %d rows, %d proven by the self route, %d candidates; want 1, 1, 0", n, self, stats.Candidates)
	}
}
