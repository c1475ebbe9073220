package sjoin

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
	"spatialtf/internal/storage/storagetest"
	"spatialtf/internal/telemetry"
)

// Point-degenerate joins. A leaf MBR that is a single point is its
// geometry, so for ANYINTERACT and within-distance the primary filter's
// test is the exact predicate and emit sends such pairs straight to the
// ready queue. These tests hold every algorithm to the nested-loop
// reference (which always fetches and refines) on point, zero-length
// line and repeated-multipoint tables, at the distances where lattice
// points tie exactly, and pin that the route engages.

// pointExtent is the square the point fixtures lie in.
var pointExtent = geom.MBR{MaxX: 40, MaxY: 40}

// latticePoints returns n coordinates in pointExtent: three in four on
// a 0.5-step lattice, so duplicates and pairs exactly 1.5 and 2.5 apart
// (axis steps, and the 3-4-5 triangle halved) are common; the rest
// unsnapped.
func latticePoints(seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		if i%4 == 3 {
			pts[i] = geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40}
		} else {
			pts[i] = geom.Point{X: float64(rng.Intn(80)) / 2, Y: float64(rng.Intn(80)) / 2}
		}
	}
	return pts
}

// roundingBoundaryPoints returns n point pairs on rows 10 apart, the
// pairs' x gaps cycling through gaps. Each pair is one a sum-based
// pre-filter gets wrong: lo + gap rounds below hi, while hi − lo, the
// difference MBR.Dist takes, rounds to gap exactly. Every other pair
// puts its second point west of its first. as holds the first point of
// every pair, bs the second.
func roundingBoundaryPoints(seed int64, n int, gaps ...float64) (as, bs []geom.Point) {
	rng := rand.New(rand.NewSource(seed))
	for len(as) < n {
		gap := gaps[len(as)%len(gaps)]
		lo := rng.Float64() * 30
		hi := math.Nextafter(lo+gap, math.Inf(1))
		if hi-lo != gap {
			continue
		}
		y := float64(10 * len(as))
		a, b := geom.Point{X: lo, Y: y}, geom.Point{X: hi, Y: y}
		if len(as)%2 == 1 {
			a, b = b, a
		}
		as, bs = append(as, a), append(bs, b)
	}
	return as, bs
}

// pointTable loads one geometry per coordinate, shaped by kind, and
// indexes it.
func pointTable(t testing.TB, name, kind string, pts []geom.Point) Source {
	t.Helper()
	return buildSource(t, name, pointDataset(t, kind, pts))
}

// pointDataset shapes one geometry per coordinate by kind.
func pointDataset(t testing.TB, kind string, pts []geom.Point) datagen.Dataset {
	t.Helper()
	geoms := make([]geom.Geometry, len(pts))
	for i, p := range pts {
		pt := geom.NewPoint(p.X, p.Y)
		var err error
		switch kind {
		case "point":
			geoms[i] = pt
		case "line": // zero length
			geoms[i], err = geom.NewLineString([]geom.Point{p, p})
		case "multipoint": // one coordinate, repeated
			geoms[i], err = geom.NewMulti(geom.KindMultiPoint, []geom.Geometry{pt, pt})
		case "rect": // lattice-aligned, so lattice points fall on edges
			w, h := 0.5+float64(i%5)/2, 0.5+float64(i%3)/2
			geoms[i], err = geom.NewRect(p.X, p.Y, p.X+w, p.Y+h)
		default:
			t.Fatalf("unknown shape kind %q", kind)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return datagen.Dataset{Name: kind, Geoms: geoms, Bounds: pointExtent}
}

// pointJoinCase is one operand pair of the point differential.
type pointJoinCase struct {
	name string
	a, b Source
	// allPoints: every leaf MBR on both sides is a point, so the
	// index-decided route must take every pair.
	allPoints bool
}

func pointJoinCases(t testing.TB) []pointJoinCase {
	pts := latticePoints(5, 300)
	other := latticePoints(6, 200)
	points := pointTable(t, "points", "point", pts)
	lines := pointTable(t, "lines", "line", pts)
	multis := pointTable(t, "multipoints", "multipoint", pts)
	otherLines := pointTable(t, "other_lines", "line", other)
	rects := pointTable(t, "rects", "rect", other)
	firsts, seconds := roundingBoundaryPoints(8, 40, 1.5, 2.5)
	boundary := pointTable(t, "rounding_boundary", "point", append(slices.Clone(firsts), seconds...))
	return []pointJoinCase{
		{"points", points, points, true},
		{"zero-length lines", lines, lines, true},
		{"repeated multipoints", multis, multis, true},
		{"points x lines", points, otherLines, true},
		{"points x polygons", points, rects, false},
		{"rounding boundary", boundary, boundary, true},
		{"rounding boundary, first points x all", pointTable(t, "rounding_firsts", "point", firsts), boundary, true},
	}
}

// pointPredicates are the predicates of the differential: the two the
// index decides, at tie distances too, and TOUCH, which depends on
// boundaries and must still be refined.
func pointPredicates() map[string]Config {
	touch := DefaultConfig()
	touch.Mask = geom.MaskTouch
	preds := map[string]Config{"anyinteract": DefaultConfig(), "touch": touch}
	for _, d := range []float64{1.5, 2.5} {
		cfg := DefaultConfig()
		cfg.Distance = d
		preds[fmt.Sprintf("distance=%g", d)] = cfg
	}
	return preds
}

// pointAlgos are the candidate sources under test, as cursors.
var pointAlgos = []struct {
	name    string
	ordered bool
	open    func(a, b Source, cfg Config) (storage.Cursor, error)
}{
	{"serial", true, IndexJoin},
	{"serial nested scan", true, nestedScanJoin},
	{"subtree x3", false, func(a, b Source, cfg Config) (storage.Cursor, error) { return ParallelIndexJoin(a, b, cfg, 3) }},
	{"grid x3", false, func(a, b Source, cfg Config) (storage.Cursor, error) { return GridParallelJoin(a, b, cfg, 3) }},
}

// heapMBRs returns geom.MBROf of every row of s, by rowid.
func heapMBRs(t testing.TB, s Source) map[storage.RowID]geom.MBR {
	t.Helper()
	col, err := s.geomColumn()
	if err != nil {
		t.Fatal(err)
	}
	out := map[storage.RowID]geom.MBR{}
	if err := s.Table.Scan(func(id storage.RowID, row storage.Row) bool {
		out[id] = geom.MBROf(row[col].G)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPointJoinsEqualNestedLoop is the differential: every algorithm ×
// predicate × point-degenerate table pair, unscoped and as the union of
// a 3-shard scope, drained by row and by batch, returns the nested-loop
// reference's pairs.
func TestPointJoinsEqualNestedLoop(t *testing.T) {
	for _, c := range pointJoinCases(t) {
		mbrA, mbrB := heapMBRs(t, c.a), heapMBRs(t, c.b)
		for pname, cfg := range pointPredicates() {
			want := nestedPairs(t, c.a, c.b, cfg)
			if len(want) == 0 && pname != "touch" {
				t.Fatalf("%s/%s: degenerate fixture, empty join", c.name, pname)
			}
			for _, algo := range pointAlgos {
				t.Run(fmt.Sprintf("%s/%s/%s", c.name, pname, algo.name), func(t *testing.T) {
					open := func(cfg Config) (storage.Cursor, error) { return algo.open(c.a, c.b, cfg) }
					storagetest.CheckBatchEqualsNext(t, algo.ordered, func() (storage.Cursor, error) { return open(cfg) })
					cur, err := open(cfg)
					if got := sortedPairs(t, cur, err); !pairsEqual(got, want) {
						t.Fatalf("unscoped: %d pairs, nested-loop reference %d", len(got), len(want))
					}
					var union []Pair
					for k, own := range stripes(3) {
						scoped := cfg
						scoped.Owns = own
						cur, err := open(scoped)
						got := sortedPairs(t, cur, err)
						var exp []Pair
						for _, p := range want {
							if own(PairRefPoint(mbrA[p.A], mbrB[p.B], cfg.Distance)) {
								exp = append(exp, p)
							}
						}
						if !pairsEqual(got, exp) {
							t.Fatalf("shard %d of 3: %d pairs, want the %d reference pairs it owns", k, len(got), len(exp))
						}
						union = append(union, got...)
					}
					if SortPairs(union); !pairsEqual(union, want) {
						t.Fatalf("3 shards: union has %d pairs, unscoped %d", len(union), len(want))
					}
				})
			}
		}
	}
}

// joinCounters runs one join to the end with instruments attached and
// returns the counters summed over its instances.
func joinCounters(t *testing.T, open func(cfg Config) (storage.Cursor, error), cfg Config) (pairs int, c map[string]int64) {
	t.Helper()
	reg := telemetry.New()
	cfg.Instr = NewInstruments(reg)
	cur, err := open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectPairs(cur)
	if err != nil {
		t.Fatal(err)
	}
	c = map[string]int64{}
	for _, name := range []string{"join_candidates_total", "join_geom_fetches_total", "join_fast_accepts_total", "join_results_total",
		"join_box_hits_total", "join_box_misses_total", "join_mirrored_total"} {
		c[name] = lookupValue(t, reg, name)
	}
	return len(got), c
}

// TestPointJoinIsIndexDecided pins that the route engages: a join whose
// leaf MBRs are all points queues no candidate and fetches no geometry
// under ANYINTERACT or a distance, on every algorithm; TOUCH, and a join
// against polygons, still go through the secondary filter.
func TestPointJoinIsIndexDecided(t *testing.T) {
	for _, c := range pointJoinCases(t) {
		for pname, cfg := range pointPredicates() {
			decided := c.allPoints && pname != "touch"
			for _, algo := range pointAlgos {
				open := func(cfg Config) (storage.Cursor, error) { return algo.open(c.a, c.b, cfg) }
				n, got := joinCounters(t, open, cfg)
				cands, fetches := got["join_candidates_total"], got["join_geom_fetches_total"]
				if decided {
					if cands != 0 || fetches != 0 || got["join_fast_accepts_total"] != int64(n) || n == 0 {
						t.Errorf("%s/%s/%s: %d pairs, %v; want every pair proven from the index", c.name, pname, algo.name, n, got)
					}
				} else if cands == 0 {
					t.Errorf("%s/%s/%s: no candidate reached the secondary filter: %v", c.name, pname, algo.name, got)
				}
			}
		}
	}
}

// TestMBRTestsExactOnPoints checks the sources' own acceptance tests on
// point MBRs against geom.MBR.Dist: the sweeps' mbrsWithin (whose
// zero-gap shortcut skips the hypotenuse) agrees with MBR.Dist ≤ d
// bit for bit, at the pair's own distance and its float neighbours.
func TestMBRTestsExactOnPoints(t *testing.T) {
	pts := latticePoints(7, 400)
	pts = append(pts, geom.Point{X: 1e6, Y: 1e6}, geom.Point{X: 1e6 + 3, Y: 1e6 + 4},
		geom.Point{X: math.Nextafter(1e6, 2e6), Y: 1e6})
	for i, p := range pts {
		a := geom.MBR{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
		for _, q := range pts[i:] {
			b := geom.MBR{MinX: q.X, MinY: q.Y, MaxX: q.X, MaxY: q.Y}
			dist := a.Dist(b)
			for _, d := range []float64{1.5, 2.5, dist, math.Nextafter(dist, 0), math.Nextafter(dist, math.Inf(1))} {
				if d <= 0 {
					continue
				}
				if got, want := mbrsWithin(&a, &b, d), dist <= d; got != want {
					t.Fatalf("mbrsWithin(%v, %v, %v) = %v, MBR.Dist %v", a, b, d, got, dist)
				}
			}
		}
	}
}
