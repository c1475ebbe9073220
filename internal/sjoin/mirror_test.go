package sjoin

import (
	"fmt"
	"slices"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
	"spatialtf/internal/storage/storagetest"
)

// Mirrored self-join candidates. An unscoped self-join under a
// symmetric predicate enumerates each unordered candidate once, as
// (a, b) with a < b, and the secondary filter returns (b, a) beside
// every (a, b) it accepts. These tests hold every algorithm to
// the nested-loop reference (which refines both orientations on its
// own) at two candidate caps, drained row by row and by batch, scoped
// and unscoped, and pin that the route engages exactly where it
// applies: each unordered candidate pair is evaluated once, and a
// scoped join or an asymmetric mask keeps both orientations.

// pairedCounties merges county i with county n-1-i into one
// multipolygon: far-apart parts, so a leaf MBR is mostly empty space.
func pairedCounties(t testing.TB, n int, seed int64) datagen.Dataset {
	t.Helper()
	ds := datagen.Counties(n, seed)
	var geoms []geom.Geometry
	for i := 0; i < n/2; i++ {
		g, err := geom.NewMulti(geom.KindMultiPolygon, []geom.Geometry{ds.Geoms[i], ds.Geoms[n-1-i]})
		if err != nil {
			t.Fatal(err)
		}
		geoms = append(geoms, g)
	}
	return datagen.Dataset{Name: "paired_counties", Geoms: geoms, Bounds: ds.Bounds}
}

// mirrorCase is one self-join of the differential.
type mirrorCase struct {
	name string
	src  Source
	cfg  Config
	// mirrored: the route applies (a symmetric predicate).
	mirrored bool
}

func mirrorCases(t testing.TB) []mirrorCase {
	countiesDS, bgDS := datagen.Counties(64, 3), datagen.BlockGroups(120, 1)
	counties := buildSource(t, "counties", countiesDS)
	bg := buildSource(t, "blockgroups", bgDS)
	multis := buildSource(t, "paired_counties", pairedCounties(t, 64, 4))
	// Every fifth county twice: EQUAL pairs of two rows, and every
	// row's pair with itself, refined and not mirrored.
	dupDS := countiesDS
	dupDS.Geoms = append([]geom.Geometry(nil), countiesDS.Geoms...)
	for i := 0; i < len(countiesDS.Geoms); i += 5 {
		dupDS.Geoms = append(dupDS.Geoms, countiesDS.Geoms[i])
	}
	dups := buildSource(t, "counties_with_duplicates", dupDS)
	// Block groups lie inside counties: INSIDE holds one way only.
	mixedDS := datagen.Counties(16, 3)
	mixedDS.Geoms = append(mixedDS.Geoms, bgDS.Geoms[:40]...)
	mixed := buildSource(t, "counties_and_blockgroups", mixedDS)
	with := func(d float64, m geom.Mask) Config {
		cfg := DefaultConfig()
		cfg.Distance, cfg.Mask = d, m
		return cfg
	}
	return []mirrorCase{
		{"counties anyinteract", counties, with(0, geom.MaskAnyInteract), true},
		{"counties d=7", counties, with(7, geom.MaskAnyInteract), true},
		{"counties touch", counties, with(0, geom.MaskTouch), true},
		{"duplicated counties equal", dups, with(0, geom.MaskEqual), true},
		{"counties and blockgroups inside", mixed, with(0, geom.MaskInside), false},
		{"blockgroups anyinteract", bg, with(0, geom.MaskAnyInteract), true},
		{"blockgroups d=7", bg, with(7, geom.MaskAnyInteract), true},
		{"multipolygons anyinteract", multis, with(0, geom.MaskAnyInteract), true},
		{"multipolygons d=7", multis, with(7, geom.MaskAnyInteract), true},
	}
}

// unorderedCandidates counts the pairs a < b whose MBRs pass the
// primary filter: the candidates a mirrored self-join evaluates, each
// once, beside its rows' pairs with themselves.
func unorderedCandidates(mbrs map[storage.RowID]geom.MBR, cfg Config) int64 {
	n := int64(0)
	for a, ma := range mbrs {
		for b, mb := range mbrs {
			if a.Less(b) && cfg.primaryAccepts(ma, mb) {
				n++
			}
		}
	}
	return n
}

// TestMirroredSelfJoinsEqualNestedLoop is the differential: every
// algorithm, at CandidateCap 7 and the default, returns the nested-loop
// reference's pairs read row by row and by batch, unscoped and as each
// shard of a 3-stripe scope; the unscoped mirrored join evaluates each
// unordered candidate pair once and mirrors every refined result, and
// a scoped or asymmetric join mirrors nothing.
func TestMirroredSelfJoinsEqualNestedLoop(t *testing.T) {
	for _, c := range mirrorCases(t) {
		want := nestedPairs(t, c.src, c.src, c.cfg)
		if !slices.ContainsFunc(want, func(p Pair) bool { return p.A != p.B }) {
			t.Fatalf("%s: degenerate fixture, no pair of two rows", c.name)
		}
		mbrs := heapMBRs(t, c.src)
		// Under ANYINTERACT and a distance a row's pair with itself is
		// proven at emission; under the other masks it is a candidate,
		// refined once and never mirrored.
		rows := int64(c.src.Table.Len())
		selfProven, selfCands := rows, int64(0)
		if c.cfg.Distance == 0 && c.cfg.Mask != geom.MaskAnyInteract {
			selfProven, selfCands = 0, rows
		}
		selfPairs := int64(0)
		for _, p := range want {
			if p.A == p.B {
				selfPairs++
			}
		}
		unordered := unorderedCandidates(mbrs, c.cfg) + selfCands
		caps := []int{7, 0}
		if raceEnabled {
			// The concurrency under test (parallel instances sharing a
			// cache and a tile queue) is the same at either cap; one
			// suffices under the ~10x race-detector slowdown.
			caps = caps[:1]
		}
		for _, cap := range caps {
			for _, algo := range pointAlgos {
				t.Run(fmt.Sprintf("%s/cap=%d/%s", c.name, cap, algo.name), func(t *testing.T) {
					cfg := c.cfg
					cfg.CandidateCap = cap
					open := func(cfg Config) (storage.Cursor, error) { return algo.open(c.src, c.src, cfg) }
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
							if own(PairRefPoint(mbrs[p.A], mbrs[p.B], cfg.Distance)) {
								exp = append(exp, p)
							}
						}
						if !pairsEqual(got, exp) {
							t.Fatalf("shard %d of 3: %d pairs, want the %d reference pairs it owns", k, len(got), len(exp))
						}
						union = append(union, got...)
						if _, st := joinCounters(t, open, scoped); st["join_mirrored_total"] != 0 {
							t.Errorf("shard %d of 3: a scoped join mirrored pairs: %v", k, st)
						}
					}
					if SortPairs(union); !pairsEqual(union, want) {
						t.Fatalf("3 shards: union has %d pairs, unscoped %d", len(union), len(want))
					}
					n, st := joinCounters(t, open, cfg)
					mirrored, fast := st["join_mirrored_total"], st["join_fast_accepts_total"]
					if !c.mirrored {
						if mirrored != 0 {
							t.Errorf("%v; an asymmetric mask mirrored pairs", st)
						}
						return
					}
					if fast != selfProven || st["join_results_total"] != int64(n) || 2*mirrored != int64(n)-selfPairs {
						t.Errorf("%d pairs, %v; want %d self pairs proven and every pair of two rows one refined and one mirrored", n, st, selfProven)
					}
					if st["join_candidates_total"] != unordered {
						t.Errorf("%v; want each of the %d unordered candidate pairs evaluated once", st, unordered)
					}
				})
			}
		}
	}
}
