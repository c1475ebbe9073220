package sjoin

import (
	"fmt"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/storage"
)

// Box-decided candidates. Under ANYINTERACT and within-distance the
// secondary filter fetches the side with the larger leaf MBR and tests
// the other side's MBR against it (geom.BoxSide): a box inside the
// partner is a hit, one beyond reach of it a miss, and only the rest
// fetch the second geometry and run the exact predicate. A self-join
// proves each row's pair with itself at emission. These tests hold every
// algorithm to the nested-loop reference on the join_refine shapes and
// pin that both routes engage.

// boxJoinCase is one join of the differential.
type boxJoinCase struct {
	name string
	a, b Source
	cfg  Config
	// hits, misses: the box route must decide candidates both ways.
	hits, misses bool
	// selfRows: a self-join, which must prove at least this many pairs
	// of a row with itself.
	selfRows int
}

func boxJoinCases(t testing.TB) []boxJoinCase {
	bg := buildSource(t, "blockgroups", datagen.BlockGroups(150, 1))
	counties := buildSource(t, "counties", datagen.Counties(64, 3))
	near := DefaultConfig()
	near.Distance = 7
	return []boxJoinCase{
		{"blockgroups x counties", bg, counties, DefaultConfig(), true, true, 0},
		{"counties x blockgroups", counties, bg, DefaultConfig(), true, true, 0},
		{"blockgroups x counties d=7", bg, counties, near, true, true, 0},
		{"counties self d=7", counties, counties, near, false, false, counties.Table.Len()},
	}
}

// TestBoxDecidedJoinsEqualNestedLoop is the differential: every
// algorithm, unscoped and as the union of a 3-shard scope, returns the
// nested-loop reference's pairs, and the routes engage.
func TestBoxDecidedJoinsEqualNestedLoop(t *testing.T) {
	for _, c := range boxJoinCases(t) {
		want := nestedPairs(t, c.a, c.b, c.cfg)
		if len(want) == 0 {
			t.Fatalf("%s: degenerate fixture, empty join", c.name)
		}
		mbrA, mbrB := heapMBRs(t, c.a), heapMBRs(t, c.b)
		for _, algo := range pointAlgos {
			t.Run(fmt.Sprintf("%s/%s", c.name, algo.name), func(t *testing.T) {
				open := func(cfg Config) (storage.Cursor, error) { return algo.open(c.a, c.b, cfg) }
				cur, err := open(c.cfg)
				if got := sortedPairs(t, cur, err); !pairsEqual(got, want) {
					t.Fatalf("unscoped: %d pairs, nested-loop reference %d", len(got), len(want))
				}
				var union []Pair
				for k, own := range stripes(3) {
					scoped := c.cfg
					scoped.Owns = own
					cur, err := open(scoped)
					got := sortedPairs(t, cur, err)
					var exp []Pair
					for _, p := range want {
						if own(PairRefPoint(mbrA[p.A], mbrB[p.B], c.cfg.Distance)) {
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
				n, got := joinCounters(t, open, c.cfg)
				hits, misses := got["join_box_hits_total"], got["join_box_misses_total"]
				if c.hits && hits == 0 || c.misses && misses == 0 {
					t.Errorf("%d pairs, %v; want box hits and misses", n, got)
				}
				if hits > got["join_results_total"] || hits+misses > got["join_candidates_total"] {
					t.Errorf("box decisions outnumber their totals: %v", got)
				}
				if got["join_fast_accepts_total"] < int64(c.selfRows) {
					t.Errorf("%v; want every row's pair with itself (%d) proven at emission", got, c.selfRows)
				}
			})
		}
	}
}
