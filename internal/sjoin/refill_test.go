package sjoin

import (
	"math/rand"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

// Bounded pipelining. A refill stops once the candidate array and the
// ready queue together hold CandidateCap pairs, so a join whose pairs
// are proven from the index (point MBRs, a row paired with itself)
// stays a pipeline instead of materialising its result in one refill.

// overlappingSquares returns n squares of side 100 with lower-left
// corners in [0, 50)²: every two overlap by at least 50 × 50, so every
// pair is a result.
func overlappingSquares(t testing.TB, seed int64, n int) datagen.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	geoms := make([]geom.Geometry, n)
	for i := range geoms {
		x, y := rng.Float64()*50, rng.Float64()*50
		g, err := geom.NewRect(x, y, x+100, y+100)
		if err != nil {
			t.Fatal(err)
		}
		geoms[i] = g
	}
	return datagen.Dataset{Name: "squares", Geoms: geoms, Bounds: geom.MBR{MaxX: 150, MaxY: 150}}
}

// TestFastAcceptsRespectCandidateCap fetches a tree self-join one row
// at a time: the ready queue may never hold more than CandidateCap plus
// the pairs of the one node pair that crossed it. The fast-accept leg
// proves every pair at emission (the points and self routes); the
// refined leg refines every pair, each once, and returns it in both
// orientations (the mirror mode, whose candidates count twice against
// the cap).
func TestFastAcceptsRespectCandidateCap(t *testing.T) {
	points := pointTable(t, "points", "point", latticePoints(9, 1000))
	squares := buildSource(t, "squares", overlappingSquares(t, 9, 200))
	for _, leg := range []struct {
		name string
		src  Source
		d    float64
	}{{"fast accepts", points, 1.5}, {"refined self-join", squares, 0}} {
		t.Run(leg.name, func(t *testing.T) {
			src := leg.src
			cfg := DefaultConfig()
			cfg.Distance = leg.d
			cfg.CandidateCap = 16
			fn, err := NewJoinFunction(src, src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := fn.Start(); err != nil {
				t.Fatal(err)
			}
			defer fn.Close()
			bound := cfg.CandidateCap + src.Tree.MaxEntries()*src.Tree.MaxEntries()
			var (
				b    storage.Batch
				got  []Pair
				peak int
			)
			for {
				b.Reset()
				if err := fn.Fetch(&b, 1); err != nil {
					t.Fatal(err)
				}
				peak = max(peak, len(fn.ready))
				if len(b.Rows) == 0 {
					break
				}
				if got, err = AppendPairs(got, b.Rows); err != nil {
					t.Fatal(err)
				}
			}
			st := fn.Stats()
			self, decided := st.routes[routeSelf].kept, st.routes[routeMirror].kept
			if leg.d > 0 {
				decided = self + st.routes[routePoints].kept
				if st.Candidates != 0 {
					t.Errorf("%+v; want every pair proven at emission", st)
				}
			} else if self != src.Table.Len() || 2*decided != st.Results-self {
				t.Errorf("%+v; want only the self pairs proven, and every refined pair mirrored", st)
			}
			if decided <= bound {
				t.Fatalf("%+v; the fixture must decide more pairs than the bound %d", st, bound)
			}
			if peak > bound {
				t.Errorf("ready queue peaked at %d pairs, bound CandidateCap + one node pair = %d", peak, bound)
			}
			SortPairs(got)
			if want := nestedPairs(t, src, src, cfg); !pairsEqual(got, want) {
				t.Fatalf("%d pairs, nested-loop reference %d", len(got), len(want))
			}
		})
	}
}

// TestMirroredRefillCountsTwice: a refill of a mirrored self-join stops
// once the candidate arrays and the ready queue hold CandidateCap pairs,
// a candidate counting as the two pairs it returns, so the node pair
// that crosses the cap adds at most twice its own pairs.
func TestMirroredRefillCountsTwice(t *testing.T) {
	src := buildSource(t, "squares", overlappingSquares(t, 9, 200))
	cfg := DefaultConfig()
	fn, err := NewJoinFunction(src, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fn.Start(); err != nil {
		t.Fatal(err)
	}
	defer fn.Close()
	fn.src.refill(fn)
	cap, pair := fn.cfg.CandidateCap, src.Tree.MaxEntries()*src.Tree.MaxEntries()
	queued := 2*(len(fn.cands)+len(fn.boxed)) + len(fn.ready)
	if mirror := fn.routes.has(routeMirror); !mirror || queued < cap || queued > cap+2*pair {
		t.Fatalf("mirror %v: the first refill queued %d candidates and %d proven pairs (%d counted); want between CandidateCap %d and %d",
			mirror, len(fn.cands)+len(fn.boxed), len(fn.ready), queued, cap, cap+2*pair)
	}
}

// TestGridPointJoinSharesTiles runs two grid instances over one tile
// queue, taking turns a row at a time as two instances sharing one
// processor do. Every pair of the point join is proven at emission, so
// only the refill bound stops the first instance from claiming every
// tile in its first refill: both must sweep tiles.
func TestGridPointJoinSharesTiles(t *testing.T) {
	src := pointTable(t, "grid_points", "point", latticePoints(10, 400))
	cfg := DefaultConfig()
	cfg.Distance = 1.5
	cfg.CandidateCap = 8
	gs := buildGridState(src, src, cfg, 2)
	var fns [2]*JoinFunction
	for i := range fns {
		fn, err := newJoinFn(src, src, cfg, gridSource{gs})
		if err != nil {
			t.Fatal(err)
		}
		if err := fn.Start(); err != nil {
			t.Fatal(err)
		}
		defer fn.Close()
		fns[i] = fn
	}
	var (
		b    storage.Batch
		got  []Pair
		done [2]bool
	)
	for !done[0] || !done[1] {
		for i, fn := range fns {
			if done[i] {
				continue
			}
			b.Reset()
			if err := fn.Fetch(&b, 1); err != nil {
				t.Fatal(err)
			}
			done[i] = len(b.Rows) == 0
			var err error
			if got, err = AppendPairs(got, b.Rows); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, fn := range fns {
		if fn.Stats().TilesSwept == 0 {
			t.Errorf("instance %d swept no tile of %d", i, len(gs.tiles))
		}
	}
	SortPairs(got)
	if want := nestedPairs(t, src, src, cfg); !pairsEqual(got, want) {
		t.Fatalf("%d pairs, nested-loop reference %d", len(got), len(want))
	}
}
