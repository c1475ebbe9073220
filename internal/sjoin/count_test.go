package sjoin

import (
	"fmt"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/tablefunc"
	"spatialtf/internal/telemetry"
)

// countFixture is one join of the count-mode differential.
type countFixture struct {
	name string
	a, b Source
	cfg  Config
}

// countFixtures covers every route: a polygon self-join (self, mirror,
// box, refine), the same within a distance, a polygon × star cross
// join, and a distance self-join of points (points, mirror) — each
// unscoped and under every stripe of a 3-stripe scope (owner). The
// candidate cap is small, so the arrays and the ready queue fill and
// empty many times within one join.
func countFixtures(t *testing.T) []countFixture {
	counties := buildSource(t, "count_counties", datagen.Counties(150, 5))
	stars := buildSource(t, "count_stars", datagen.Stars(500, 6))
	points := pointTable(t, "count_points", "point", latticePoints(9, 600))
	base := DefaultConfig()
	base.CandidateCap = 64
	near, pts := base, base
	near.Distance = 2
	pts.Distance = 1.5
	var out []countFixture
	for _, f := range []countFixture{
		{"counties self", counties, counties, base},
		{"counties self d=2", counties, counties, near},
		{"counties x stars", counties, stars, base},
		{"points self d=1.5", points, points, pts},
	} {
		out = append(out, f)
		for k, owns := range stripes(3) {
			s := f
			s.name = fmt.Sprintf("%s, stripe %d of 3", f.name, k)
			s.cfg.Owns = owns
			out = append(out, s)
		}
	}
	return out
}

// sequentialInstances builds the instances a parallel join of algo
// would run over one shared claim queue (tiles or subtree pairs).
// Driven one after another they claim deterministically, so the
// streamed and the counted runs of one shape see the same work.
func sequentialInstances(t *testing.T, f countFixture, algo Algo, workers int) []*JoinFunction {
	t.Helper()
	cfg, workers, err := prepareInstances(f.a, f.b, f.cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	var src func() candSource
	if algo == AlgoGrid {
		gs := buildGridState(f.a, f.b, cfg, workers)
		src = func() candSource { return gridSource{gs} }
	} else {
		q := newPairQueue(SubtreePairsForWorkers(f.a.Tree, f.b.Tree, workers, cfg))
		src = func() candSource { return &treeSource{queue: q} }
	}
	fns := make([]*JoinFunction, workers)
	for i := range fns {
		if fns[i], err = newJoinFn(f.a, f.b, cfg, src()); err != nil {
			t.Fatal(err)
		}
	}
	return fns
}

// TestCountModeMatchesStreamed is the count mode's differential inside
// sjoin: for every route fixture, on the serial join and on the
// instances of the subtree and grid joins, the count a count-mode
// function returns equals the rows the streamed function returns, and
// every JoinStats counter — the work, the candidates, the results, each
// route's kept and dropped pairs, the geometry fetches and cache
// lookups — is the same, because the counted pairs take the ready
// queue's place in the candidate bound.
func TestCountModeMatchesStreamed(t *testing.T) {
	type shape struct {
		name string
		fns  func() []*JoinFunction
	}
	for _, f := range countFixtures(t) {
		shapes := []shape{{"serial", func() []*JoinFunction {
			fn, err := NewJoinFunction(f.a, f.b, f.cfg)
			if err != nil {
				t.Fatal(err)
			}
			return []*JoinFunction{fn}
		}}}
		for _, algo := range []Algo{AlgoSubtree, AlgoGrid} {
			for _, w := range []int{1, 2, 4} {
				shapes = append(shapes, shape{fmt.Sprintf("%v x %d", algo, w), func() []*JoinFunction { return sequentialInstances(t, f, algo, w) }})
			}
		}
		for _, sh := range shapes {
			streamed, counted := sh.fns(), sh.fns()
			rows, count := 0, 0
			for i := range streamed {
				pairs, err := CollectPairs(tablefunc.Pipeline(streamed[i], 0))
				if err != nil {
					t.Fatal(err)
				}
				rows += len(pairs)
				n, stats, err := RunJoinFunction(counted[i], 0)
				if err != nil {
					t.Fatal(err)
				}
				count += n
				if want := streamed[i].Stats(); stats != want {
					t.Errorf("%s, %s, instance %d: counted stats %+v, streamed %+v", f.name, sh.name, i, stats, want)
				}
				if len(counted[i].ready) != 0 {
					t.Errorf("%s, %s, instance %d: count mode queued %d pairs", f.name, sh.name, i, len(counted[i].ready))
				}
			}
			if count != rows {
				t.Errorf("%s, %s: count(*) %d, rows streamed %d", f.name, sh.name, count, rows)
			}
		}
	}
}

// countedCounters names the registry counters a join feeds whatever the
// interleaving of its instances. join_geom_fetches_total is left out:
// where two concurrent instances miss one geometry together depends on
// the schedule.
var countedCounters = []string{
	"join_node_pairs_total", "join_node_accesses_total", "join_candidates_total",
	"join_results_total", "join_fast_accepts_total", "join_box_hits_total",
	"join_box_misses_total", "join_mirrored_total", "join_refined_total",
	"join_tiles_swept_total",
}

// TestCountJoinMatchesJoin runs every plan for real — concurrent
// instances through tablefunc.Parallel — as Join and as CountJoin: the
// count equals the rows streamed, and the registry counters the two
// feed are equal. The nested loop counts the pairs it returns.
func TestCountJoinMatchesJoin(t *testing.T) {
	plans := []PlanChoice{{Algo: AlgoNested, Workers: 1}}
	for _, algo := range []Algo{AlgoSubtree, AlgoGrid} {
		for _, w := range []int{1, 2, 4} {
			plans = append(plans, PlanChoice{Algo: algo, Workers: w})
		}
	}
	for _, f := range countFixtures(t) {
		for _, plan := range plans {
			run := func(count bool) (int, *telemetry.Registry) {
				reg := telemetry.New()
				cfg := f.cfg
				cfg.Instr = NewInstruments(reg)
				if count {
					n, err := CountJoin(f.a, f.b, cfg, plan)
					if err != nil {
						t.Fatal(err)
					}
					return n, reg
				}
				cur, err := Join(f.a, f.b, cfg, plan)
				if err != nil {
					t.Fatal(err)
				}
				pairs, err := CollectPairs(cur)
				if err != nil {
					t.Fatal(err)
				}
				return len(pairs), reg
			}
			rows, streamed := run(false)
			count, counted := run(true)
			if count != rows {
				t.Errorf("%s, %v x %d: count(*) %d, rows streamed %d", f.name, plan.Algo, plan.Workers, count, rows)
			}
			for _, name := range countedCounters {
				if got, want := lookupValue(t, counted, name), lookupValue(t, streamed, name); got != want {
					t.Errorf("%s, %v x %d: %s counted %d, streamed %d", f.name, plan.Algo, plan.Workers, name, got, want)
				}
			}
		}
	}
}
