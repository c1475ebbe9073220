package sjoin

import (
	"strings"
	"sync"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/tablefunc"
	"spatialtf/internal/telemetry"
)

// lookupValue reads one counter from the registry, failing the test on
// a missing name.
func lookupValue(t *testing.T, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	p, ok := reg.Lookup(name)
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	return int64(p.Value)
}

// TestInstrumentsMatchJoinStats: after a join drains, the registry
// counters fed by the delta flushes must equal the per-instance
// JoinStats — the flush may trail by a batch, never diverge.
func TestInstrumentsMatchJoinStats(t *testing.T) {
	counties := buildSource(t, "counties", datagen.Counties(100, 31))
	stars := buildSource(t, "stars", datagen.Stars(400, 32))
	reg := telemetry.New()
	cfg := DefaultConfig()
	cfg.Instr = NewInstruments(reg)
	fn, err := NewJoinFunction(counties, stars, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, stats, err := RunJoinFunction(fn, 64)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("join produced no results; dataset too sparse for the test")
	}
	for _, c := range []struct {
		name string
		want int
	}{
		{"join_node_pairs_total", stats.NodePairsVisited},
		{"join_node_accesses_total", stats.NodeAccesses},
		{"join_candidates_total", stats.Candidates},
		{"join_results_total", stats.Results},
		{"join_geom_fetches_total", stats.GeomFetches},
		{"join_fast_accepts_total", stats.routes[routeSelf].kept + stats.routes[routePoints].kept},
		{"join_box_hits_total", stats.routes[routeBox].kept},
		{"join_box_misses_total", stats.routes[routeBox].dropped},
		{"join_mirrored_total", stats.routes[routeMirror].kept},
		{"join_refined_total", stats.routes[routeRefine].kept + stats.routes[routeRefine].dropped},
		{"geom_cache_hits_total", stats.CacheHits},
		{"geom_cache_misses_total", stats.CacheMisses},
	} {
		if got := lookupValue(t, reg, c.name); got != int64(c.want) {
			t.Errorf("%s = %d, want %d (JoinStats)", c.name, got, c.want)
		}
	}
	if r := stats.routes[routeRefine]; r.kept == 0 || r.dropped == 0 {
		t.Errorf("the refine route kept %d and dropped %d candidates; the fixture must refine both ways", r.kept, r.dropped)
	}
	kept := 0
	for _, c := range stats.routes {
		kept += c.kept
	}
	if stats.CacheHits == 0 || stats.CacheMisses == 0 {
		t.Errorf("the join looked up %d hits and %d misses; the fixture must do both", stats.CacheHits, stats.CacheMisses)
	}
	if kept != stats.Results {
		t.Errorf("the routes kept %d pairs, Results = %d", kept, stats.Results)
	}
	// Stage histograms observed at batch granularity: at least one
	// primary refill and one secondary drain happened.
	for _, name := range []string{"join_primary_filter_seconds", "join_secondary_filter_seconds", "join_candidate_sort_seconds"} {
		p, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("metric %q not registered", name)
		}
		if p.Count == 0 {
			t.Errorf("%s observed nothing", name)
		}
	}
}

// TestParallelJoinConcurrentScrape is the -race gate of the telemetry
// migration: parallel join instances feed the shared instruments and a
// shared per-query trace while a scraper goroutine renders /metrics in
// a loop. Results must still match the uninstrumented serial join.
func TestParallelJoinConcurrentScrape(t *testing.T) {
	stars := buildSource(t, "stars", datagen.Stars(1200, 33))
	cfg := DefaultConfig()

	serialCur, err := IndexJoin(stars, stars, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CollectPairs(serialCur)
	if err != nil {
		t.Fatal(err)
	}
	SortPairs(want)

	reg := telemetry.New()
	tracer := telemetry.NewTracer(reg, -1, nil)
	cfg.Instr = NewInstruments(reg)
	cfg.Trace = tracer.Begin("parallel stars*stars")

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	cur, err := ParallelIndexJoin(stars, stars, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectPairs(cur)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace.Finish()
	close(stop)
	scraper.Wait()

	SortPairs(got)
	if !pairsEqual(got, want) {
		t.Fatalf("instrumented parallel join: %d pairs, serial: %d", len(got), len(want))
	}
	if res := lookupValue(t, reg, "join_results_total"); res != int64(len(want)) {
		t.Errorf("join_results_total = %d, want %d", res, len(want))
	}
	// The shared trace accumulated stage spans from all instances.
	if _, n := cfg.Trace.StageTotal(telemetry.StageFetch); n == 0 {
		t.Error("shared trace saw no fetch spans")
	}
	if _, n := cfg.Trace.StageTotal(telemetry.StagePrimary); n == 0 {
		t.Error("shared trace saw no primary-filter spans")
	}
	if p, ok := reg.Lookup("query_seconds"); !ok || p.Count != 1 {
		t.Errorf("query_seconds count = %+v, want 1 observation", p)
	}
}

// TestReadyDrainSpans: a traced grid join records one ready-drain span
// for every fetch that returns pairs — every fetch but the one each
// instance ends on — and the count(*) of the same join records none:
// its instances fetch once for their count row and once for the end.
func TestReadyDrainSpans(t *testing.T) {
	points := pointTable(t, "drain_points", "point", latticePoints(11, 800))
	cfg := DefaultConfig()
	cfg.Distance = 1.5
	tracer := telemetry.NewTracer(telemetry.New(), -1, nil)
	plan := PlanChoice{Algo: AlgoGrid, Workers: 2}

	cfg.Trace = tracer.Begin("streamed")
	cur, err := Join(points, points, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := CollectPairs(cur)
	if err != nil {
		t.Fatal(err)
	}
	_, fetches := cfg.Trace.StageTotal(telemetry.StageFetch)
	_, drains := cfg.Trace.StageTotal(telemetry.StageDrain)
	if len(pairs) <= tablefunc.DefaultBatch || drains != fetches-int64(plan.Workers) {
		t.Errorf("streamed: %d pairs, %d fetches, %d ready-drain spans; want more than one batch, and fetches - %d", len(pairs), fetches, drains, plan.Workers)
	}

	cfg.Trace = tracer.Begin("counted")
	n, err := CountJoin(points, points, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	_, fetches = cfg.Trace.StageTotal(telemetry.StageFetch)
	_, drains = cfg.Trace.StageTotal(telemetry.StageDrain)
	if n != len(pairs) || drains != 0 || fetches > 2*int64(plan.Workers) {
		t.Errorf("counted: %d pairs, %d fetches, %d ready-drain spans; want %d, at most %d, 0", n, fetches, drains, len(pairs), 2*plan.Workers)
	}
}
