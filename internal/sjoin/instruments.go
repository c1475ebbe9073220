package sjoin

import (
	"time"

	"spatialtf/internal/telemetry"
)

// Instruments is the shared telemetry of the spatial join: registry
// counters for the work the per-instance JoinStats count, plus
// stage-latency histograms for the two-stage evaluation of §4.2. One
// Instruments is shared by every join (and every parallel instance) of
// a database — handles are lock-free atomics, so concurrent instances
// feed them directly.
//
// Counters are fed by delta flushes at fetch/close granularity (see
// JoinFunction.flushStats): the hot loops keep bumping plain ints in
// JoinStats and the registry sees the accumulated delta once per fetch
// batch, which keeps the per-candidate cost at zero.
//
// Five counters are read off JoinStats' per-route vector (DESIGN.md
// §21): FastAccepts is what the self and points routes proved at
// emission, BoxHits / BoxMisses what the box route decided without
// refining, Mirrored the mirror images the mirror mode returned, and
// Refined the candidates the refine route ran the exact predicate on.
type Instruments struct {
	NodePairs    *telemetry.Counter
	NodeAccesses *telemetry.Counter
	Candidates   *telemetry.Counter
	Results      *telemetry.Counter
	GeomFetches  *telemetry.Counter
	FastAccepts  *telemetry.Counter
	BoxHits      *telemetry.Counter
	BoxMisses    *telemetry.Counter
	Mirrored     *telemetry.Counter
	Refined      *telemetry.Counter
	// CacheHits / CacheMisses count the secondary filter's
	// decoded-geometry cache lookups; the cache itself counts nothing.
	CacheHits   *telemetry.Counter
	CacheMisses *telemetry.Counter
	// TilesSwept counts grid tiles swept by the grid-partitioned path.
	TilesSwept *telemetry.Counter
	// Stage latencies, observed per batch-granular section: one
	// primary-filter refill, one candidate sort, one secondary-filter
	// drain.
	PrimarySeconds   *telemetry.Histogram
	SortSeconds      *telemetry.Histogram
	SecondarySeconds *telemetry.Histogram
	// Grid-path stage latencies: the one-time partition build, and one
	// observation per tile sweep — the per-tile histogram is the skew
	// signal (a long tail means uneven tiles).
	GridPartitionSeconds *telemetry.Histogram
	TileSweepSeconds     *telemetry.Histogram
}

// NewInstruments registers the join metric set on reg. On the Nop
// registry the returned instruments are usable no-ops.
func NewInstruments(reg *telemetry.Registry) *Instruments {
	return &Instruments{
		NodePairs:    reg.NewCounter("join_node_pairs_total", "R-tree node pairs visited by the primary filter"),
		NodeAccesses: reg.NewCounter("join_node_accesses_total", "index node reads issued by the join"),
		Candidates:   reg.NewCounter("join_candidates_total", "primary-filter survivors queued for the secondary filter"),
		Results:      reg.NewCounter("join_results_total", "exact-predicate survivors returned"),
		GeomFetches:  reg.NewCounter("join_geom_fetches_total", "base-table geometry fetches by the secondary filter"),
		FastAccepts:  reg.NewCounter("join_fast_accepts_total", "pairs proven from index data alone (point MBRs or a row paired with itself)"),
		BoxHits:      reg.NewCounter("join_box_hits_total", "candidates whose leaf MBR lies inside the other side's geometry (true hits)"),
		BoxMisses:    reg.NewCounter("join_box_misses_total", "candidates whose leaf MBR lies beyond the predicate's reach of the other side's geometry (true misses)"),
		Mirrored:     reg.NewCounter("join_mirrored_total", "self-join results returned as the mirror image of an accepted pair, neither emitted nor refined"),
		Refined:      reg.NewCounter("join_refined_total", "candidates the secondary filter fetched and ran the exact predicate on, kept or dropped"),
		CacheHits:    reg.NewCounter("geom_cache_hits_total", "decoded-geometry cache hits"),
		CacheMisses:  reg.NewCounter("geom_cache_misses_total", "decoded-geometry cache misses"),
		TilesSwept:   reg.NewCounter("join_tiles_swept_total", "grid tiles swept by the grid-partitioned join"),
		PrimarySeconds: reg.NewHistogram("join_primary_filter_seconds",
			"latency of one primary-filter candidate refill", nil),
		SortSeconds: reg.NewHistogram("join_candidate_sort_seconds",
			"latency of one candidate-array sort", nil),
		SecondarySeconds: reg.NewHistogram("join_secondary_filter_seconds",
			"latency of one secondary-filter drain", nil),
		GridPartitionSeconds: reg.NewHistogram("join_grid_partition_seconds",
			"latency of the grid-partitioned join's one-time partition build", nil),
		TileSweepSeconds: reg.NewHistogram("join_tile_sweep_seconds",
			"latency of one grid-tile plane sweep (the per-tile skew histogram)", nil),
	}
}

// observeStage records one batch-granular stage duration. Nil-safe.
func (in *Instruments) observeStage(s telemetry.Stage, d time.Duration) {
	if in == nil {
		return
	}
	switch s {
	case telemetry.StagePrimary:
		in.PrimarySeconds.Observe(d.Seconds())
	case telemetry.StageSort:
		in.SortSeconds.Observe(d.Seconds())
	case telemetry.StageSecondary:
		in.SecondarySeconds.Observe(d.Seconds())
	case telemetry.StageGridPartition:
		in.GridPartitionSeconds.Observe(d.Seconds())
	case telemetry.StageTileSweep:
		in.TileSweepSeconds.Observe(d.Seconds())
	}
}

// stageSpan opens a timed section for stage s, feeding both the shared
// instruments and the per-query trace. When neither sink is attached it
// returns a shared no-op and the clock is never read — the disabled
// join pays one nil check per batch, nothing per candidate.
func stageSpan(in *Instruments, tr *telemetry.Trace, s telemetry.Stage) func() {
	if in == nil && tr == nil {
		return nopSpan
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		in.observeStage(s, d)
		tr.Add(s, d, 1)
	}
}

// span is stageSpan over the join function's attached sinks.
func (j *JoinFunction) span(s telemetry.Stage) func() {
	return stageSpan(j.instr, j.trace, s)
}

var nopSpan = func() {}

// flushStats pushes the growth of the per-instance JoinStats since the
// last flush onto the shared instruments. Called once per fetch and at
// close, so the registry trails the hot loop by at most one batch.
func (j *JoinFunction) flushStats() {
	in := j.instr
	if in == nil {
		return
	}
	cur, prev := j.stats, j.flushed
	in.NodePairs.Add(int64(cur.NodePairsVisited - prev.NodePairsVisited))
	in.NodeAccesses.Add(int64(cur.NodeAccesses - prev.NodeAccesses))
	in.Candidates.Add(int64(cur.Candidates - prev.Candidates))
	in.Results.Add(int64(cur.Results - prev.Results))
	in.GeomFetches.Add(int64(cur.GeomFetches - prev.GeomFetches))
	cr, pr := &cur.routes, &prev.routes
	in.FastAccepts.Add(int64(cr[routeSelf].kept + cr[routePoints].kept - pr[routeSelf].kept - pr[routePoints].kept))
	in.BoxHits.Add(int64(cr[routeBox].kept - pr[routeBox].kept))
	in.BoxMisses.Add(int64(cr[routeBox].dropped - pr[routeBox].dropped))
	in.Mirrored.Add(int64(cr[routeMirror].kept - pr[routeMirror].kept))
	in.Refined.Add(int64(cr[routeRefine].kept + cr[routeRefine].dropped - pr[routeRefine].kept - pr[routeRefine].dropped))
	in.CacheHits.Add(int64(cur.CacheHits - prev.CacheHits))
	in.CacheMisses.Add(int64(cur.CacheMisses - prev.CacheMisses))
	in.TilesSwept.Add(int64(cur.TilesSwept - prev.TilesSwept))
	j.flushed = cur
}
