package telemetry

import (
	"fmt"
	"log"
	"strings"
	"sync/atomic"
	"time"
)

// Stage enumerates the traced pipeline stages: the table-function
// lifecycle (§2 of the paper) plus the spatial-join internals (§4.2).
// Stages are array indexes, not map keys, so recording a span is two
// atomic adds.
type Stage uint8

// Traced stages.
const (
	// StageStart is the table function's start call.
	StageStart Stage = iota
	// StageFetch is one fetch call (a batch of rows).
	StageFetch
	// StageClose is the table function's close call.
	StageClose
	// StagePrimary is one primary-filter refill (the synchronized
	// R-tree traversal / plane sweep filling the candidate array).
	StagePrimary
	// StageSort is the candidate-array sort by first rowid.
	StageSort
	// StageSecondary is one secondary-filter drain (exact predicate
	// over fetched geometries).
	StageSecondary
	// StageGeomFetch is one base-table geometry fetch inside the
	// secondary filter. Counted exactly but timed by 1-in-16 sampling
	// with the sampled duration scaled up, and only when a per-query
	// trace is attached — per-fetch clock reads are the one
	// per-candidate cost, too hot even for the traced path.
	StageGeomFetch
	// StageGridPartition is the one-time build of the grid-partitioned
	// parallel join: assigning both inputs' MBRs to tiles and
	// classifying them into the two-layer duplicate-avoidance classes.
	StageGridPartition
	// StageTileSweep is one tile's plane sweep in the grid-partitioned
	// join — the per-tile primary filter. The span count is the tile
	// count, so the trace exposes per-tile skew directly.
	StageTileSweep
	// StageDrain is one fetch call's move of verified result pairs from
	// the join's ready queue into the fetch batch as rows. A fetch that
	// returns no pairs (a count-mode fetch among them) records none.
	StageDrain
	// StageScatter is the cluster coordinator's fan-out: opening the
	// per-shard remote cursors of one scatter-gather query. The span
	// count is the shard count contacted.
	StageScatter
	// StageMerge is one merged-batch production in the coordinator's
	// gather loop: pulling remote batches off the scatter instances and
	// concatenating them into the client-facing stream.
	StageMerge
	// StageKeyFetch is one fetch batch's user-key reads in a keyed join
	// projection ('keys=' hint): the key columns of both rows of every
	// pair, read by rowid.
	StageKeyFetch
	// NumStages sizes per-stage arrays.
	NumStages
)

// String returns the stage's snake_case name.
func (s Stage) String() string {
	switch s {
	case StageStart:
		return "start"
	case StageFetch:
		return "fetch"
	case StageClose:
		return "close"
	case StagePrimary:
		return "primary_filter"
	case StageSort:
		return "candidate_sort"
	case StageSecondary:
		return "secondary_filter"
	case StageGeomFetch:
		return "geom_fetch"
	case StageGridPartition:
		return "grid_partition"
	case StageTileSweep:
		return "tile_sweep"
	case StageDrain:
		return "ready_drain"
	case StageScatter:
		return "scatter"
	case StageMerge:
		return "merge"
	case StageKeyFetch:
		return "key_fetch"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// stageAgg is one stage's accumulated spans. Atomics, because the
// parallel join's instances feed one shared Trace.
type stageAgg struct {
	nanos atomic.Int64
	count atomic.Int64
}

// Trace accumulates the per-stage time of one query (or one join
// cursor) from begin to Finish. A nil *Trace is a no-op, which is the
// disabled default — callers thread a *Trace unconditionally and pay
// one nil check per span.
type Trace struct {
	tracer *Tracer
	label  string
	t0     time.Time
	stages [NumStages]stageAgg
	done   atomic.Bool
}

// Span opens a span for stage s and returns the function that closes
// it; use as `defer tr.Span(telemetry.StagePrimary)()` or bracket a
// region. On a nil trace the returned func is a shared no-op.
func (t *Trace) Span(s Stage) func() {
	if t == nil {
		return nopEnd
	}
	start := time.Now()
	return func() { t.Add(s, time.Since(start), 1) }
}

var nopEnd = func() {}

// Add records n completed spans of stage s totalling d.
func (t *Trace) Add(s Stage, d time.Duration, n int64) {
	if t == nil {
		return
	}
	t.stages[s].nanos.Add(int64(d))
	t.stages[s].count.Add(n)
}

// StageTotal returns the accumulated duration and span count of stage
// s (zeros on a nil trace).
func (t *Trace) StageTotal(s Stage) (time.Duration, int64) {
	if t == nil {
		return 0, 0
	}
	return time.Duration(t.stages[s].nanos.Load()), t.stages[s].count.Load()
}

// Elapsed returns the wall time since the trace began.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// String renders the trace as one line: label, elapsed, then each
// stage with spans and accumulated time.
func (t *Trace) String() string {
	if t == nil {
		return "<nil trace>"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s elapsed=%s", t.label, t.Elapsed().Round(time.Microsecond))
	for s := Stage(0); s < NumStages; s++ {
		d, n := t.StageTotal(s)
		if n == 0 && d == 0 {
			continue
		}
		fmt.Fprintf(&sb, " %s=%s/%d", s, d.Round(time.Microsecond), n)
	}
	return sb.String()
}

// Finish closes the trace: the tracer's query histogram observes the
// total elapsed time, and — when the total is at or above the slow
// threshold — the trace is emitted on the slow log. Finish is
// idempotent and nil-safe (cursors can be closed twice).
func (t *Trace) Finish() {
	if t == nil || !t.done.CompareAndSwap(false, true) {
		return
	}
	tr := t.tracer
	elapsed := t.Elapsed()
	tr.querySeconds.Observe(elapsed.Seconds())
	thr := time.Duration(tr.threshold.Load())
	if thr >= 0 && elapsed >= thr {
		tr.slowTotal.Inc()
		tr.logf("slow query (>=%s): %s", thr, t)
	}
}

// Tracer mints per-query traces and owns the slow-log policy. A nil
// *Tracer never traces (Begin returns nil).
type Tracer struct {
	reg          *Registry
	threshold    atomic.Int64 // slow-log threshold in nanoseconds; < 0 disables
	logf         func(format string, args ...any)
	querySeconds *Histogram
	slowTotal    *Counter
}

// NewTracer returns a tracer that observes per-query latency into reg
// (which may be Nop) and emits traces slower than threshold through
// logf (default log.Printf). threshold < 0 disables the slow log;
// threshold 0 logs every query.
func NewTracer(reg *Registry, threshold time.Duration, logf func(format string, args ...any)) *Tracer {
	if logf == nil {
		logf = log.Printf
	}
	tr := &Tracer{
		reg:  reg,
		logf: logf,
		querySeconds: reg.NewHistogram("query_seconds",
			"end-to-end traced query latency", nil),
		slowTotal: reg.NewCounter("query_slow_total",
			"traced queries at or above the slow-query threshold"),
	}
	tr.threshold.Store(int64(threshold))
	return tr
}

// Begin opens a trace labelled label. On a nil tracer it returns nil —
// the no-op trace.
func (tr *Tracer) Begin(label string) *Trace {
	if tr == nil {
		return nil
	}
	return &Trace{tracer: tr, label: label, t0: time.Now()}
}

// SetThreshold replaces the slow-log threshold; safe for concurrent
// use (shell toggles like \trace on race against in-flight queries).
func (tr *Tracer) SetThreshold(d time.Duration) {
	if tr != nil {
		tr.threshold.Store(int64(d))
	}
}
