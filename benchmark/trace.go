package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"spatialtf"
	"spatialtf/internal/cluster"
	"spatialtf/internal/telemetry"
)

// perLayer names every per-layer metric the traced run prints, with its
// unit. A metric a workload's layers never touch stays 0 there, which is
// itself the finding (pager.* is 0 off ingest_mixed, cluster.* is 0 off
// cluster_mixed, sjoin.* is 0 on window_lookup).
var perLayer = []struct{ name, unit string }{
	{"client.primary_tail_ms", "ms"},
	{"client.secondary_tail_ms", "ms"},
	{"geom.relate_us_per_call", "us"},
	{"geom.relate_share_of_stmt", "ratio"},
	{"geom.decode_us_per_geom", "us"},
	{"geom.wkt_parse_us", "us"},
	{"rtree.search_us_per_lookup", "us"},
	{"rtree.nodes_per_lookup", "count"},
	{"rtree.insert_us_per_row", "us"},
	{"idxbuild.rtree_build_ms", "ms"},
	{"storage.fetch_us_per_row", "us"},
	{"storage.insert_us_per_row", "us"},
	{"pager.pool_hit_ratio", "ratio"},
	{"pager.pool_evictions", "count"},
	{"pager.wal_bytes_per_user_byte", "ratio"},
	{"pager.fsyncs", "count"},
	{"pager.fsync_p50_ms", "ms"},
	{"pager.checkpoints", "count"},
	{"pager.checkpoint_pages", "count"},
	{"pager.reopen_s", "s"},
	{"pager.space_amp", "ratio"},
	{"sjoin.join_ms", "ms"},
	{"sjoin.primary_filter_ms", "ms"},
	{"sjoin.candidate_sort_ms", "ms"},
	{"sjoin.secondary_filter_ms", "ms"},
	{"sjoin.geom_fetch_ms", "ms"},
	{"sjoin.grid_partition_ms", "ms"},
	{"sjoin.tile_sweep_ms", "ms"},
	{"sjoin.span_coverage", "ratio"},
	{"sjoin.node_accesses", "count"},
	{"sjoin.candidates_per_result", "ratio"},
	{"sjoin.geom_cache_hit_ratio", "ratio"},
	{"tablefunc.self_ms", "ms"},
	{"tablefunc.fetch_calls", "count"},
	{"spatialtf.self_ms", "ms"},
	{"extidx.relate_us_per_lookup", "us"},
	{"sqlmini.self_ms", "ms"},
	{"sqlmini.self_us_per_lookup", "us"},
	{"sqlmini.self_us_per_insert", "us"},
	{"wire.codec_ms", "ms"},
	{"wire.bytes_per_row", "bytes"},
	{"wire.round_trips_per_stmt", "count"},
	{"server.self_ms", "ms"},
	{"server.self_us_per_lookup", "us"},
	{"server.self_us_per_insert", "us"},
	{"server.batch_rows_mean", "rows"},
	{"cluster.self_ms", "ms"},
	{"cluster.self_us_per_lookup", "us"},
	{"cluster.scatter_ms", "ms"},
	{"cluster.merge_ms", "ms"},
	{"cluster.shards_per_query", "count"},
	{"cluster.replication_factor", "ratio"},
	{"ladder.wire_vs_untraced_p50", "ratio"},
	{"telemetry.overhead_share", "ratio"},
	{"process.allocs_per_op", "count"},
	{"process.alloc_kb_per_op", "KiB"},
	{"process.gc_cpu_share", "ratio"},
}

func perLayerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// span is one timed call into a layer. Spans of one ladder repetition
// share an op id; Parent is the index of the span that caused this one.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// stageSink sums the stage totals of the program's own per-join traces.
// It is attached as the slow-log sink of a telemetry.Tracer with a zero
// threshold, so every finished trace reaches collect. Only traces of a
// spatial_join are kept: the coordinator also traces every window
// statement it scatters, and those are not part of any per-join figure.
type stageSink struct {
	mu    sync.Mutex
	nanos [telemetry.NumStages]int64
	count [telemetry.NumStages]int64
	qt    *telemetry.Tracer
}

func newStageSink() *stageSink {
	s := &stageSink{}
	s.qt = telemetry.NewTracer(nil, 0, s.collect)
	return s
}

func (s *stageSink) collect(_ string, args ...any) {
	for _, a := range args {
		t, ok := a.(*telemetry.Trace)
		// A trace prints as its label (the statement, or the facade's
		// "spatial_join a*b") and then its stages.
		if !ok || !strings.Contains(t.String(), "spatial_join") {
			continue
		}
		s.mu.Lock()
		for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
			d, n := t.StageTotal(st)
			s.nanos[st] += int64(d)
			s.count[st] += n
		}
		s.mu.Unlock()
	}
}

// totals copies what the sink has accumulated so far.
func (s *stageSink) totals() (nanos, count [telemetry.NumStages]int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nanos, s.count
}

// tracer is the traced run's collector: the spans the benchmark records
// around its own calls into each layer, the registries and per-query
// traces the program already exposes, and the per-layer metrics derived
// from both.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	ops   int
	rungs map[string][]float64 // rung name -> one duration (ns) per repetition

	regs  []*telemetry.Registry
	sink  *stageSink // traces of the served stack (DBs, coordinator)
	probe *stageSink // traces of the ladder's own sjoin-level calls

	values map[string]float64
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		rungs:  map[string][]float64{},
		sink:   newStageSink(),
		probe:  newStageSink(),
		values: map[string]float64{},
	}
}

// registry hands out a fresh metrics registry and remembers it; metric
// names are unique per registry, so every database, store and
// coordinator gets its own. Nil on the untraced run.
func (t *tracer) registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	reg := telemetry.New()
	t.mu.Lock()
	t.regs = append(t.regs, reg)
	t.mu.Unlock()
	return reg
}

// attachDB switches on a database's own instruments: the join counters
// and cache views on a registry, and a per-query trace on every join.
func (t *tracer) attachDB(db *spatialtf.DB) {
	if t == nil {
		return
	}
	db.EnableTelemetry(t.registry())
	db.SetTracer(t.sink.qt)
}

func (t *tracer) attachCoordinator(co *cluster.Coordinator) {
	if t == nil {
		return
	}
	co.SetTracer(t.sink.qt)
}

// counter sums a counter or gauge over every attached registry.
func (t *tracer) counter(name string) float64 {
	var v float64
	for _, reg := range t.regs {
		if p, ok := reg.Lookup(name); ok {
			v += p.Value
		}
	}
	return v
}

// histogram merges a histogram over every attached registry.
func (t *tracer) histogram(name string) (count int64, p50 float64) {
	for _, reg := range t.regs {
		if p, ok := reg.Lookup(name); ok && p.Count > 0 {
			count += p.Count
			p50 = p.Quantile(0.5) // one store per run has it
		}
	}
	return count, p50
}

func (t *tracer) set(name string, v float64) { t.values[name] = v }

// beginOp opens one ladder repetition and returns its root span.
func (t *tracer) beginOp(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: -1, Op: t.ops})
	return len(t.spans) - 1
}

func (t *tracer) endOp(root int) {
	t.mu.Lock()
	t.spans[root].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// rung runs fn 1+block times back to back as child spans of root and
// files the duration of each run but the first under the rung's name.
// The first run of a block pays for the garbage and cold caches the
// previous rung left; by the second the rung is in its own steady state,
// collector included.
func (t *tracer) rung(name string, root, block int, fn func() error) error {
	for i := 0; i <= block; i++ {
		start := time.Now()
		err := fn()
		d := time.Since(start)
		t.mu.Lock()
		s0 := int64(start.Sub(t.t0))
		t.spans = append(t.spans, span{Name: name, Start: s0, End: s0 + int64(d), Parent: root, Op: t.spans[root].Op})
		if i > 0 {
			t.rungs[name] = append(t.rungs[name], float64(d))
		}
		t.mu.Unlock()
		if err != nil {
			return fmt.Errorf("ladder rung %s: %w", name, err)
		}
	}
	return nil
}

// step is one rung of a ladder.
type step struct {
	name string
	fn   func() error
}

// climb runs a ladder: reps repetitions, each one op with a root span,
// each climbing the steps in order (see ladderShape for the counts).
func (t *tracer) climb(op string, rc runConfig, steps []step) error {
	reps, block := ladderShape(rc)
	for rep := 0; rep < reps; rep++ {
		root := t.beginOp(op)
		for _, s := range steps {
			if err := t.rung(s.name, root, block, s.fn); err != nil {
				return err
			}
		}
		t.endOp(root)
	}
	return nil
}

// med is a rung's median duration in nanoseconds (0 if it never ran).
func (t *tracer) med(name string) float64 { return median(t.rungs[name]) }

// procSample is the process-wide allocation and GC accounting.
type procSample struct {
	mallocs, bytes uint64
	gcCPU, cpu     float64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	p := procSample{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU, p.cpu = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return p
}

// runTraced is the per-layer run, in two halves. The first sets the
// workload up with none of the program's instruments attached, times it,
// and climbs the layer ladder on that stack: the same statements executed
// at each layer boundary from outside, a span around each call. The
// second sets it up again with every instrument the program exposes
// attached and times it again: its stage totals and counters are the
// per-layer numbers only the program can report, and the difference
// between the halves is the tracing overhead.
func runTraced(w *workload, rc runConfig, outDir string) (*report, error) {
	const half = 1.0 / 3 // of the run's statements and length, per half
	tr := newTracer()

	rc.tr = nil
	plain, err := setupAndWarm(w, rc)
	if err != nil {
		return nil, err
	}
	before := sampleProc()
	logA, wallA, err := timedPhase(plain, rc, half)
	after := sampleProc()
	if err == nil {
		err = plain.ladder(tr, rc)
	}
	plain.close()
	if err != nil {
		return nil, err
	}
	untraced := summarize(w, logA, wallA)
	// The tail percentiles over the untraced third of this run; the
	// untraced run prints them over its whole timed phase.
	tr.set("client.primary_tail_ms", untraced.tail[primary])
	tr.set("client.secondary_tail_ms", untraced.tail[secondary])
	if n := float64(untraced.stmts); n > 0 {
		tr.set("process.allocs_per_op", float64(after.mallocs-before.mallocs)/n)
		tr.set("process.alloc_kb_per_op", float64(after.bytes-before.bytes)/1024/n)
	}
	if cpu := after.cpu - before.cpu; cpu > 0 {
		tr.set("process.gc_cpu_share", (after.gcCPU-before.gcCPU)/cpu)
	}
	if wire := tr.values["ladder.wire_ms"]; wire > 0 && untraced.p50[primary] > 0 {
		tr.set("ladder.wire_vs_untraced_p50", wire/untraced.p50[primary])
		tr.set("geom.relate_share_of_stmt", tr.values["ladder.relate_ms"]/untraced.p50[primary])
	}

	rc.tr = tr
	inst, err := setupAndWarm(w, rc)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	if rows, ok := inst.sizes["rows_loaded_through_router"].(int); ok {
		tr.set("cluster.replication_factor", tr.counter("cluster_insert_replicas_total")/float64(rows))
	}
	base := tr.snapshot()
	log, wall, err := timedPhase(inst, rc, half)
	if err != nil {
		return nil, err
	}
	traced := summarize(w, log, wall)
	tr.servedMetrics(base, log)
	if untraced.p50[primary] > 0 {
		tr.set("telemetry.overhead_share", (traced.p50[primary]-untraced.p50[primary])/untraced.p50[primary])
	}

	v, err := inst.verify(log)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	for k, x := range v.extra {
		tr.set(k, x)
	}
	v.extra = nil

	rep := newReport(w, inst)
	for _, m := range perLayer {
		rep.Metrics[m.name] = metric{Value: tr.values[m.name], Unit: m.unit}
	}
	untraced.fill(rep.Info)
	untraced.fillTails(rep.Info)
	rep.addVerdict(log, v)
	rep.Attempted += logA.n
	rep.Failed += logA.failed
	rep.Notes = append(rep.Notes,
		"informational end-to-end numbers are from the short untraced half of this traced run; the untraced run is the one to quote",
		"sjoin stage times are summed over parallel instances, so sjoin.span_coverage can exceed 1 on a 2-worker plan")
	if rep.TraceFile, err = tr.write(outDir, w.name); err != nil {
		return nil, err
	}
	return rep, nil
}

// stageKey names a stage's accumulated nanoseconds in a snapshot.
func stageKey(st telemetry.Stage) string { return "stage_ns:" + st.String() }

// snapshot reads every counter and stage total servedMetrics later takes
// a delta of, so set-up and warm-up statements are in no per-layer figure.
func (t *tracer) snapshot() map[string]float64 {
	names := []string{
		"join_node_accesses_total", "join_candidates_total", "join_results_total",
		"geom_cache_hits_total", "geom_cache_misses_total",
		"pool_hits_total", "pool_misses_total", "pool_evictions_total", "wal_bytes_total",
		"checkpoints_total", "checkpoint_pages_total",
		"cluster_scatter_total", "cluster_scatter_shards_total",
	}
	snap := make(map[string]float64, len(names))
	for _, n := range names {
		snap[n] = t.counter(n)
	}
	fsyncs, _ := t.histogram("wal_fsync_seconds")
	snap["wal_fsyncs"] = float64(fsyncs)
	nanos, _ := t.sink.totals()
	for st, ns := range nanos {
		snap[stageKey(telemetry.Stage(st))] = float64(ns)
	}
	return snap
}

// servedMetrics turns what the program's own instruments saw during the
// traced timed phase into per-layer metrics.
func (t *tracer) servedMetrics(base map[string]float64, log *clientLog) {
	now := t.snapshot()
	d := func(name string) float64 { return now[name] - base[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	joins, userBytes := 0, 0.0
	for _, a := range log.answers {
		switch a.op.q.kind {
		case qJoin, qJoinCount:
			joins++
		case qInsert:
			userBytes += float64(a.op.q.bytes)
		}
	}
	if joins > 0 {
		for st, name := range map[telemetry.Stage]string{
			telemetry.StagePrimary:       "sjoin.primary_filter_ms",
			telemetry.StageSort:          "sjoin.candidate_sort_ms",
			telemetry.StageSecondary:     "sjoin.secondary_filter_ms",
			telemetry.StageGeomFetch:     "sjoin.geom_fetch_ms",
			telemetry.StageGridPartition: "sjoin.grid_partition_ms",
			telemetry.StageTileSweep:     "sjoin.tile_sweep_ms",
			telemetry.StageScatter:       "cluster.scatter_ms",
			telemetry.StageMerge:         "cluster.merge_ms",
		} {
			t.set(name, d(stageKey(st))/1e6/float64(joins))
		}
		t.set("sjoin.node_accesses", d("join_node_accesses_total")/float64(joins))
		t.set("sjoin.candidates_per_result", ratio(d("join_candidates_total"), d("join_results_total")))
		t.set("sjoin.geom_cache_hit_ratio", ratio(d("geom_cache_hits_total"), d("geom_cache_hits_total")+d("geom_cache_misses_total")))
	}
	t.set("pager.pool_hit_ratio", ratio(d("pool_hits_total"), d("pool_hits_total")+d("pool_misses_total")))
	t.set("pager.pool_evictions", d("pool_evictions_total"))
	t.set("pager.wal_bytes_per_user_byte", ratio(d("wal_bytes_total"), userBytes))
	t.set("pager.fsyncs", d("wal_fsyncs"))
	_, p50 := t.histogram("wal_fsync_seconds")
	t.set("pager.fsync_p50_ms", p50*1e3)
	t.set("pager.checkpoints", d("checkpoints_total"))
	t.set("pager.checkpoint_pages", d("checkpoint_pages_total"))
	t.set("cluster.shards_per_query", ratio(d("cluster_scatter_shards_total"), d("cluster_scatter_total")))
}

// write stores the spans and the rung medians as <workload>.trace.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	rungs := map[string]map[string]float64{}
	for name, v := range t.rungs {
		rungs[name] = map[string]float64{"median_ms": median(v) / 1e6, "repetitions": float64(len(v))}
	}
	doc := struct {
		Workload string                        `json:"workload"`
		Rungs    map[string]map[string]float64 `json:"rungs"`
		Spans    []span                        `json:"spans"`
	}{workload, rungs, t.spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	return path, os.WriteFile(path, raw, 0o644)
}
