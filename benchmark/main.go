// Command benchmark is the repository's end-to-end benchmark: five
// seeded workloads against the real serving stack (spatialtf.DB ->
// sqlmini -> server on loopback TCP -> wire.Client, plus a 3-shard
// cluster behind a router), every answer checked, every metric printed
// by name and unit. See README.md in this directory.
//
//	bash benchmark/run.sh --workload join_stream --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var rc runConfig
	var (
		name   = flag.String("workload", "", "workload to run (see -list)")
		trace  = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a trace file instead of end-to-end metrics")
		scale  = flag.String("scale", "full", "input sizes: full (the frozen benchmark sizes) or tiny (test-sized)")
		repeat = flag.Int("repeat", 0, "noise mode: run the workload this many times (>= 5) and report the spread of every end-to-end metric")
		list   = flag.Bool("list", false, "list the workloads and exit")
	)
	flag.Int64Var(&rc.seed, "seed", 1, "workload seed: data sets and statement lists are made from it")
	flag.Float64Var(&rc.seconds, "seconds", refSeconds, "run length: the statement count is scaled to it, and the timed phase is cut off there")
	flag.StringVar(&rc.workDir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for data directories")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "directory the traced run writes <workload>.trace.json to")
	flag.Parse()
	// The benchmark is defined at one processor. The reference host's
	// second vCPU comes and goes (for minutes at a time two threads get one
	// core between them, while a single thread always runs at full speed;
	// NOISE.md), so a run that needs two measures the host, and a run that
	// needs one measures the program: the CPU work and the waiting behind
	// each statement. Plans that depend on the worker count get it pinned
	// in the statement (joinDef.workers), not from here.
	runtime.GOMAXPROCS(benchProcs)

	if *list {
		for _, w := range workloads {
			note := ""
			if w.ungated {
				note = " (not in BENCHMARK.json: ungated)"
			}
			fmt.Printf("%-14s %s%s\n", w.name, w.why, note)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q (try -list)", *name))
	}
	switch *scale {
	case "full":
	case "tiny":
		rc.tiny = true
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	// The benchmark runs from the root of a checkout: the spec there
	// names the metrics this run must print.
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(rc.workDir, 0o755); err != nil {
		fatal(err)
	}
	if *repeat > 0 {
		if err := noiseMode(spec, w, rc, *repeat); err != nil {
			fatal(err)
		}
		return
	}

	var rep *report
	if *trace != 0 {
		rep, err = runTraced(w, rc, *outDir)
	} else {
		rep, err = runUntraced(w, rc)
	}
	if err != nil {
		fatal(err)
	}
	rep.Env = stampEnv(rc, *scale)
	if err := rep.print(os.Stdout, spec, *trace != 0); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is what one run found.
type report struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Classes   map[string]string `json:"statement_classes"`
	Env       map[string]any    `json:"env"`
	Sizes     map[string]any    `json:"sizes"`
	Metrics   map[string]metric `json:"metrics"`
	Info      map[string]metric `json:"informational,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checked   int               `json:"answers_checked"`
	// AnswerDigest folds every checked answer (row count and checksum)
	// into one number: equal seeds and statement caps give equal digests.
	AnswerDigest string `json:"answer_digest"`
	// FailedShare is errored, refused or wrong statements over attempted.
	FailedShare float64  `json:"failed_ops_share"`
	Notes       []string `json:"notes,omitempty"`
	Interaction []string `json:"interaction_notes"`
	TraceFile   string   `json:"trace_file,omitempty"`
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim any `json:"claim"`
}

// runUntraced is the end-to-end run: no instrument of the program is
// attached, and the per-layer ladder does not run.
func runUntraced(w *workload, rc runConfig) (*report, error) {
	rc.tr = nil
	// Set up five times and report the median: a single set-up is a
	// single sample of the noisiest thing a run measures.
	const setups = 5
	var setupS []float64
	var inst *instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = setupAndWarm(w, rc); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { inst.close() }()

	log, wall, err := timedPhase(inst, rc, 1)
	if err != nil {
		return nil, err
	}
	rep := newReport(w, inst)
	sum := summarize(w, log, wall)
	sum.fill(rep.Metrics)
	sum.fillTails(rep.Info)
	rep.Info["timed_phase_s"] = metric{Value: wall.Seconds(), Unit: "s", Samples: 1}
	rep.Metrics["setup_s"] = metric{Value: median(setupS), Unit: "s", Samples: setups}
	// Latency samples are folded into the summary; what the forced
	// collection leaves is the stack's own live heap (plus the statement
	// list, a constant).
	log.samples = [2][]sample{}
	rep.Metrics["heap_live_mb"] = metric{Value: heapLiveMB(), Unit: "MiB", Samples: 1}

	v, err := inst.verify(log)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	rep.addVerdict(log, v)
	return rep, nil
}

// setupAndWarm builds a workload's stack and runs the client's warm-up
// statements, so set-up time covers data generation, load, index build,
// server boot and warm-up.
func setupAndWarm(w *workload, rc runConfig) (*instance, error) {
	inst, err := w.setup(rc)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := warmUp(inst.addr, inst.plan); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

func newReport(w *workload, inst *instance) *report {
	inst.sizes[fmt.Sprintf("statements_per_%ds", refSeconds)] = inst.stmts
	return &report{
		Workload: w.name,
		Why:      w.why,
		Classes:  map[string]string{"primary": w.classes[primary], "secondary": w.classes[secondary]},
		Sizes:    inst.sizes,
		Metrics:  map[string]metric{},
		Info:     map[string]metric{},
		Interaction: []string{
			"Every workload is one closed-loop client on one connection, so nothing contends: a faster layer saves at most its self-time share of the statement, and stmts_per_s is the reciprocal of the mean statement time.",
			"window_lookup statements are tens of microseconds: CPU freed in any layer lifts stmts_per_s by that layer's share of the statement.",
			"ingest_mixed reads run between the writes on the same table, tree and buffer pool: a read-path change that costs the write path (or evicts its pages) moves primary_p50_ms, and the reverse moves secondary_p50_ms.",
			"cluster_mixed joins wait for all 3 shards: on the benchmark's one processor the sum of shard time sets primary_p50_ms; with a processor per shard it would be the slowest shard (per-shard skew, not mean shard time).",
		},
	}
}

func (r *report) addVerdict(log *clientLog, v verdict) {
	var digest uint64
	r.Attempted += log.n
	r.Failed += log.failed
	for _, e := range log.errs {
		r.Notes = append(r.Notes, "statement failed: "+e)
	}
	for _, a := range log.answers {
		digest = mix(digest ^ a.sum ^ uint64(a.rows))
	}
	r.AnswerDigest = fmt.Sprintf("%016x", digest)
	r.Attempted += v.checked
	r.Checked += v.checked
	r.Failed += v.wrong
	r.Notes = append(r.Notes, v.notes...)
	for k, x := range v.extra {
		r.Info[k] = metric{Value: x, Unit: perLayerUnit(k), Samples: 1}
	}
	for k, x := range v.stamp {
		r.Sizes[k] = x
	}
	if r.Attempted > 0 {
		r.FailedShare = float64(r.Failed) / float64(r.Attempted)
	}
}

// print writes the human-readable summary (a JSON document ending in
// "claim": null) and then, as the last line, the one-line result the
// benchmark contract asks for.
func (r *report) print(out io.Writer, spec *benchSpec, traced bool) error {
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %q of BENCHMARK.json was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %q measured in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		line.Metrics[m.Name] = metric{Value: got.Value, Unit: got.Unit}
	}
	pretty, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", pretty, last)
	return err
}
