package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinyConfig caps the client at a fixed statement count, so two runs
// with one seed do exactly the same work.
func tinyConfig(t *testing.T, seed int64) runConfig {
	t.Helper()
	return runConfig{seed: seed, seconds: 60, tiny: true, maxOps: 60, workDir: t.TempDir()}
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// lastLine prints the report as the command would and decodes the
// one-line result the benchmark contract asks for.
func lastLine(t *testing.T, rep *report, spec *benchSpec, traced bool) map[string]metric {
	t.Helper()
	rep.Env = stampEnv(runConfig{}, "tiny")
	var out bytes.Buffer
	if err := rep.print(&out, spec, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if summary := strings.Join(lines[:len(lines)-1], "\n"); !strings.HasSuffix(summary, "\"claim\": null\n}") {
		t.Errorf("the summary does not end with a null claim:\n%s", summary[max(0, len(summary)-80):])
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Errorf("result line has keys %s", got)
	}
	var metrics map[string]metric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	return metrics
}

// TestWorkloadsTiny runs all five workloads, untraced and traced, at
// test size: every metric BENCHMARK.json names comes out under its unit
// (print refuses otherwise), every check passes, a trace is written, and
// the same seed gives the same answers and the same work counts.
func TestWorkloadsTiny(t *testing.T) {
	spec := testSpec(t)
	var gated []string
	for _, w := range workloads {
		if !w.ungated {
			gated = append(gated, w.name)
		}
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if got, want := strings.Join(listed, ","), strings.Join(gated, ","); got != want {
		t.Errorf("BENCHMARK.json lists workloads %s, the benchmark gates %s", got, want)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the tracer emits %d", len(spec.PerLayer), len(perLayer))
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep, err := runUntraced(w, tinyConfig(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Checked == 0 {
				t.Errorf("%d failed of %d attempted, %d checked: %v", rep.Failed, rep.Attempted, rep.Checked, rep.Notes)
			}
			for name, m := range lastLine(t, rep, spec, false) {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			again, err := runUntraced(w, tinyConfig(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if rep.AnswerDigest != again.AnswerDigest || rep.Checked != again.Checked {
				t.Errorf("same seed, different answers: digest %s (%d checked) vs %s (%d checked)",
					rep.AnswerDigest, rep.Checked, again.AnswerDigest, again.Checked)
			}

			var traced [2]map[string]metric
			for k := range traced {
				out := t.TempDir()
				rep, err := runTraced(w, tinyConfig(t, 1), out)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failed != 0 {
					t.Errorf("traced run: %d failed: %v", rep.Failed, rep.Notes)
				}
				traced[k] = lastLine(t, rep, spec, true)
				checkTrace(t, rep.TraceFile)
			}
			for _, name := range []string{"sjoin.candidates_per_result", "rtree.nodes_per_lookup",
				"wire.round_trips_per_stmt", "cluster.shards_per_query", "cluster.replication_factor"} {
				if a, b := traced[0][name].Value, traced[1][name].Value; a != b {
					t.Errorf("count metric %s differs between same-seed runs: %v vs %v", name, a, b)
				}
			}
			layerPresence(t, w.name, traced[0])
		})
	}
}

// layerPresence asserts the workload design: the layers a workload
// exists to bypass really are absent from it.
func layerPresence(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	for name, x := range m {
		layer, _, _ := strings.Cut(name, ".")
		var want bool
		switch layer {
		case "pager":
			want = workload == "ingest_mixed"
		case "cluster":
			want = workload == "cluster_mixed"
		case "sjoin":
			want = workload != "window_lookup" && workload != "ingest_mixed"
		default:
			continue
		}
		if !want && x.Value != 0 {
			t.Errorf("%s = %v on %s, want 0: the layer should not run there", name, x.Value, workload)
		}
	}
	must := map[string][]string{
		"ingest_mixed":  {"pager.pool_evictions", "pager.checkpoints", "pager.reopen_s", "pager.space_amp", "storage.insert_us_per_row", "rtree.insert_us_per_row"},
		"cluster_mixed": {"cluster.scatter_ms", "cluster.shards_per_query", "cluster.replication_factor"},
		"join_stream":   {"sjoin.join_ms", "sjoin.grid_partition_ms", "sjoin.tile_sweep_ms", "geom.relate_us_per_call", "wire.codec_ms", "sqlmini.self_ms"},
		"join_refine":   {"sjoin.join_ms", "sjoin.secondary_filter_ms", "geom.relate_us_per_call"},
		"window_lookup": {"rtree.search_us_per_lookup", "rtree.nodes_per_lookup", "extidx.relate_us_per_lookup", "geom.wkt_parse_us"},
	}
	for _, name := range must[workload] {
		if m[name].Value == 0 {
			t.Errorf("%s = 0 on %s, want it measured", name, workload)
		}
	}
}

// checkTrace asserts the trace file's shape: every span names its op,
// ends after it starts, and points at a root span of the same op.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	var doc struct {
		Spans []span `json:"spans"`
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for i, s := range doc.Spans {
		if s.End < s.Start || s.Op == 0 || s.Name == "" {
			t.Fatalf("span %d is malformed: %+v", i, s)
		}
		if s.Parent >= 0 && (doc.Spans[s.Parent].Parent != -1 || doc.Spans[s.Parent].Op != s.Op) {
			t.Fatalf("span %d does not hang off the root of its op: %+v", i, s)
		}
	}
}

// TestSameSeedSameStatements: a seed fixes every client's statement list
// byte for byte, and another seed changes it.
func TestSameSeedSameStatements(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			texts := func(seed int64) []string {
				inst, err := w.setup(tinyConfig(t, seed))
				if err != nil {
					t.Fatal(err)
				}
				defer inst.close()
				var out []string
				for i := 0; i < 150; i++ {
					out = append(out, inst.plan.src(i).sql)
				}
				return out
			}
			a, b, c := texts(7), texts(7), texts(8)
			if strings.Join(a, "\n") != strings.Join(b, "\n") {
				t.Error("the same seed gave different statement lists")
			}
			if strings.Join(a, "\n") != strings.Join(c, "\n") {
				return
			}
			// The join workloads repeat fixed statements; there the seed
			// makes the data, so it must change the answers.
			digest := func(seed int64) string {
				rc := tinyConfig(t, seed)
				rc.maxOps = 2
				rep, err := runUntraced(w, rc)
				if err != nil {
					t.Fatal(err)
				}
				return rep.AnswerDigest
			}
			if digest(7) == digest(8) {
				t.Error("different seeds gave the same statements and the same answers")
			}
		})
	}
}

// TestVerifierCanFail proves the checker can fail: an honest answer
// passes, and the same answer with one pair or one window row dropped
// drives failed_ops_share above zero.
func TestVerifierCanFail(t *testing.T) {
	world := rectWKT(0, 0, 1000, 1000) // every star interacts with it
	cases := []struct {
		workload string
		stmt     func(inst *instance) op
	}{
		{"join_stream", func(inst *instance) op { return *inst.plan.src(0) }},
		{"window_lookup", func(*instance) op {
			return op{
				sql:   fmt.Sprintf("SELECT id FROM stars WHERE sdo_relate(geom, '%s', 'mask=anyinteract') = 'TRUE'", world),
				check: true,
				q:     query{kind: qRelate, table: "stars", wkt: world, g: mustWKT(world)},
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			w := findWorkload(c.workload)
			inst, err := w.setup(tinyConfig(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			stmt := c.stmt(inst)
			log, _, err := runClient(inst.addr, clientPlan{src: cycle([]op{stmt})}, time.Minute, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(log.answers) != 1 || log.answers[0].rows < 2 {
				t.Fatalf("fixture answer: %+v", log.answers)
			}
			share := func() float64 {
				v, err := inst.verify(log)
				if err != nil {
					t.Fatal(err)
				}
				rep := newReport(w, inst)
				rep.addVerdict(log, v)
				return rep.FailedShare
			}
			if got := share(); got != 0 {
				t.Fatalf("honest answer: failed_ops_share = %v", got)
			}
			// Drop one row: its count and its share of the checksum.
			log.answers[0].rows--
			log.answers[0].sum -= 0x9e3779b97f4a7c15
			if got := share(); got <= 0 {
				t.Errorf("answer with a dropped row: failed_ops_share = %v, want > 0", got)
			}
		})
	}
}

// TestSummarizeKeepsTheWholeRun: a stall that hits two statements in a
// hundred is in the tail percentile, and rates are work over wall time.
func TestSummarizeKeepsTheWholeRun(t *testing.T) {
	log := &clientLog{}
	for i := 0; i < 100; i++ {
		lat := time.Millisecond
		if i == 40 || i == 41 {
			lat = 100 * time.Millisecond // one checkpoint's worth of stall
		}
		log.samples[primary] = append(log.samples[primary], sample{lat: int64(lat), rows: 3})
	}
	w := &workload{tail: [2]float64{99, 99}}
	s := summarize(w, log, 2*time.Second)
	if s.p50[primary] != 1 || s.tail[primary] != 100 {
		t.Errorf("p50 = %v ms, p99 = %v ms, want 1 and 100", s.p50[primary], s.tail[primary])
	}
	if s.n[primary] != 100 || s.stmtsPerS != 50 || s.rowsPerS != 150 {
		t.Errorf("n = %d, %v stmt/s, %v rows/s, want 100, 50, 150", s.n[primary], s.stmtsPerS, s.rowsPerS)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// = [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
