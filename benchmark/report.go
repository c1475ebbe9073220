package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the root of a checkout: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// summary is the timed phase reduced to the end-to-end metrics.
type summary struct {
	p50, tail [2]float64
	n         [2]int
	rowsPerS  float64
	stmtsPerS float64
	stmts     int
}

// summarize reduces the whole timed phase: the median and the tail
// percentile of every statement of a class, and work divided by wall
// time. Nothing is trimmed or windowed.
func summarize(w *workload, log *clientLog, wall time.Duration) summary {
	var s summary
	var rows int
	for class := range 2 {
		lat := make([]int64, 0, len(log.samples[class]))
		for _, x := range log.samples[class] {
			lat = append(lat, x.lat)
			if class == primary {
				rows += int(x.rows)
			}
		}
		slices.Sort(lat)
		s.n[class] = len(lat)
		s.p50[class], s.tail[class] = percentile(lat, 50), percentile(lat, w.tail[class])
	}
	s.stmts = s.n[primary] + s.n[secondary]
	s.rowsPerS = float64(rows) / wall.Seconds()
	s.stmtsPerS = float64(s.stmts) / wall.Seconds()
	return s
}

// fill stores the gated end-to-end metrics: medians and rates, which a
// burst of a noisy neighbour moves little.
func (s summary) fill(m map[string]metric) {
	m["primary_p50_ms"] = metric{s.p50[primary], "ms", s.n[primary]}
	m["secondary_p50_ms"] = metric{s.p50[secondary], "ms", s.n[secondary]}
	m["primary_rows_per_s"] = metric{s.rowsPerS, "rows/s", s.n[primary]}
	m["stmts_per_s"] = metric{s.stmtsPerS, "stmt/s", s.stmts}
}

// fillTails stores the tail percentiles (p90 or p99, workload.tail). They are reported and not gated: on a shared host a p90
// of a hundred statements is whatever share of the run a neighbour's
// burst covered (two sets of ten runs of one commit spread 21 to 28 %),
// so ISSUE 11's rule demotes them to the ungated metrics.
func (s summary) fillTails(m map[string]metric) {
	m["primary_tail_ms"] = metric{s.tail[primary], "ms", s.n[primary]}
	m["secondary_tail_ms"] = metric{s.tail[secondary], "ms", s.n[secondary]}
}

// commit is the repository commit the driver was built from; run.sh sets
// it with -ldflags -X when the checkout is a git repository.
var commit = "unknown"

// stampEnv records where and how the numbers were taken.
func stampEnv(rc runConfig, scale string) map[string]any {
	env := map[string]any{
		"commit":     commit,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), // benchProcs, whatever nproc is
		"cpu_model":  cpuModel(),
		"seed":       rc.seed,
		"scale":      scale,
		"seconds":    rc.seconds,
		"clients":    1,
		"loop":       "closed: the client sends its next statement when the previous one is fully drained; no send schedule, so no generator lateness",
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// noiseMode runs the workload k times in child processes, each with
// another seed, and prints the spread of every end-to-end metric as a
// markdown table. The spread is the interquartile range over the median
// (Python's statistics.quantiles(n=4), the rule the acceptance check
// uses); it fails when a spread exceeds the metric's bound.
func noiseMode(spec *benchSpec, w *workload, rc runConfig, k int) error {
	if k < 5 {
		return fmt.Errorf("-repeat needs at least 5 runs, got %d", k)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < k; i++ {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(rc.seed+int64(i), 10),
			"-seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64), "-workdir", rc.workDir}
		if rc.tiny {
			args = append(args, "-scale", "tiny")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var line struct {
			Correct bool              `json:"correct"`
			Failed  int               `json:"failed"`
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		if !line.Correct {
			return fmt.Errorf("run %d (seed %d): %d failed operations", i, rc.seed+int64(i), line.Failed)
		}
		for name, m := range line.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	fmt.Printf("### %s: %d runs of %g s, seeds %d..%d\n\n", w.name, k, rc.seconds, rc.seed, rc.seed+int64(k)-1)
	fmt.Println("| metric | unit | min | q1 | median | q3 | max | IQR/median | bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	var over []string
	for _, m := range spec.EndToEnd {
		v := values[m.Name]
		slices.Sort(v)
		q1, q2, q3 := quartiles(v)
		spread := (q3 - q1) / q2
		fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.4g | %.4g | %.1f%% | %.0f%% |\n",
			m.Name, m.Unit, v[0], q1, q2, q3, v[len(v)-1], 100*spread, 100*m.Bound)
		if spread > m.Bound {
			over = append(over, fmt.Sprintf("%s %.1f%% > %.0f%%", m.Name, 100*spread, 100*m.Bound))
		}
	}
	fmt.Println()
	if len(over) > 0 {
		return fmt.Errorf("%s: spread exceeds the bound: %s", w.name, strings.Join(over, "; "))
	}
	return nil
}

// quartiles are the exclusive-method quartiles of sorted data, as
// Python's statistics.quantiles(data, n=4) computes them.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(2), at(3)
}
