package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/harness"
)

// smokePrograms is a three-program subset of each workload, small enough
// that one pass of every workload, traced, runs in a few seconds.
var smokePrograms = map[string][]string{
	"suite":   {"gzip", "mcf", "mgrid"},
	"figure5": {"gzip", "mcf", "mgrid"},
	"churn":   {"vpr", "crafty", "twolf"},
	"fuzz":    {"fuzz-1000000", "fuzz-1000001", "fuzz-1000002"},
}

func smokeConfig(t *testing.T, workload string) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.programs = smokePrograms[workload]
	cfg.passes, cfg.setupReps, cfg.layerRounds = 1, 1, 1
	cfg.traceOut = filepath.Join(t.TempDir(), "trace.json")
	return cfg
}

// TestSmokeEveryMetricPrinted runs one traced pass of a three-program subset
// of every workload and checks that each metric BENCHMARK.json names is
// printed with its unit, and that the result line carries the per-layer
// metrics.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if fmt.Sprint(listed) != fmt.Sprint(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", listed, workloadNames)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := smokeConfig(t, w)
			cfg.trace = true
			var out, errs bytes.Buffer
			if code := execute(cfg, "", &out, &errs); code != 0 {
				t.Fatalf("exit %d\n%s", code, errs.String())
			}
			text := out.String()
			for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
				line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m.Name) + ` +\S+  ` + regexp.QuoteMeta(m.Unit) + `( |$)`)
				if !line.MatchString(text) {
					t.Errorf("metric %s [%s] not printed", m.Name, m.Unit)
				}
			}
			lines := strings.Split(strings.TrimSpace(text), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("result %+v, want correct with no failures", res)
			}
			for _, m := range spec.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("result line: per-layer metric %s [%s] missing or mis-united (%+v)", m.Name, m.Unit, got)
				}
			}
			if _, err := os.Stat(cfg.traceOut); err != nil {
				t.Errorf("no trace written: %v", err)
			}
		})
	}
}

// TestCorruptedReferenceFails checks that verification has teeth: with one
// program's native reference corrupted, that program's op fails, failed_frac
// is one op in three, and the command exits nonzero.
func TestCorruptedReferenceFails(t *testing.T) {
	cfg := smokeConfig(t, "suite")
	cfg.corrupt = "mcf"
	jsonOut := filepath.Join(t.TempDir(), "out.json")
	var out, errs bytes.Buffer
	if code := execute(cfg, jsonOut, &out, &errs); code == 0 {
		t.Fatal("exit 0 with a corrupted reference")
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Error("result line does not say correct:false")
	}
	data, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var full map[string]map[string]jsonMetric
	if err := json.Unmarshal(data, &full); err != nil {
		t.Fatal(err)
	}
	if got := full["suite"]["failed_frac"].Value; got != 1.0/3 {
		t.Errorf("failed_frac = %v, want 1/3", got)
	}
}

// passResult is one untraced timed pass of a whole workload.
type passResult struct {
	b   *bench
	ph  *phase
	e2e []metric
}

var (
	passMu    sync.Mutex
	passCache = map[string]*passResult{}
)

// onePass sets up the whole workload and runs one timed pass with the given
// seed, caching the result for the other tests.
func onePass(t *testing.T, workload string, seed int64) *passResult {
	t.Helper()
	passMu.Lock()
	defer passMu.Unlock()
	key := fmt.Sprintf("%s/%d", workload, seed)
	if r := passCache[key]; r != nil {
		return r
	}
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.setupReps, cfg.passes = workload, seed, 1, 1
	b, setupS, err := prepare(cfg, nil, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	ph := b.runPhase(1, 0)
	if b.failed != 0 {
		t.Fatalf("%s: %d ops failed", workload, b.failed)
	}
	r := &passResult{b: b, ph: ph, e2e: b.endToEnd(ph, setupS)}
	passCache[key] = r
	return r
}

func value(t *testing.T, ms []metric, name string) float64 {
	t.Helper()
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("no metric %s", name)
	return 0
}

// TestSimMetricsIgnoreSeed checks that the seed only reorders ops: the
// simulated metrics and every count are identical under seeds 1 and 2.
func TestSimMetricsIgnoreSeed(t *testing.T) {
	for _, w := range []string{"suite", "figure5", "churn"} {
		a, b := onePass(t, w, 1), onePass(t, w, 2)
		for _, name := range []string{"sim_slowdown", "sim_slowdown_max"} {
			if va, vb := value(t, a.e2e, name), value(t, b.e2e, name); va != vb {
				t.Errorf("%s %s: seed 1 %v, seed 2 %v", w, name, va, vb)
			}
		}
		ca, cb := countMetrics(a.ph.passes[0]), countMetrics(b.ph.passes[0])
		for i := range ca {
			if ca[i] != cb[i] {
				t.Errorf("%s %s: seed 1 %v, seed 2 %v", w, ca[i].name, ca[i].value, cb[i].value)
			}
		}
	}
}

// TestSimSlowdownValues pins the simulated slowdown of each deterministic
// workload to four places.
func TestSimSlowdownValues(t *testing.T) {
	for w, want := range map[string]float64{"suite": 1.2403, "figure5": 1.1886, "churn": 2.5008} {
		if got := value(t, onePass(t, w, 1).e2e, "sim_slowdown"); math.Round(got*1e4)/1e4 != want {
			t.Errorf("%s sim_slowdown = %v, want %v to four places", w, got, want)
		}
	}
}

// figure5Artifact is the part of BENCH_figure5.json (written by
// cmd/drbench, not by this benchmark) the cross-checks read.
type figure5Artifact struct {
	Rows []struct {
		Benchmark  string
		Normalized []float64
	}
	Means struct{ All []float64 }
}

// TestCrossCheckFigure5 compares the figure5 workload with BENCH_figure5.json:
// the geomean over all 132 cells, and each configuration's geomean from the
// clients pass.
func TestCrossCheckFigure5(t *testing.T) {
	var art figure5Artifact
	readArtifact(t, "../BENCH_figure5.json", &art)
	var cells []float64
	for _, r := range art.Rows {
		cells = append(cells, r.Normalized...)
	}
	if len(cells) != 132 {
		t.Fatalf("BENCH_figure5.json has %d cells, want 132", len(cells))
	}
	r := onePass(t, "figure5", 1)
	got := value(t, r.e2e, "sim_slowdown")
	if want := geomean(cells); math.Abs(got-want) > 1e-9 {
		t.Errorf("sim_slowdown = %.12f, artifact geomean %.12f", got, want)
	}
	if math.Round(got*1e5)/1e5 != 1.18856 {
		t.Errorf("sim_slowdown = %v, want 1.18856", got)
	}
	ms := r.b.clientsMetrics()
	for c := harness.ConfigBase; c < harness.NumOptConfigs; c++ {
		name := "clients.sim_slowdown." + c.String()
		if got, want := value(t, ms, name), art.Means.All[c]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %.12f, BENCH_figure5.json means.all %.12f", name, got, want)
		}
	}
}

// TestCrossCheckChurn compares each churn program's slowdown with the "1k"
// column of BENCH_cachesweep.json.
func TestCrossCheckChurn(t *testing.T) {
	var art struct {
		Points []struct{ Name string }
		Rows   []struct {
			Benchmark  string
			Normalized []float64
		}
	}
	readArtifact(t, "../BENCH_cachesweep.json", &art)
	col := -1
	for i, p := range art.Points {
		if p.Name == "1k" {
			col = i
		}
	}
	if col < 0 {
		t.Fatal("BENCH_cachesweep.json has no 1k column")
	}
	want := map[string]float64{}
	for _, row := range art.Rows {
		want[row.Benchmark] = row.Normalized[col]
	}
	r := onePass(t, "churn", 1)
	seen := 0
	for _, res := range r.ph.passes[0] {
		for _, o := range res.runs {
			seen++
			got := float64(o.ticks) / float64(o.prog.ticks)
			if math.Abs(got-want[o.prog.name]) > 1e-9 {
				t.Errorf("churn %s slowdown %.12f, BENCH_cachesweep.json 1k %.12f", o.prog.name, got, want[o.prog.name])
			}
		}
	}
	if seen != len(churnPrograms) {
		t.Errorf("%d churn runs, want %d", seen, len(churnPrograms))
	}
}

func readArtifact(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
