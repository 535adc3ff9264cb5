// The benchmark-regression guard. CI runs these env-gated tests and fails on
// a >5% regression of either guarded series:
//
//   - BenchmarkFigure5's normalized overhead (simulated, fully
//     deterministic) over the -short benchmark subset, per configuration,
//     against the same benchmarks' rows of the committed BENCH_figure5.json;
//   - BenchmarkInterpreterHotLoop's throughput (internal/machine's guard
//     test), machine-normalized against a calibration kernel, against the
//     checked-in BENCH_baseline.json.
//
// After an intentional change, regenerate BENCH_figure5.json with
// drbench -diff verify -parallel 0 -json . and the hot-loop baseline with
//
//	BENCH_GUARD_WRITE=1 go test -run RegressionGuard -count=1 ./internal/machine/
package repro_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/guard"
	"repro/internal/harness"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// guardBenches is BenchmarkFigure5's -short subset: one workload per class
// regime (FP, indirect-heavy INT, large-footprint INT).
func guardBenches(tb testing.TB) []*workload.Benchmark {
	benches, err := workload.Select("mgrid", "crafty", "gcc")
	if err != nil {
		tb.Fatal(err)
	}
	return benches
}

// figure5Baseline returns, per Figure 5 configuration, the geomean
// normalized overhead of the guard subset's rows in the committed
// BENCH_figure5.json.
func figure5Baseline(t *testing.T, benches []*workload.Benchmark) map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile("BENCH_figure5.json")
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Points []struct{ Name string }
		Rows   []struct {
			Benchmark  string
			Normalized []float64
		}
	}
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]float64{}
	for _, r := range art.Rows {
		rows[r.Benchmark] = r.Normalized
	}
	base := map[string]float64{}
	for c, p := range art.Points {
		var xs []float64
		for _, b := range benches {
			if rows[b.Name] == nil {
				t.Fatalf("BENCH_figure5.json has no %s row", b.Name)
			}
			xs = append(xs, rows[b.Name][c])
		}
		base[p.Name] = harness.GeoMean(xs)
	}
	return base
}

// TestFigure5RegressionGuard fails when any Figure 5 configuration's
// geomean normalized overhead over the guard subset exceeds the same
// geomean over the committed BENCH_figure5.json by more than 5%. The metric
// is simulated, so any drift at all is a real change in emitted-code quality
// or runtime behaviour; the 5% band only keeps deliberate small trade-offs
// from failing before the artifact is regenerated.
func TestFigure5RegressionGuard(t *testing.T) {
	guard.Gate(t)
	var configs []oracle.Config
	for c := harness.ConfigBase; c < harness.NumOptConfigs; c++ {
		configs = append(configs, harness.Figure5Config(c))
	}
	benches := guardBenches(t)
	base := figure5Baseline(t, benches)
	if len(base) != len(configs) {
		t.Fatalf("BENCH_figure5.json has %d points, want %d", len(base), len(configs))
	}
	outs := verified(t, benches, configs...)
	for c, cfg := range configs {
		var xs []float64
		for i := c; i < len(outs); i += len(configs) {
			xs = append(xs, outs[i].Normalized())
		}
		got, want := harness.GeoMean(xs), base[cfg.Name]
		if got > want*1.05 {
			t.Errorf("figure5/%s: normalized overhead %.4f regressed >5%% over baseline %.4f", cfg.Name, got, want)
		}
		t.Logf("figure5/%s: %.4f (baseline %.4f)", cfg.Name, got, want)
	}
}

// TestTelemetryOverheadGuard pins the cost of full telemetry (histograms,
// watchdog, event ring, phase accounting) against the plain default
// configuration on the guard subset: the telemetry suite's two columns.
// Telemetry reads the clock but never charges it, so its simulated overhead
// is exactly zero (the suite's check already requires equal ticks per
// workload); the 1.05 band is the CI contract, and a failure means
// instrumentation started charging ticks.
func TestTelemetryOverheadGuard(t *testing.T) {
	guard.Gate(t)
	s, err := harness.NewSuite("telemetry", harness.SuiteParams{Benches: guardBenches(t)})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Check(outs); err != nil {
		t.Fatal(err)
	}
	g, err := s.Grid(outs, nil, []string{"telemetry", "default"})
	if err != nil {
		t.Fatal(err)
	}
	_, _, all := g.ClassMeans()
	ratio := all[0] / all[1]
	if ratio > 1.05 {
		t.Errorf("full telemetry costs %.4fx the plain default configuration (budget 1.05x)", ratio)
	}
	if ratio != 1.0 {
		t.Logf("telemetry-on/telemetry-off geomean ratio %.6f (telemetry never charges ticks; expected exactly 1.0)", ratio)
	}
}
