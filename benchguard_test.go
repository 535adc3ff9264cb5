// The benchmark-regression guard. CI runs these env-gated tests against the
// checked-in BENCH_baseline.json and fails on a >5% regression of either
// guarded series:
//
//   - BenchmarkFigure5's normalized overhead (simulated, fully
//     deterministic) over the -short benchmark subset, per configuration;
//   - BenchmarkInterpreterHotLoop's throughput (internal/machine's guard
//     test), machine-normalized against a calibration kernel.
//
// Regenerate the baseline after an intentional performance change with
//
//	BENCH_GUARD_WRITE=1 go test -run RegressionGuard -count=1 . ./internal/machine/
package repro_test

import (
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

// TestFigure5RegressionGuard fails when any Figure 5 configuration's
// geomean normalized overhead over the guard subset exceeds the checked-in
// baseline by more than 5%. The metric is simulated, so any drift at all is
// a real change in emitted-code quality or runtime behaviour; the 5% band
// only keeps deliberate small trade-offs from needing a baseline dance.
func TestFigure5RegressionGuard(t *testing.T) {
	guard.Gate(t)
	var configs []oracle.Config
	for c := harness.ConfigBase; c < harness.NumOptConfigs; c++ {
		configs = append(configs, harness.Figure5Config(c))
	}
	outs := verified(t, guardBenches(t), configs...)
	measured := map[string]float64{}
	for c, cfg := range configs {
		var xs []float64
		for i := c; i < len(outs); i += len(configs) {
			xs = append(xs, outs[i].Normalized())
		}
		measured[cfg.Name] = harness.GeoMean(xs)
	}

	base := guard.Load(t, "BENCH_baseline.json")
	if guard.WriteMode() {
		base.Figure5Geomean = measured
		guard.Save(t, "BENCH_baseline.json", base)
		return
	}
	if len(base.Figure5Geomean) == 0 {
		t.Fatal("baseline has no figure5 series; regenerate with BENCH_GUARD_WRITE=1")
	}
	for cfg, want := range base.Figure5Geomean {
		got, ok := measured[cfg]
		if !ok {
			t.Errorf("baseline config %q no longer measured", cfg)
			continue
		}
		if got > want*1.05 {
			t.Errorf("figure5/%s: normalized overhead %.4f regressed >5%% over baseline %.4f", cfg, got, want)
		}
		t.Logf("figure5/%s: %.4f (baseline %.4f)", cfg, got, want)
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
