package harness_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestCacheSweep runs the merged cache sweep and eviction differential over
// every benchmark: 176 cells, each bit-identical to native. The suite's
// coverage check (which its view fails on) requires the 512-byte budget to
// evict, the pressured 4k/single-fragment/adaptive-from-2k columns to evict
// and regenerate on every benchmark, the unbounded cache never to evict and
// to report live bytes, and adaptive sizing to resize and end no slower than
// 512 bytes; here crafty and gzip must also resize under adaptive sizing.
func TestCacheSweep(t *testing.T) {
	g := view(t, "cachesweep", nil)
	if len(g.Rows) != len(workload.All()) || len(g.Configs) != 8 {
		t.Fatalf("%d rows x %d columns, want %d x 8", len(g.Rows), len(g.Configs), len(workload.All()))
	}
	adaptive := slices.Index(g.Configs, "adaptive")
	for _, r := range g.Rows {
		if (r.Case == "crafty" || r.Case == "gzip") && r.Cells[adaptive].Stats.CacheResizes == 0 {
			t.Errorf("%s: adaptive sizing never resized", r.Case)
		}
	}
	if out := harness.FormatCacheSweep(g); !strings.Contains(out, "evictions / regenerations / resizes") {
		t.Errorf("cache sweep view:\n%s", out)
	}
}

// TestIBLSweepShape asserts the acceptance claims of the IBL experiment:
// (a) the adaptive open-address table takes fewer trips through the
// dispatcher than the fixed direct-mapped baseline on the indirect-heavy
// benchmarks, and (b) flag-save elision reduces total simulated cycles on
// the flag-dead-heavy workloads relative to the same configuration with
// elision disabled.
func TestIBLSweepShape(t *testing.T) {
	g := view(t, "ibl", nil)
	if len(g.Rows) != len(workload.All()) {
		t.Fatalf("%d rows, want %d", len(g.Rows), len(workload.All()))
	}
	direct64 := slices.Index(g.Configs, "direct-64")
	adaptive := slices.Index(g.Configs, "adaptive-from-64")
	open256 := slices.Index(g.Configs, "open-256")
	noElide := slices.Index(g.Configs, "open-256-noelide")
	if direct64 < 0 || adaptive < 0 || open256 < 0 || noElide < 0 {
		t.Fatal("the ibl suite is missing a required config")
	}
	byName := map[string]harness.GridRow{}
	for _, r := range g.Rows {
		byName[r.Case] = r
	}

	// (a) The indirect-heavy analogues. gap's working set of indirect
	// targets happens to fit even the 64-entry direct-mapped table without
	// conflicts, so it is allowed to tie; the others must strictly improve,
	// and the group total must drop.
	var totalDirect, totalAdaptive uint64
	for _, name := range []string{"crafty", "eon", "perlbmk", "gap"} {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("no row for %s", name)
		}
		d := r.Cells[direct64].Stats.ContextSwitches
		a := r.Cells[adaptive].Stats.ContextSwitches
		totalDirect += d
		totalAdaptive += a
		if a > d {
			t.Errorf("%s: adaptive IBL context switches %d > direct-mapped %d", name, a, d)
		}
		if name != "gap" && a >= d {
			t.Errorf("%s: adaptive IBL context switches %d, want strictly below direct-mapped %d", name, a, d)
		}
	}
	if totalAdaptive >= totalDirect {
		t.Errorf("adaptive IBL context switches %d over the indirect-heavy group, want below direct-mapped %d",
			totalAdaptive, totalDirect)
	}

	// (b) Flag-save elision on the flag-dead-heavy workloads: same table,
	// only the prefix form differs.
	for _, name := range []string{"crafty", "eon", "perlbmk", "gap", "mesa"} {
		r := byName[name]
		with := r.Cells[open256].Ticks.Cycles()
		without := r.Cells[noElide].Ticks.Cycles()
		if with >= without {
			t.Errorf("%s: %d cycles with elision, want below %d without", name, with, without)
		}
		if r.Cells[open256].Stats.FlagsElisions == 0 {
			t.Errorf("%s: no fragments elided; the comparison is vacuous", name)
		}
	}
	_, _, means := g.ClassMeans()
	if means[open256] >= means[noElide] {
		t.Errorf("suite mean %0.4f with elision, want below %0.4f without", means[open256], means[noElide])
	}
	if means[adaptive] >= means[direct64] {
		t.Errorf("suite mean %0.4f with adaptive IBL, want below %0.4f direct-mapped", means[adaptive], means[direct64])
	}
}

// TestTelemetryMatrixCleanAndBitIdentical runs the telemetry suite over every
// workload with span export on. Its check is the experiment's headline
// guarantee: with every telemetry pillar on, each workload ends bit-identical
// to native, conserves phase ticks, costs exactly the default run's ticks,
// fills the block-build histogram and trips zero watchdog detections under
// the default thresholds (a false positive means a healthy workload would
// page someone). The combined stream must be one valid Chrome trace-event
// document with one process track per workload, and every telemetry cell
// must carry what the view's profile half reads: plausible ticks, phase
// ticks summing to them, profiled fragments sorted hottest first, drained
// events and a stats snapshot.
func TestTelemetryMatrixCleanAndBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix differential run")
	}
	var trace bytes.Buffer
	tw := obs.NewTraceWriter(&trace)
	s, err := harness.NewSuite("telemetry", harness.SuiteParams{TraceEvents: tw})
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
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("combined trace stream is not valid JSON: %v", err)
	}
	tracks := map[int]bool{}
	named := map[any]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "process_name" {
			tracks[ev.Pid], named[ev.Args["name"]] = true, true
		}
	}
	for _, c := range s.Cases {
		if !named[c.Name] {
			t.Errorf("no process track named %q", c.Name)
		}
	}
	if len(tracks) != len(s.Cases) {
		t.Errorf("trace stream has %d process tracks, want one per workload (%d)", len(tracks), len(s.Cases))
	}
	g, err := s.Grid(outs, nil, []string{"telemetry"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range s.Cases {
		names = append(names, c.Name)
	}
	checkTelemetryView(t, g, names)
}

// TestProfileExperiment runs the telemetry suite over three benchmarks and
// checks the cells the view's profile half reads, so the phase table and
// hottest-fragment report are checked by go test -short too. Tick
// conservation is part of every cell's oracle check, so here we check the
// report-facing shape.
func TestProfileExperiment(t *testing.T) {
	names := []string{"gzip", "crafty", "mgrid"}
	benches, err := workload.Select(names...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := harness.NewSuite("telemetry", harness.SuiteParams{Benches: benches})
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
	g, err := s.Grid(outs, nil, []string{"telemetry"})
	if err != nil {
		t.Fatal(err)
	}
	checkTelemetryView(t, g, names)
}

// checkTelemetryView checks a grid of the telemetry column, whose rows must
// be the named benchmarks in input order: plausible ticks, phase ticks
// summing to them, profiled fragments sorted hottest first, drained events,
// a stats snapshot, and a text view with its phase, fragment and histogram
// sections.
func checkTelemetryView(t *testing.T, g harness.Grid, names []string) {
	t.Helper()
	if len(g.Rows) != len(names) {
		t.Fatalf("%d rows, want %d", len(g.Rows), len(names))
	}
	for i, r := range g.Rows {
		o := r.Cells[0]
		if r.Case != names[i] {
			t.Errorf("row %d: benchmark %q, want %q (input order)", i, r.Case, names[i])
		}
		if o.Ticks == 0 || o.Normalized() <= 1.0 {
			t.Errorf("%s: implausible ticks %d (normalized %.3f)", r.Case, o.Ticks, o.Normalized())
		}
		if o.Phases == nil || o.Phases.Sum() != uint64(o.Ticks) {
			t.Errorf("%s: phase ticks %v do not sum to %d", r.Case, o.Phases, o.Ticks)
		}
		if len(o.Profiles) == 0 {
			t.Errorf("%s: no fragments profiled", r.Case)
		}
		if len(o.Events) == 0 {
			t.Errorf("%s: event ring enabled but no events drained", r.Case)
		}
		if o.Stats.BlocksBuilt == 0 {
			t.Errorf("%s: stats snapshot empty", r.Case)
		}
		top := obs.TopN(o.Profiles, harness.TopFragments)
		if len(top) == 0 || !sort.SliceIsSorted(top, func(a, b int) bool { return top[a].Ticks > top[b].Ticks }) {
			t.Errorf("%s: top fragments empty or not sorted by ticks", r.Case)
		}
	}
	out := harness.FormatTelemetry(g)
	for _, want := range []string{"Phase accounting", "crafty: hottest fragments", "Telemetry: distribution metrics"} {
		if !strings.Contains(out, want) {
			t.Errorf("telemetry view lacks %q:\n%s", want, out)
		}
	}
}
