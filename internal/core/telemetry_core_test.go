package core_test

// Live-telemetry integration: span export produces Perfetto-loadable
// trace-event JSON, the always-on histograms see the mechanisms they
// instrument, EvRecover appears in the ring at both recovery sites, the
// watchdog detects synthetic pathologies through the full runtime, and —
// the differential guarantee — every telemetry pillar switched on at once
// leaves the run bit-identical to native.

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// anomalyClient collects watchdog detections through the client hook.
type anomalyClient struct {
	anomalies []obs.Anomaly
}

func (c *anomalyClient) Name() string { return "anomaly-watch" }
func (c *anomalyClient) WatchdogAnomaly(r *core.RIO, a obs.Anomaly) {
	c.anomalies = append(c.anomalies, a)
}

func (c *anomalyClient) byKind(k obs.AnomalyKind) int {
	n := 0
	for _, a := range c.anomalies {
		if a.Kind == k {
			n++
		}
	}
	return n
}

// telemetryOpts is the everything-on configuration: profile, event ring,
// watchdog (histograms are always on; the trace-event writer is added per
// test because it needs a buffer).
func telemetryOpts() core.Options {
	opts := core.Default()
	opts.Profile = true
	opts.EventRing = 4096
	opts.Watchdog = true
	return opts
}

const telemetryRunLimit = 2_000_000

func TestTraceEventExportValidJSON(t *testing.T) {
	b := workload.ByName("crafty")
	if b == nil {
		t.Fatal("crafty not in suite")
	}
	var buf bytes.Buffer
	opts := telemetryOpts()
	tw := obs.NewTraceWriter(&buf)
	opts.TraceEvents = tw
	m := machine.New(machine.PentiumIV())
	r := core.New(m, b.Image(), opts, nil)
	if err := r.Run(telemetryRunLimit); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *uint64        `json:"ts"`
			Dur  *uint64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace-event output is not valid Chrome trace JSON: %v", err)
	}
	byName := map[string]int{}
	byPh := map[string]int{}
	for _, ev := range tr.TraceEvents {
		byName[ev.Name]++
		byPh[ev.Ph]++
		if ev.Name == "process_name" && (ev.Pid != 1 || ev.Args["name"] != "crafty") {
			t.Errorf("process track pid %d named %v, want pid 1 named after the image", ev.Pid, ev.Args["name"])
		}
		if ev.Ph == "X" && (ev.Ts == nil || ev.Dur == nil) {
			t.Errorf("complete event %q missing ts/dur", ev.Name)
		}
	}
	for _, want := range []string{"process_name", "thread_name", "dispatch", "block-build", "cache-bytes"} {
		if byName[want] == 0 {
			t.Errorf("no %q events in the export (names seen: %v)", want, byName)
		}
	}
	if byName["dispatch"] != int(r.Stats.ContextSwitches) {
		t.Errorf("dispatch spans = %d, context switches = %d",
			byName["dispatch"], r.Stats.ContextSwitches)
	}
	if byName["block-build"] != int(r.Stats.BlocksBuilt) {
		t.Errorf("block-build spans = %d, blocks built = %d",
			byName["block-build"], r.Stats.BlocksBuilt)
	}
	if r.Stats.TracesBuilt > 0 && byName["trace-build"] == 0 {
		t.Error("traces were built but no trace-build spans exported")
	}
	if r.Stats.Links > 0 && byName["link"] == 0 {
		t.Error("links happened but no link instants exported")
	}
	if byPh["X"] == 0 || byPh["M"] == 0 || byPh["C"] == 0 {
		t.Errorf("phase population = %v, want X, M and C events", byPh)
	}
}

func TestHistogramsSeeTheMechanisms(t *testing.T) {
	b := workload.ByName("crafty")
	if b == nil {
		t.Fatal("crafty not in suite")
	}
	opts := telemetryOpts()
	opts.BBCacheSize = 1024 // bounded and tight: exercise the eviction metrics
	m := machine.New(machine.PentiumIV())
	r := core.New(m, b.Image(), opts, nil)
	if err := r.Run(telemetryRunLimit); err != nil && err != machine.ErrLimit {
		t.Fatal(err)
	}
	h := r.Histograms()
	if got := h[obs.MetricBlockBuildTicks].Count(); got != r.Stats.BlocksBuilt {
		t.Errorf("block-build samples = %d, blocks built = %d", got, r.Stats.BlocksBuilt)
	}
	if got := h[obs.MetricTraceBlocks].Count(); got != r.Stats.TracesBuilt {
		t.Errorf("trace-blocks samples = %d, traces built = %d", got, r.Stats.TracesBuilt)
	}
	if h[obs.MetricIBLProbeLen].Count() == 0 {
		t.Error("no IBL probe-length samples despite indirect linking")
	}
	if r.Stats.Evictions > 0 {
		if got := h[obs.MetricEvictScrubBytes].Count(); got != r.Stats.Evictions {
			t.Errorf("scrub-size samples = %d, evictions = %d", got, r.Stats.Evictions)
		}
		if got := h[obs.MetricFragLifetimeEpochs].Count(); got != r.Stats.Evictions {
			t.Errorf("lifetime samples = %d, evictions = %d", got, r.Stats.Evictions)
		}
	} else {
		t.Log("no evictions under 4 KiB cache; eviction metrics unexercised")
	}
	sums := h.Summaries()
	for _, s := range sums {
		if s.Count > 0 && s.P50 > s.Max {
			t.Errorf("%s: p50 %d exceeds max %d", s.Name, s.P50, s.Max)
		}
	}
}

func TestNativeWindowHistogram(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 30
outer:
    mov edx, 600
inner:
    dec edx
    jnz inner
    dec ecx
    jnz outer
`+exitSnippet)
	opts := telemetryOpts()
	opts.Chaos = dispatchFaults(chaos.Trigger{Nth: 5})
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, opts, nil)
	if err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	h := r.Histograms()
	if got, want := h[obs.MetricNativeWindowLen].Count(), r.Stats.NativeWindows; got != want {
		t.Errorf("native-window samples = %d, windows = %d", got, want)
	}
	if mx := h[obs.MetricNativeWindowLen].Quantile(1.0); mx > core.NativeWindowBudget {
		t.Errorf("window length %d exceeds the %d-instruction budget", mx, core.NativeWindowBudget)
	}
}

func TestEvRecoverInRing(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 8
outer:
    mov eax, 3
    mov ebx, ecx
    int 0x80
    dec ecx
    jnz outer
`+exitSnippet)
	opts := telemetryOpts()
	opts.Chaos = dispatchFaults(chaos.Trigger{Nth: 6})
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, opts, nil)
	if err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	if r.Stats.Recoveries == 0 {
		t.Fatal("injected failure did not recover")
	}
	recovers := 0
	for _, ev := range r.Tracer().Drain() {
		if ev.Type == obs.EvRecover {
			recovers++
			if ev.Note == "" {
				t.Error("recover event missing its cause note")
			}
		}
	}
	if recovers != int(r.Stats.Recoveries) {
		t.Errorf("ring has %d recover events, Stats.Recoveries = %d", recovers, r.Stats.Recoveries)
	}
}

// TestWatchdogDetectsEvictionThrash forces genuine cache thrash — a cache
// one fragment wide, so every rebuild regenerates an evicted tag — and
// requires the watchdog to fire through the full runtime path: counter,
// ring event, client hook.
func TestWatchdogDetectsEvictionThrash(t *testing.T) {
	b := workload.ByName("crafty")
	if b == nil {
		t.Fatal("crafty not in suite")
	}
	cl := &anomalyClient{}
	opts := telemetryOpts()
	opts.BBCacheSize, opts.TraceCacheSize = 256, 256
	m := machine.New(machine.PentiumIV())
	r := core.New(m, b.Image(), opts, nil, cl)
	// Thrash makes the run slow by design; stopping at the limit is fine —
	// the pathology only needs to persist long enough to be seen.
	if err := r.Run(telemetryRunLimit); err != nil && err != machine.ErrLimit {
		t.Fatal(err)
	}
	if r.Stats.Evictions == 0 {
		t.Fatal("one-fragment caches produced no evictions")
	}
	if n := cl.byKind(obs.AnomalyEvictionThrash); n == 0 {
		t.Errorf("no eviction-thrash detection (anomalies: %v; %d evictions, %d regens)",
			cl.anomalies, r.Stats.Evictions, r.Stats.Regenerations)
	}
	if r.Stats.Anomalies == 0 {
		t.Error("Stats.Anomalies stayed zero")
	}
	// (The EvAnomaly ring event is asserted in the flap test below: here
	// the thrashing run floods the ring and wraps the anomaly out long
	// before the final drain.)
	if uint64(len(cl.anomalies)) != r.Stats.Anomalies {
		t.Errorf("client saw %d anomalies, Stats.Anomalies = %d", len(cl.anomalies), r.Stats.Anomalies)
	}
}

// TestWatchdogDetectsQuarantineFlap drives the ladder through repeated
// fail-burst/cool-down rounds on a two-tag loop: each burst bars the loop
// tags, each quiet stretch re-attaches the thread and forgives them, and
// the watchdog must call the recurrence what it is.
func TestWatchdogDetectsQuarantineFlap(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 400
outer:
    mov edx, 700
inner:
    dec edx
    jnz inner
    dec ecx
    jnz outer
`+exitSnippet)
	cl := &anomalyClient{}
	opts := telemetryOpts()
	// A burst of nine failures (dispatch hits 4–12) every 60 dispatches,
	// quiet between.
	var bursts []chaos.Trigger
	for start := uint64(4); start < 60_000; start += 60 {
		bursts = append(bursts, chaos.Trigger{Nth: start, MaxFires: 9})
	}
	opts.Chaos = dispatchFaults(bursts...)
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, opts, nil, cl)
	if err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	if r.Stats.Reattaches == 0 {
		t.Fatal("no re-attaches: the flap scenario never formed")
	}
	if n := cl.byKind(obs.AnomalyQuarantineFlap); n == 0 {
		t.Errorf("no quarantine-flap detection (anomalies: %v; %d recoveries, %d reattaches)",
			cl.anomalies, r.Stats.Recoveries, r.Stats.Reattaches)
	}
	anomalyEvents := 0
	for _, ev := range r.Tracer().Drain() {
		if ev.Type == obs.EvAnomaly {
			anomalyEvents++
			if ev.Kind != obs.AnomalyQuarantineFlap.String() {
				t.Errorf("anomaly event kind = %q", ev.Kind)
			}
		}
	}
	if anomalyEvents == 0 {
		t.Error("no EvAnomaly events survived in the ring")
	}
}

// TestAllTelemetryBitIdenticalToNative is the differential guarantee at the
// core level: histograms + span export + event ring + profile + watchdog all
// on, architectural endpoint identical to the native run. (The 22-workload
// matrix version lives in the harness tests.)
func TestAllTelemetryBitIdenticalToNative(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 50
outer:
    mov eax, 3
    mov ebx, ecx
    int 0x80
    mov edx, 400
inner:
    dec edx
    jnz inner
    dec ecx
    jnz outer
`+exitSnippet)
	native := nativeOracle(t, img, nil)

	var buf bytes.Buffer
	opts := telemetryOpts()
	tw := obs.NewTraceWriter(&buf)
	opts.TraceEvents = tw
	opts.BBCacheSize = 4096
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, opts, nil)
	if err := r.Run(80_000_000); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	got := oracle.Capture(m)
	if msg := oracle.Mismatch(native, got); msg != "" {
		t.Errorf("all-telemetry-on run diverged from native:\n%s", msg)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("trace-event stream not valid JSON after Close")
	}
	_ = r
}
