package harness

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// The Telemetry experiment: every observability pillar switched on at once —
// phase accounting, distribution histograms, the event ring, the pathology
// watchdog, and (optionally) span export — with the differential guarantee
// checked per benchmark: the instrumented run must end bit-identical to a
// native run of the same program through the internal/oracle capture. It is
// the live-telemetry analogue of the profile suite: the profile answers
// "where did the cycles go", Telemetry answers "how did the mechanisms
// behave, and did anything pathological happen".

// TelemetryRow is one benchmark's full-telemetry measurement.
type TelemetryRow struct {
	Benchmark  string
	Class      workload.Class
	Ticks      machine.Ticks
	Normalized float64

	// Histograms digests the runtime's distribution metrics, in
	// obs.Metric order.
	Histograms []obs.HistogramSummary

	// Anomalies are the watchdog detections fired during the run (empty
	// on every healthy workload — the zero-false-positive property the
	// tests pin across the default matrix).
	Anomalies []obs.Anomaly

	Stats core.Stats
}

// telemetryCollector gathers watchdog detections through the client hook.
type telemetryCollector struct {
	anomalies []obs.Anomaly
}

func (c *telemetryCollector) Name() string { return "telemetry-collector" }
func (c *telemetryCollector) WatchdogAnomaly(r *core.RIO, a obs.Anomaly) {
	c.anomalies = append(c.anomalies, a)
}

// runTelemetry measures one benchmark with all telemetry on and verifies the
// differential guarantee against a fresh native run. It is not a
// differential suite because each benchmark's spans need their own
// TraceEventPID, which a case-blind oracle.Config cannot set.
func runTelemetry(b *workload.Benchmark, tw *obs.TraceWriter, pid int) (TelemetryRow, error) {
	row := TelemetryRow{Benchmark: b.Name, Class: b.Class}

	nm := machine.New(machine.PentiumIV())
	b.Image().Boot(nm)
	if err := nm.Run(oracle.RunLimit); err != nil {
		return row, fmt.Errorf("telemetry: native %s: %v", b.Name, err)
	}
	nativeTicks := nm.Ticks
	native := oracle.Capture(nm)

	cl := &telemetryCollector{}
	opts := core.Default()
	opts.Profile = true
	opts.EventRing = 4096
	opts.Watchdog = true
	if tw != nil {
		opts.TraceEvents = tw
		opts.TraceEventPID = pid
		opts.TraceEventProcess = "bench:" + b.Name
	}
	m := machine.New(machine.PentiumIV())
	r := core.New(m, b.Image(), opts, nil, cl)
	if err := r.Run(oracle.RunLimit); err != nil {
		return row, fmt.Errorf("telemetry: %s: %v", b.Name, err)
	}

	// The differential guarantee: all telemetry on, architectural endpoint
	// bit-identical to native.
	if msg := oracle.Mismatch(native, oracle.Capture(m)); msg != "" {
		return row, fmt.Errorf("telemetry: %s: instrumented run diverged from native:\n%s", b.Name, msg)
	}
	// And the phase breakdown still conserves ticks.
	phases := r.PhaseTicks()
	if sum := phases.Sum(); sum != uint64(m.Ticks) {
		return row, fmt.Errorf("telemetry: %s: phase ticks not conserved: sum %d != machine ticks %d",
			b.Name, sum, m.Ticks)
	}

	row.Ticks = m.Ticks
	row.Normalized = float64(m.Ticks) / float64(nativeTicks)
	row.Histograms = r.Histograms().Summaries()
	row.Anomalies = cl.anomalies
	row.Stats = r.StatsSnapshot()
	return row, nil
}

// Telemetry runs the full-telemetry experiment over the given benchmarks
// with a pool of worker goroutines (workers <= 0 means one per GOMAXPROCS).
// A non-nil traceOut receives one combined Chrome trace-event stream for the
// whole matrix — one Perfetto process per benchmark, distinguished by pid in
// input order. Results are in input order; a failing benchmark is reported
// in the joined error while the rest still run.
func Telemetry(workers int, benches []*workload.Benchmark, traceOut io.Writer) ([]TelemetryRow, error) {
	var tw *obs.TraceWriter
	if traceOut != nil {
		tw = obs.NewTraceWriter(traceOut)
	}
	rows := make([]TelemetryRow, len(benches))
	errs := oracle.Parallel(workers, len(benches), func(k int) (err error) {
		rows[k], err = runTelemetry(benches[k], tw, k+1)
		return err
	})
	if tw != nil {
		if err := tw.Close(); err != nil {
			errs = append(errs, fmt.Errorf("telemetry: closing trace-event stream: %w", err))
		}
	}
	return rows, errors.Join(errs...)
}

// FormatTelemetry renders per-benchmark distribution digests (count, p50,
// p99, max per metric) followed by any watchdog detections.
func FormatTelemetry(rows []TelemetryRow) string {
	var b strings.Builder
	b.WriteString("Telemetry: distribution metrics (count/p50/p99/max) with all instrumentation on\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-4s %12d ticks  %.3fx native  %d anomalies\n",
			r.Benchmark, r.Class, r.Ticks, r.Normalized, len(r.Anomalies))
		for _, h := range r.Histograms {
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-22s n=%-9d p50=%-8d p99=%-8d max=%d\n",
				h.Name, h.Count, h.P50, h.P99, h.Max)
		}
		for _, a := range r.Anomalies {
			fmt.Fprintf(&b, "  ANOMALY %s\n", a.String())
		}
	}
	return b.String()
}
