package harness

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oracle"
)

// telemetrySuite is the explain experiment: every observability pillar
// switched on at once — phase accounting and fragment profiles, distribution
// histograms, the event ring, the pathology watchdog and, with
// SuiteParams.TraceEvents, span export — beside the plain default runtime on
// the same cases. The profile answers "where did the cycles go", the rest
// "how did the mechanisms behave, and did anything pathological happen". The
// engine's Failure check holds the instrumented run to tick conservation (the
// phases sum exactly to the run's ticks). The coverage check is the telemetry
// contract: on every case the watchdog stays silent, the instrumented run
// costs exactly the default run's ticks (telemetry reads the clock but never
// charges it), and the block-build histogram saw every block built.
func telemetrySuite(p SuiteParams) (*Suite, error) {
	return &Suite{
		Cases: benchCases(p.Benches),
		Configs: []oracle.Config{
			{Name: "default", Opts: core.Default},
			{Name: "telemetry", Opts: defaultWith(func(o *core.Options) {
				o.Profile, o.EventRing, o.Watchdog, o.TraceEvents = true, 4096, true, p.TraceEvents
			})},
		},
		Coverage: func(outs []oracle.Outcome) error {
			var errs []error
			// Outcomes come case by case: default, then telemetry.
			for i := 0; i+2 <= len(outs); i += 2 {
				plain, o := outs[i], outs[i+1]
				if o.Stats.Anomalies != 0 {
					errs = append(errs, fmt.Errorf("%s: %d watchdog false positives: %v", o.Case, o.Stats.Anomalies, o.Anomalies))
				}
				if o.Ticks != plain.Ticks {
					errs = append(errs, fmt.Errorf("%s: telemetry run took %d ticks, default %d", o.Case, o.Ticks, plain.Ticks))
				}
				if n := blockBuilds(o.Histograms); o.Stats.BlocksBuilt == 0 || n != o.Stats.BlocksBuilt {
					errs = append(errs, fmt.Errorf("%s: block-build histogram count %d, BlocksBuilt %d", o.Case, n, o.Stats.BlocksBuilt))
				}
			}
			return errors.Join(errs...)
		},
		View: &View{Name: "telemetry", Configs: []string{"telemetry"}, Format: FormatTelemetry},
	}, nil
}

// blockBuilds returns the sample count of the block-build histogram.
func blockBuilds(hists []obs.HistogramSummary) uint64 {
	if int(obs.MetricBlockBuildTicks) < len(hists) {
		return hists[obs.MetricBlockBuildTicks].Count
	}
	return 0
}

// FormatTelemetry renders the telemetry column of the telemetry suite: the
// phase breakdown and hottest fragments, then per-benchmark distribution
// digests (count, p50, p99, max per metric) followed by any watchdog
// detections.
func FormatTelemetry(g Grid) string {
	var b strings.Builder
	formatProfile(&b, g)
	b.WriteString("\nTelemetry: distribution metrics (count/p50/p99/max) with all instrumentation on\n")
	for _, r := range g.Rows {
		o := r.Cells[0]
		fmt.Fprintf(&b, "%-10s %-4s %12d ticks  %.3fx native  %d anomalies\n",
			r.Case, r.Class, o.Ticks, o.Normalized(), len(o.Anomalies))
		for _, h := range o.Histograms {
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-22s n=%-9d p50=%-8d p99=%-8d max=%d\n",
				h.Name, h.Count, h.P50, h.P99, h.Max)
		}
		for _, a := range o.Anomalies {
			fmt.Fprintf(&b, "  ANOMALY %s\n", a.String())
		}
	}
	return b.String()
}
