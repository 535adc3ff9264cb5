package harness

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// IBLPoint is one column of the indirect-branch-lookup sweep: a hashtable
// organization and flag-save policy applied on top of the base runtime
// options. Bits is the log2 of the initial table capacity.
type IBLPoint struct {
	Name         string
	Bits         uint
	DirectMapped bool // legacy fixed direct-mapped table (the ablation baseline)
	Adaptive     bool // load-factor-triggered doubling (open-address only)
	FlagsElision bool // eflags-liveness flag-save elision
}

// Options returns the runtime options for this sweep point.
func (p IBLPoint) Options() core.Options {
	o := core.Default()
	o.IBLTableBits = p.Bits
	o.IBLDirectMapped = p.DirectMapped
	o.IBLAdaptive = p.Adaptive
	o.FlagsElision = p.FlagsElision
	return o
}

// DefaultIBLSweep is the configuration ladder of the IBL experiment
// (EXPERIMENTS.md): the paper-era direct-mapped table at two sizes as the
// ablation baseline, the open-address table at the same fixed sizes, the
// adaptive table growing from the small size, and the elision ablation
// (open-address with the conservative pushfd/popfd prefix everywhere).
// 64 entries is deliberately under-provisioned for the indirect-heavy
// workloads, so the sweep shows both how the direct-mapped table degrades
// (conflict misses back to the dispatcher) and how adaptive growth escapes.
func DefaultIBLSweep() []IBLPoint {
	return []IBLPoint{
		{Name: "direct-64", Bits: 6, DirectMapped: true},
		{Name: "direct-256", Bits: 8, DirectMapped: true},
		{Name: "open-64", Bits: 6, FlagsElision: true},
		{Name: "open-256", Bits: 8, FlagsElision: true},
		{Name: "adaptive-from-64", Bits: 6, Adaptive: true, FlagsElision: true},
		{Name: "open-256-noelide", Bits: 8},
	}
}

// IBLPointIndex returns the index of the named point, or -1.
func IBLPointIndex(points []IBLPoint, name string) int {
	for i, p := range points {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// IBLCell is one (benchmark, sweep point) measurement.
type IBLCell struct {
	Normalized float64 // ticks / native ticks
	Ticks      machine.Ticks
	Stats      core.Stats
}

// IBLSweepRow is one benchmark's line of the sweep.
type IBLSweepRow struct {
	Benchmark string
	Class     workload.Class
	Cells     []IBLCell // parallel to the sweep points
}

// IBLSweep evaluates the (benchmark × IBL point) matrix with a pool of
// worker goroutines, one independent simulated machine per cell, returning
// one row per benchmark in input order. workers <= 0 means one per
// GOMAXPROCS; results are bit-identical for any worker count. A failing
// cell is reported in the joined error while the rest of the matrix still
// runs.
func IBLSweep(workers int, benches []*workload.Benchmark, points []IBLPoint) ([]IBLSweepRow, error) {
	np := len(points)
	rows := make([]IBLSweepRow, len(benches))
	for i, b := range benches {
		rows[i] = IBLSweepRow{Benchmark: b.Name, Class: b.Class, Cells: make([]IBLCell, np)}
	}
	return rows, errors.Join(oracle.Parallel(workers, len(benches)*np, func(k int) error {
		b, p := benches[k/np], points[k%np]
		res, err := RunConfigErr(b, p.Options())
		if err != nil {
			return fmt.Errorf("%s/%s: %w", b.Name, p.Name, err)
		}
		rows[k/np].Cells[k%np] = IBLCell{Normalized: res.Normalized, Ticks: res.Ticks, Stats: res.RIOStats}
		return nil
	})...)
}

// IBLSweepMeans returns the geometric mean of normalized time per sweep
// point over all rows.
func IBLSweepMeans(points []IBLPoint, rows []IBLSweepRow) []float64 {
	means := make([]float64, len(points))
	for p := range points {
		var xs []float64
		for _, r := range rows {
			xs = append(xs, r.Cells[p].Normalized)
		}
		means[p] = GeoMean(xs)
	}
	return means
}

// FormatIBLSweep renders the sweep: normalized time per point, then the
// dispatcher context switches (the cost an IBL hit avoids) and the table
// behaviour counters that explain them.
func FormatIBLSweep(points []IBLPoint, rows []IBLSweepRow) string {
	var b strings.Builder
	b.WriteString("IBL sweep: normalized execution time by indirect-branch lookup configuration\n")
	fmt.Fprintf(&b, "%-10s %-4s", "benchmark", "cls")
	for _, p := range points {
		fmt.Fprintf(&b, " %16s", p.Name)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-4s", r.Benchmark, r.Class)
		for p := range points {
			fmt.Fprintf(&b, " %16.3f", r.Cells[p].Normalized)
		}
		b.WriteByte('\n')
	}
	if len(rows) > 2 {
		fmt.Fprintf(&b, "%-10s %-4s", "mean-all", "")
		for _, m := range IBLSweepMeans(points, rows) {
			fmt.Fprintf(&b, " %16.3f", m)
		}
		b.WriteByte('\n')
	}
	b.WriteString("\ncontext switches / IBL misses\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-4s", r.Benchmark, r.Class)
		for p := range points {
			s := r.Cells[p].Stats
			fmt.Fprintf(&b, " %16s", fmt.Sprintf("%d/%d", s.ContextSwitches, s.IBLMisses))
		}
		b.WriteByte('\n')
	}
	b.WriteString("\ncollisions / max probe / resizes / replaced / elisions\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-4s", r.Benchmark, r.Class)
		for p := range points {
			s := r.Cells[p].Stats
			fmt.Fprintf(&b, " %16s", fmt.Sprintf("%d/%d/%d/%d/%d",
				s.IBLCollisions, s.IBLMaxProbe, s.IBLResizes, s.IBLReplaced,
				s.FlagsElisions+s.InlineChecksElided))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
