package harness

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// The published tables are views over differential outcomes: Figure 5 (and
// Table 1) over the verify suite, the cache sweep over cachesweep, the IBL
// sweep over ibl and the telemetry report, phase profile included, over
// telemetry. A view only arranges and formats cells; every number in it is
// the normalized time of a run that passed the full oracle.

// View is a suite's published table: its name (drbench -json writes it as
// BENCH_<Name>.json), its columns and its text rendering.
type View struct {
	Name    string
	Configs []string // nil means all of the suite's
	Format  func(Grid) string
}

// TopFragments is how many of a profiled run's hottest fragments the
// telemetry view prints and publishes.
const TopFragments = 10

// Grid is a table of verified outcomes: one row per case, one column per
// config.
type Grid struct {
	Configs []string
	Rows    []GridRow
}

// GridRow is one case's line of a grid.
type GridRow struct {
	Case  string
	Class workload.Class
	Cells []oracle.Outcome // parallel to Grid.Configs
}

// Grid arranges the suite's unperturbed outcomes for the named cases and
// configs (all of the suite's when nil) into a grid, in the order given. A
// missing or failing cell is an error: a view never shows an unverified
// number.
func (s *Suite) Grid(outs []oracle.Outcome, cases, configs []string) (Grid, error) {
	if cases == nil {
		for _, c := range s.Cases {
			cases = append(cases, c.Name)
		}
	}
	if configs == nil {
		for _, c := range s.Configs {
			configs = append(configs, c.Name)
		}
	}
	type key struct{ c, cfg string }
	byKey := map[key]oracle.Outcome{}
	for _, o := range outs {
		if o.Perturbation == "" {
			byKey[key{o.Case, o.Config}] = o
		}
	}
	g := Grid{Configs: configs}
	for _, c := range cases {
		row := GridRow{Case: c}
		if b := workload.ByName(c); b != nil {
			row.Class = b.Class
		}
		for _, cfg := range configs {
			o, ok := byKey[key{c, cfg}]
			if !ok {
				return Grid{}, fmt.Errorf("harness: no outcome for %s/%s", c, cfg)
			}
			if f := o.Failure(); f != "" {
				return Grid{}, fmt.Errorf("harness: %s/%s: %s", c, cfg, f)
			}
			row.Cells = append(row.Cells, o)
		}
		g.Rows = append(g.Rows, row)
	}
	return g, nil
}

// ClassMeans returns, per column, the geometric mean of normalized time over
// the FP rows, the INT rows and all rows: the aggregate lines the paper
// reports.
func (g Grid) ClassMeans() (fp, in, all []float64) {
	for c := range g.Configs {
		var xf, xi, xa []float64
		for _, r := range g.Rows {
			x := r.Cells[c].Normalized()
			xa = append(xa, x)
			if r.Class == workload.ClassFP {
				xf = append(xf, x)
			} else {
				xi = append(xi, x)
			}
		}
		fp, in, all = append(fp, GeoMean(xf)), append(in, GeoMean(xi)), append(all, GeoMean(xa))
	}
	return fp, in, all
}

// tableOneLadder names the verify suite's Table 1 columns and the paper's
// row label for each.
var tableOneLadder = []struct{ config, system string }{
	{"emulation", "Emulation"},
	{"bb-cache", "+ Basic block cache"},
	{"link-direct", "+ Link direct branches"},
	{"link-indirect", "+ Link indirect branches"},
	{"traces", "+ Traces"},
}

// TableOneConfigs names the verify suite's Table 1 ladder columns, in the
// paper's order.
func TableOneConfigs() []string {
	names := make([]string, len(tableOneLadder))
	for i, l := range tableOneLadder {
		names[i] = l.config
	}
	return names
}

// Figure5Configs names the verify suite's Figure 5 columns: the six client
// sets on Figure5Options, in the paper's order.
func Figure5Configs() []string {
	names := make([]string, NumOptConfigs)
	for c := range names {
		names[c] = OptConfig(c).String()
	}
	return names
}

// FormatTable1 renders a grid over the Table 1 ladder in the paper's layout:
// one row per ladder configuration, one column per benchmark.
func FormatTable1(g Grid) string {
	var b strings.Builder
	b.WriteString("Table 1: normalized execution time (ratio to native)\n")
	fmt.Fprintf(&b, "%-26s", "System Type")
	for _, r := range g.Rows {
		fmt.Fprintf(&b, " %10s", r.Case)
	}
	b.WriteByte('\n')
	for c, cfg := range g.Configs {
		system := cfg
		for _, l := range tableOneLadder {
			if l.config == cfg {
				system = l.system
			}
		}
		fmt.Fprintf(&b, "%-26s", system)
		for _, r := range g.Rows {
			fmt.Fprintf(&b, " %10.1f", r.Cells[c].Normalized())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// formatNormalized renders the title, one line of normalized time per row
// and, over more than two rows, the given mean lines.
func formatNormalized(b *strings.Builder, title string, width int, g Grid, means ...[]float64) {
	b.WriteString(title + "\n")
	fmt.Fprintf(b, "%-10s %-4s", "benchmark", "cls")
	for _, cfg := range g.Configs {
		fmt.Fprintf(b, " %*s", width, cfg)
	}
	b.WriteByte('\n')
	for _, r := range g.Rows {
		fmt.Fprintf(b, "%-10s %-4s", r.Case, r.Class)
		for _, o := range r.Cells {
			fmt.Fprintf(b, " %*.3f", width, o.Normalized())
		}
		b.WriteByte('\n')
	}
	if len(g.Rows) <= 2 {
		return
	}
	// The mean lines are the last len(means) of FP, INT and all.
	names := []string{"mean-fp", "mean-int", "mean-all"}[3-len(means):]
	for i, m := range means {
		fmt.Fprintf(b, "%-10s %-4s", names[i], "")
		for _, v := range m {
			fmt.Fprintf(b, " %*.3f", width, v)
		}
		b.WriteByte('\n')
	}
}

// formatCounters renders one titled block of per-cell counter strings.
func formatCounters(b *strings.Builder, title string, width int, g Grid, cell func(oracle.Outcome) string) {
	b.WriteString("\n" + title + "\n")
	for _, r := range g.Rows {
		fmt.Fprintf(b, "%-10s %-4s", r.Case, r.Class)
		for _, o := range r.Cells {
			fmt.Fprintf(b, " %*s", width, cell(o))
		}
		b.WriteByte('\n')
	}
}

// FormatFigure5 renders Figure 5 plus its mean lines in a table layout (the
// paper draws bars; the series are identical).
func FormatFigure5(g Grid) string {
	var b strings.Builder
	fp, in, all := g.ClassMeans()
	formatNormalized(&b, "Figure 5: normalized execution time (ratio to native; smaller is better)", 10, g, fp, in, all)
	return b.String()
}

// FormatCacheSweep renders the cache sweep: normalized time per budget, and
// below it the eviction/regeneration counts that explain the slowdowns (a
// point whose time is near 1.0 with nonzero evictions is the interesting
// regime — the cache is working hard and it doesn't matter).
func FormatCacheSweep(g Grid) string {
	var b strings.Builder
	_, _, all := g.ClassMeans()
	formatNormalized(&b, "Cache sweep: normalized execution time by per-thread cache budget", 10, g, all)
	formatCounters(&b, "evictions / regenerations / resizes", 10, g, func(o oracle.Outcome) string {
		return fmt.Sprintf("%d/%d/%d", o.Stats.Evictions, o.Stats.Regenerations, o.Stats.CacheResizes)
	})
	return b.String()
}

// FormatIBLSweep renders the IBL sweep: normalized time per configuration,
// then the dispatcher context switches (the cost an IBL hit avoids) and the
// table behaviour counters that explain them.
func FormatIBLSweep(g Grid) string {
	var b strings.Builder
	_, _, all := g.ClassMeans()
	formatNormalized(&b, "IBL sweep: normalized execution time by indirect-branch lookup configuration", 16, g, all)
	formatCounters(&b, "context switches / IBL misses", 16, g, func(o oracle.Outcome) string {
		return fmt.Sprintf("%d/%d", o.Stats.ContextSwitches, o.Stats.IBLMisses)
	})
	formatCounters(&b, "collisions / max probe / resizes / replaced / elisions", 16, g, func(o oracle.Outcome) string {
		s := o.Stats
		return fmt.Sprintf("%d/%d/%d/%d/%d", s.IBLCollisions, s.IBLMaxProbe, s.IBLResizes, s.IBLReplaced,
			s.FlagsElisions+s.InlineChecksElided)
	})
	return b.String()
}

// formatProfile renders a profiled grid's first column: the phase breakdown
// as percent-of-run per benchmark (the paper's Section 4-style overhead
// attribution), then each benchmark's TopFragments hottest fragments.
func formatProfile(b *strings.Builder, g Grid) {
	names := obs.PhaseNames()
	b.WriteString("Phase accounting: percent of simulated ticks by execution phase\n")
	fmt.Fprintf(b, "%-10s %-4s %12s", "benchmark", "cls", "ticks")
	for _, n := range names {
		fmt.Fprintf(b, " %*s", phaseColWidth(n), n)
	}
	b.WriteByte('\n')
	for _, r := range g.Rows {
		o := r.Cells[0]
		fmt.Fprintf(b, "%-10s %-4s %12d", r.Case, r.Class, o.Ticks)
		for i, n := range names {
			pct := 0.0
			if o.Ticks > 0 {
				pct = 100 * float64(o.Phases[i]) / float64(o.Ticks)
			}
			fmt.Fprintf(b, " %*.2f", phaseColWidth(n), pct)
		}
		b.WriteByte('\n')
	}
	for _, r := range g.Rows {
		o := r.Cells[0]
		if len(o.Profiles) == 0 {
			continue
		}
		fmt.Fprintf(b, "\n%s: hottest fragments (%d profiled)\n", r.Case, len(o.Profiles))
		b.WriteString(obs.FormatTop(obs.TopN(o.Profiles, TopFragments)))
	}
}

// phaseColWidth sizes a phase column to its header.
func phaseColWidth(name string) int {
	if len(name) < 7 {
		return 7
	}
	return len(name)
}
