package harness_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/instr"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// view runs the named suite over the named benchmarks (every benchmark when
// none are named) with only the given configs (all of them when nil),
// reports each benchmark's cells as a subtest, checks the suite's coverage,
// and returns the grid a published view would format.
func view(t *testing.T, suite string, configs []string, names ...string) harness.Grid {
	t.Helper()
	benches, err := workload.Select(names...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := harness.NewSuite(suite, harness.SuiteParams{Benches: benches})
	if err != nil {
		t.Fatal(err)
	}
	if configs != nil {
		s.Configs = slices.DeleteFunc(s.Configs, func(c oracle.Config) bool { return !slices.Contains(configs, c.Name) })
	}
	outs, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(s.Configs)
	for i, c := range s.Cases {
		t.Run(c.Name, func(t *testing.T) {
			for _, o := range outs[i*n : (i+1)*n] {
				if f := o.Failure(); f != "" {
					t.Errorf("%s: %s", o.Config, f)
				}
			}
		})
	}
	if err := s.Check(outs); err != nil {
		t.Fatal(err)
	}
	g, err := s.Grid(outs, nil, configs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTable1Shape checks the paper's Table 1 qualitatively: each added
// feature reduces normalized execution time, pure emulation costs a few
// hundred times native, caching brings it to the tens, and the full system
// lands within a factor of two of native — with crafty (indirect-rich)
// consistently harder than vpr once linking starts, as in the paper.
func TestTable1Shape(t *testing.T) {
	g := view(t, "verify", harness.TableOneConfigs(), "crafty", "vpr")
	t.Log("\n" + harness.FormatTable1(g))
	type row struct {
		System      string
		Crafty, Vpr float64
	}
	var rows []row
	for c, cfg := range g.Configs {
		rows = append(rows, row{cfg, g.Rows[0].Cells[c].Normalized(), g.Rows[1].Cells[c].Normalized()})
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}

	for i := 1; i < len(rows); i++ {
		if rows[i].Crafty >= rows[i-1].Crafty {
			t.Errorf("crafty: %q (%.1f) not faster than %q (%.1f)",
				rows[i].System, rows[i].Crafty, rows[i-1].System, rows[i-1].Crafty)
		}
		if rows[i].Vpr >= rows[i-1].Vpr {
			t.Errorf("vpr: %q (%.1f) not faster than %q (%.1f)",
				rows[i].System, rows[i].Vpr, rows[i-1].System, rows[i-1].Vpr)
		}
	}
	if rows[0].Crafty < 100 || rows[0].Vpr < 100 {
		t.Errorf("emulation = %.0f/%.0f, want a few hundred", rows[0].Crafty, rows[0].Vpr)
	}
	if rows[1].Crafty < 10 || rows[1].Crafty > 40 || rows[1].Vpr < 10 || rows[1].Vpr > 40 {
		t.Errorf("bb cache = %.1f/%.1f, want tens", rows[1].Crafty, rows[1].Vpr)
	}
	// After direct linking, the indirect-branch-rich crafty is the slower
	// of the two (paper: 5.1 vs 3.0; 2.0 vs 1.2; 1.7 vs 1.1).
	for _, i := range []int{2, 3, 4} {
		if rows[i].Crafty <= rows[i].Vpr {
			t.Errorf("%s: crafty (%.2f) should exceed vpr (%.2f)",
				rows[i].System, rows[i].Crafty, rows[i].Vpr)
		}
	}
	if last := rows[4]; last.Crafty > 2.0 || last.Vpr > 1.5 {
		t.Errorf("full system = %.2f/%.2f, want <= 2.0/1.5", last.Crafty, last.Vpr)
	}
}

// TestTable2Shape checks the level-of-detail cost ordering of the paper's
// Table 2: time L0 ≪ L1 ≈ L2 < L4 with Level 4 (full re-encode) the most
// expensive, and memory rising from the bundle representation to the fully
// decoded ones.
func TestTable2Shape(t *testing.T) {
	rows := harness.Table2()
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	t.Log("\n" + harness.FormatTable2(rows))

	tm := func(l instr.Level) float64 { return rows[l].MicrosPerBB }
	mem := func(l instr.Level) float64 { return rows[l].BytesPerBB }

	if !(tm(0) < tm(1)) {
		t.Errorf("time: L0 (%.3f) should be far below L1 (%.3f)", tm(0), tm(1))
	}
	if tm(0)*2 > tm(1) {
		t.Errorf("time: L0 (%.3f) should be well under half of L1 (%.3f)", tm(0), tm(1))
	}
	if !(tm(2) < tm(3) && tm(3) < tm(4)) {
		t.Errorf("time: want L2 (%.3f) < L3 (%.3f) < L4 (%.3f)", tm(2), tm(3), tm(4))
	}
	// L1 and L2 are close (boundary-finding dominates; the extra opcode
	// read is cheap).
	if tm(2) > tm(1)*2.5 {
		t.Errorf("time: L2 (%.3f) should be close to L1 (%.3f)", tm(2), tm(1))
	}
	// Level 4 must be the most expensive: it is the only level that pays
	// the template-matching encoder. (The paper's margin is 3.2x; our
	// subset ISA has far fewer templates per opcode than full IA-32, so
	// the search is relatively cheaper — and wall-clock ratios compress
	// further when the test machine is loaded, so the bound is soft.)
	if tm(4) < tm(3)*1.1 {
		t.Errorf("time: L4 (%.3f) should clearly exceed L3 (%.3f)", tm(4), tm(3))
	}

	if !(mem(0) < mem(1)) {
		t.Errorf("memory: L0 (%.0f) should be below L1 (%.0f)", mem(0), mem(1))
	}
	if mem(1) > mem(2)*1.1 || mem(2) > mem(1)*1.1 {
		t.Errorf("memory: L1 (%.0f) and L2 (%.0f) should match", mem(1), mem(2))
	}
	if !(mem(2) < mem(3)) {
		t.Errorf("memory: L3 (%.0f) should exceed L2 (%.0f) (operand arrays)", mem(3), mem(2))
	}
}

// TestFigure5Shape checks the paper's Figure 5 qualitatively on the full
// suite. The paper's headline results:
//
//   - redundant load removal achieves ~40% on mgrid and helps the FP suite;
//   - inc→add speeds up a number of benchmarks;
//   - indirect branch dispatch helps several integer benchmarks;
//   - custom traces speed up a number of the integer benchmarks;
//   - the combination improves the FP mean ~12% over native and beats the
//     base system's mean by a clear margin overall;
//   - perlbmk and gcc see slowdowns from the optimizations (overhead not
//     amortized over their short, low-reuse runs).
func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 5 sweep is slow; run without -short")
	}
	g := view(t, "verify", harness.Figure5Configs())
	if len(g.Rows) != 22 {
		t.Fatalf("%d rows, want 22", len(g.Rows))
	}
	t.Log("\n" + harness.FormatFigure5(g))
	norm := func(r harness.GridRow, c harness.OptConfig) float64 { return r.Cells[c].Normalized() }
	get := func(name string) harness.GridRow {
		for _, r := range g.Rows {
			if r.Case == name {
				return r
			}
		}
		t.Fatalf("missing %s", name)
		return harness.GridRow{}
	}

	// mgrid: the ~40% redundant-load-removal headline.
	if rlr := norm(get("mgrid"), harness.ConfigRLR); rlr > 0.70 {
		t.Errorf("mgrid rlr = %.3f, want <= 0.70 (~40%% win)", rlr)
	}

	// inc2add speeds up a number of benchmarks.
	wins := 0
	for _, r := range g.Rows {
		if norm(r, harness.ConfigInc2Add) < norm(r, harness.ConfigBase)*0.97 {
			wins++
		}
	}
	if wins < 3 {
		t.Errorf("inc2add wins on %d benchmarks, want several", wins)
	}

	// ibdispatch helps several integer benchmarks.
	ibWins := 0
	for _, r := range g.Rows {
		if r.Class == workload.ClassInt && norm(r, harness.ConfigIBDispatch) < norm(r, harness.ConfigBase)*0.99 {
			ibWins++
		}
	}
	if ibWins < 2 {
		t.Errorf("ibdispatch wins on %d INT benchmarks, want >= 2", ibWins)
	}

	// Custom traces speed up a number of the integer benchmarks.
	ctWins := 0
	for _, r := range g.Rows {
		if r.Class == workload.ClassInt && norm(r, harness.ConfigCTrace) < norm(r, harness.ConfigBase)*0.95 {
			ctWins++
		}
	}
	if ctWins < 4 {
		t.Errorf("ctrace wins on %d INT benchmarks, want >= 4", ctWins)
	}

	fp, _, all := g.ClassMeans()
	// FP mean under "all": the paper reports a 12% improvement over
	// native (0.88). Accept a band around it.
	if fp[harness.ConfigAll] > 0.95 || fp[harness.ConfigAll] < 0.75 {
		t.Errorf("FP mean all = %.3f, want ~0.88", fp[harness.ConfigAll])
	}
	// Combined mean beats the base system by >= 10% (paper: 12%).
	if all[harness.ConfigAll] > all[harness.ConfigBase]*0.90 {
		t.Errorf("all-mean %.3f vs base-mean %.3f: want >= 10%% improvement",
			all[harness.ConfigAll], all[harness.ConfigBase])
	}

	// perlbmk and gcc: optimizations cost more than they pay back.
	for _, name := range []string{"perlbmk", "gcc"} {
		r := get(name)
		slowdowns := 0
		for _, c := range []harness.OptConfig{harness.ConfigIBDispatch, harness.ConfigCTrace, harness.ConfigAll} {
			if norm(r, c) > norm(r, harness.ConfigBase)*0.995 {
				slowdowns++
			}
		}
		if slowdowns < 2 {
			t.Errorf("%s: expected optimization slowdowns, got %d of 3 configs slower", name, slowdowns)
		}
	}
}

// TestFormatters renders every view over a hand-built grid.
func TestFormatters(t *testing.T) {
	cell := oracle.Outcome{Match: true, Ticks: 300, NativeTicks: 200}
	g := harness.Grid{Configs: []string{"emulation"}, Rows: []harness.GridRow{{Case: "crafty", Cells: []oracle.Outcome{cell}}}}
	table1 := harness.Grid{Configs: []string{"emulation", "bb-cache"}, Rows: []harness.GridRow{{Case: "crafty", Cells: []oracle.Outcome{cell, cell}}}}
	for want, out := range map[string]string{
		"Figure 5":            harness.FormatFigure5(g),
		"Cache sweep":         harness.FormatCacheSweep(g),
		"IBL sweep":           harness.FormatIBLSweep(g),
		"+ Basic block cache": harness.FormatTable1(table1),
		"1.500":               harness.FormatFigure5(g),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in\n%s", want, out)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if g := harness.GeoMean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Errorf("geomean(2,8) = %f, want 4", g)
	}
	if g := harness.GeoMean(nil); g != 0 {
		t.Errorf("geomean(nil) = %f", g)
	}
}

func TestHarvestBlocks(t *testing.T) {
	blocks := harness.HarvestBlocks()
	if len(blocks) < 2000 {
		t.Errorf("harvested %d blocks, want a substantial population", len(blocks))
	}
	var total int
	for _, b := range blocks {
		if len(b.Raw) == 0 {
			t.Fatal("empty block")
		}
		total += len(b.Raw)
	}
	if avg := float64(total) / float64(len(blocks)); avg < 4 || avg > 60 {
		t.Errorf("average block size %.1f bytes, implausible", avg)
	}
}
