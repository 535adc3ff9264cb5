package core_test

// The eviction and IBL differential oracles at the core's own level: FIFO
// eviction, adaptive cache sizing, every IBL table organization and
// flag-save elision are pure performance mechanisms, so a workload must end
// bit-identical to native under each of them. The full 22-benchmark matrices
// are the harness's cachesweep and ibl suites, which TestCacheSweep and
// TestIBLSweepShape run in full; these tests run the same suites on perlbmk
// alone, so the core package's own tests compare its eviction and IBL paths
// with native execution. perlbmk's tens of KiB of live code and its many
// indirect-branch targets make it exercise, on its own, every mechanism
// the suites' coverage checks name.

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/workload"
)

// checkSuiteOn runs a harness differential suite over one benchmark,
// alongside the package's other parallel tests, and requires every cell to
// match native and the suite's coverage check to hold.
func checkSuiteOn(t *testing.T, suite, bench string) {
	t.Parallel()
	benches, err := workload.Select(bench)
	if err != nil {
		t.Fatal(err)
	}
	s, err := harness.NewSuite(suite, harness.SuiteParams{Benches: benches})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Check(outs); err != nil {
		t.Error(err)
	}
}

// TestEvictionDifferentialOracle: every cache budget of the sweep, the
// unbounded, single-fragment and both adaptive caches; the pressured
// columns must evict and regenerate, the unbounded one never evict, and
// both adaptive columns resize.
func TestEvictionDifferentialOracle(t *testing.T) { checkSuiteOn(t, "cachesweep", "perlbmk") }

// TestIBLDifferentialOracle: direct-mapped and open-address tables at tiny
// sizes, adaptive growth and the no-elision ablation; elision and growth
// must stay confined to the columns that enable them, and collisions,
// displacement, growth and elision must all occur.
func TestIBLDifferentialOracle(t *testing.T) { checkSuiteOn(t, "ibl", "perlbmk") }
