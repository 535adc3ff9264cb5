package core_test

// The eviction and IBL differential oracles: FIFO eviction, adaptive cache
// sizing, every IBL table organization and flag-save elision are pure
// performance mechanisms, so every workload must end bit-identical to native
// under each of them. The matrices and their non-vacuousness checks are the
// harness's "eviction" and "ibl" suites (drbench -diff eviction,ibl); these
// tests run them over the whole workload suite and report each workload as
// a subtest.

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/oracle"
)

// suite builds a harness differential suite over every workload.
func suite(t *testing.T, name string) *harness.Suite {
	t.Helper()
	s, err := harness.NewSuite(name, harness.SuiteParams{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// evictionConfigs is the eviction suite's cache matrix: "unbounded" plus
// three pressured columns that must evict.
func evictionConfigs(t *testing.T) []oracle.Config { return suite(t, "eviction").Configs }

// runByCase runs a suite, alongside the package's other parallel tests, and
// reports each workload's cells as a subtest, then the suite's coverage
// check.
func runByCase(t *testing.T, name string) {
	t.Parallel()
	s := suite(t, name)
	outs, err := s.Run(0)
	if err != nil {
		t.Error(err)
	}
	n := len(s.Configs)
	for i, c := range s.Cases {
		cells := outs[i*n : (i+1)*n]
		t.Run(c.Name, func(t *testing.T) {
			for _, o := range cells {
				if f := o.Failure(); f != "" {
					t.Errorf("%s: %s", o.Config, f)
				}
			}
		})
	}
	if err := s.Coverage(outs); err != nil {
		t.Error(err)
	}
}

// TestEvictionDifferentialOracle: unbounded, 4 KiB, single-fragment and
// adaptive caches; the pressured columns must evict and regenerate on every
// workload and the unbounded one never evict.
func TestEvictionDifferentialOracle(t *testing.T) { runByCase(t, "eviction") }

// TestIBLDifferentialOracle: direct-mapped and open-address tables at tiny
// sizes, adaptive growth and the no-elision ablation; elision and growth
// must stay confined to the columns that enable them, and collisions,
// displacement, growth and elision must all occur somewhere.
func TestIBLDifferentialOracle(t *testing.T) { runByCase(t, "ibl") }
