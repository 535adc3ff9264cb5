package harness

import (
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/internal/workload"
)

// runSuite builds and runs a suite, failing the test on any failing cell or
// (when coverage is set) coverage gap.
func runSuite(t *testing.T, name string, p SuiteParams, coverage bool) (*Suite, []oracle.Outcome) {
	t.Helper()
	s, err := NewSuite(name, p)
	if err != nil {
		t.Fatal(err)
	}
	if !coverage {
		s.Coverage = nil
	}
	outs, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Check(outs); err != nil {
		t.Errorf("%v\n%s", err, FormatDiff(s, outs))
	}
	return s, outs
}

func TestNewSuiteUnknown(t *testing.T) {
	if _, err := NewSuite("nope", SuiteParams{}); err == nil || !strings.Contains(err.Error(), "faultstorm") {
		t.Fatalf("unknown suite: err = %v, want one listing the known suites", err)
	}
	for _, name := range SuiteNames() {
		s, err := NewSuite(name, SuiteParams{Benches: []*workload.Benchmark{workload.ByName("gzip")}, FuzzSeeds: []int64{1}})
		if err != nil || s.Name != name || len(s.Cases) == 0 || len(s.Configs) == 0 {
			t.Errorf("suite %s: %+v, %v", name, s, err)
		}
	}
}

// TestFaultStormFull is the acceptance differential: every workload under
// three seeded machine-fault schedules, native versus the unbounded, 4 KiB
// and elision-off runtimes — 198 runs bit-identical, fault contexts
// translated from cache form, elisions only in the elided columns.
func TestFaultStormFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full fault-injection differential in -short mode")
	}
	_, outs := runSuite(t, "faultstorm", SuiteParams{}, true)
	if len(outs) != 198 {
		t.Errorf("%d runs, want 198", len(outs))
	}
}

// TestChaosStormFull is the acceptance differential: every workload plus the
// synthetic signals case, three seeded chaos schedules (with machine-fault
// plans riding along) and one storm schedule each, under the unbounded and
// pressured configs — 184 runs bit-identical with zero rollback-audit
// failures and intact invariants, every chaos site fired somewhere, and at
// least one re-attach.
func TestChaosStormFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos-injection differential in -short mode")
	}
	_, outs := runSuite(t, "chaosstorm", SuiteParams{}, true)
	if len(outs) != 184 {
		t.Errorf("%d runs, want 184", len(outs))
	}
	t.Logf("site fires: %v", SiteFires(outs))
}

// TestChaosStormSmoke is the bounded variant CI runs under -race: one
// benchmark plus the signals case, one seed, both configs.
func TestChaosStormSmoke(t *testing.T) {
	_, outs := runSuite(t, "chaosstorm", SuiteParams{
		Benches: []*workload.Benchmark{workload.ByName("gzip")}, Seeds: []int64{7},
	}, false)
	if len(SiteFires(outs)) == 0 {
		t.Error("smoke run fired no chaos triggers at all")
	}
}

// TestFuzzUnderChaos runs generated programs — guard page armed — under the
// ChaosStorm perturbations: two chaos schedules with machine faults riding
// along plus the storm, both chaos configs, 360 runs.
func TestFuzzUnderChaos(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	_, outs := runSuite(t, "fuzzchaos", SuiteParams{FuzzSeeds: SeedRange(1, n)}, true)
	if len(outs) != n*3*2 {
		t.Errorf("%d runs, want %d", len(outs), n*3*2)
	}
}

// TestVerifySuite runs the transparency matrix — the Table 1 ladder, the six
// Figure 5 client sets on the paper's base system and all clients on the
// default runtime, under the full oracle — on Table 1's two benchmarks. Pure
// emulation of the whole suite is too slow for go test under the race
// detector; CI runs all 264 cells as drbench -diff verify.
func TestVerifySuite(t *testing.T) {
	benches := []*workload.Benchmark{workload.ByName("crafty"), workload.ByName("vpr")}
	_, outs := runSuite(t, "verify", SuiteParams{Benches: benches}, true)
	if len(outs) != 24 {
		t.Errorf("%d runs, want 24", len(outs))
	}
}
