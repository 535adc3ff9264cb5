package harness

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// RunMatrix evaluates the full (benchmark × Figure-5 configuration) matrix
// with a pool of worker goroutines and returns one row per benchmark, in
// input order. workers <= 0 means one worker per GOMAXPROCS.
//
// Every cell is an independent simulated Machine with fresh client
// instances, and the native-baseline cache serializes per benchmark, so the
// rows are bit-identical for any worker count — parallelism changes only
// wall-clock time. A cell that fails (or panics) is reported in the joined
// error while the remaining cells still run.
func RunMatrix(workers int, benches []*workload.Benchmark, opts core.Options) ([]Figure5Row, error) {
	nc := int(NumOptConfigs)
	rows := make([]Figure5Row, len(benches))
	for i, b := range benches {
		rows[i] = Figure5Row{Benchmark: b.Name, Class: b.Class}
	}
	// Distinct cells write distinct row elements, so no synchronization
	// is needed beyond the pool's.
	return rows, errors.Join(oracle.Parallel(workers, len(benches)*nc, func(k int) error {
		b, c := benches[k/nc], OptConfig(k%nc)
		res, err := RunConfigErr(b, opts, ClientsFor(c)...)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", b.Name, c, err)
		}
		rows[k/nc].Normalized[c] = res.Normalized
		rows[k/nc].Ticks[c] = res.Ticks
		return nil
	})...)
}

// Figure5Options returns the configuration Figure 5 measures against: the
// paper's base system. The indirect-branch lookup is pinned to the fixed
// direct-mapped table without flag-save elision, so the Section 4 client
// optimizations (which attack exactly that indirect-branch overhead) are
// compared against the system the paper describes. The adaptive
// open-address IBL and eflags-liveness elision are evaluated separately by
// the IBL sweep (drbench -iblsweep), which includes this configuration as
// its ablation baseline.
func Figure5Options() core.Options {
	o := core.Default()
	o.IBLDirectMapped = true
	o.IBLAdaptive = false
	o.FlagsElision = false
	return o
}

// Figure5Parallel reproduces Figure 5 with the given worker count (<= 0
// means one worker per GOMAXPROCS). With names non-empty, only those
// benchmarks run. The rows are bit-identical to the serial Figure5.
func Figure5Parallel(workers int, names ...string) ([]Figure5Row, error) {
	benches, err := benchSubset(names)
	if err != nil {
		return nil, err
	}
	return RunMatrix(workers, benches, Figure5Options())
}

func benchSubset(names []string) ([]*workload.Benchmark, error) {
	if len(names) == 0 {
		return workload.All(), nil
	}
	benches := make([]*workload.Benchmark, 0, len(names))
	for _, n := range names {
		b := workload.ByName(n)
		if b == nil {
			return nil, fmt.Errorf("harness: unknown benchmark %s", n)
		}
		benches = append(benches, b)
	}
	return benches, nil
}
