// Package guard holds the shared plumbing of the benchmark-regression
// guard: the env gate, the checked-in baseline file format, and a
// calibration kernel that normalizes wall-clock measurements across host
// machines. The interpreter hot-loop guard (internal/machine) keeps its
// baseline in BENCH_baseline.json at the repository root; the Figure 5 guard
// (the repository root) reads its baseline from BENCH_figure5.json.
package guard

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Baseline is the layout of BENCH_baseline.json.
type Baseline struct {
	Schema string `json:"schema"`

	// HotloopScore is interpreter throughput divided by the calibration
	// kernel's throughput on the same host — dimensionless, so a slower CI
	// machine moves both and the ratio holds.
	HotloopScore float64 `json:"hotloop_score"`
}

// Gate skips t unless the guard is explicitly enabled; wall-clock guards
// should not run during ordinary go test invocations.
func Gate(t *testing.T) {
	t.Helper()
	if os.Getenv("BENCH_GUARD") == "" && !WriteMode() {
		t.Skip("benchmark-regression guard: set BENCH_GUARD=1 (or BENCH_GUARD_WRITE=1 to rebaseline)")
	}
}

// WriteMode reports whether the guard should rewrite the baseline instead
// of comparing against it.
func WriteMode() bool { return os.Getenv("BENCH_GUARD_WRITE") != "" }

// repoRoot locates the repository root from this source file's location, so
// the baseline resolves identically from any package's test working
// directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("guard: cannot locate source file")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(self)))
}

// Load reads the named baseline from the repository root. A missing file is
// an empty baseline in write mode and a fatal error otherwise.
func Load(t *testing.T, name string) *Baseline {
	t.Helper()
	path := filepath.Join(repoRoot(t), name)
	data, err := os.ReadFile(path)
	if err != nil {
		if WriteMode() && os.IsNotExist(err) {
			return &Baseline{Schema: "drbench/benchguard/v1"}
		}
		t.Fatalf("guard: %v (regenerate with BENCH_GUARD_WRITE=1)", err)
	}
	b := &Baseline{}
	if err := json.Unmarshal(data, b); err != nil {
		t.Fatalf("guard: %s: %v", name, err)
	}
	return b
}

// Save writes the baseline back to the repository root.
func Save(t *testing.T, name string, b *Baseline) {
	t.Helper()
	b.Schema = "drbench/benchguard/v1"
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(repoRoot(t), name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("guard: wrote %s", path)
}

var calibrationSink uint64

// Calibrate measures the host's throughput on a fixed arithmetic kernel
// (multiply-xor-shift over a register value), in operations per second.
// Wall-clock benchmark results divided by this number are comparable across
// hosts of different speeds.
func Calibrate() float64 {
	res := testing.Benchmark(func(b *testing.B) {
		x := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < b.N; i++ {
			for j := 0; j < 1024; j++ {
				x = x*6364136223846793005 + 1442695040888963407
				x ^= x >> 33
			}
		}
		calibrationSink += x
	})
	return 1024 * float64(res.N) / res.T.Seconds()
}

// Best returns the best (largest) of n runs of measure — the standard
// defense against one-off scheduling noise in wall-clock benchmarks.
func Best(n int, measure func() float64) float64 {
	best := 0.0
	for i := 0; i < n; i++ {
		if v := measure(); v > best {
			best = v
		}
	}
	return best
}
