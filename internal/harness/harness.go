// Package harness runs the paper's experiments: the Table 1 feature ladder,
// the Table 2 level-of-detail measurements, and the Figure 5 optimization
// sweep, over the synthetic SPEC2000 suite. Each public function returns
// structured rows (for tests and benchmarks) and can render itself in the
// layout of the paper (for cmd/drbench).
package harness

import (
	"bytes"
	"fmt"
	"math"
	"sync"

	"repro/internal/clients/ctrace"
	"repro/internal/clients/ibdispatch"
	"repro/internal/clients/inc2add"
	"repro/internal/clients/rlr"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// NativeResult is a baseline run of a benchmark.
type NativeResult struct {
	Ticks  machine.Ticks
	Output []byte
	Stats  machine.Stats
}

// nativeEntry is one benchmark's slot in the native-baseline cache. The
// sync.Once makes the cache safe for concurrent RunNative/RunConfig calls:
// the first caller performs the run, every other caller blocks on the Once
// until the result (or error) is ready, and no benchmark runs twice.
type nativeEntry struct {
	once sync.Once
	res  *NativeResult
	err  error
}

var (
	nativeMu    sync.Mutex
	nativeCache = map[string]*nativeEntry{}
)

// RunNative executes the benchmark directly on the machine (no runtime),
// caching the result. It is safe for concurrent use.
func RunNative(b *workload.Benchmark) *NativeResult {
	r, err := runNative(b)
	if err != nil {
		panic(err)
	}
	return r
}

func runNative(b *workload.Benchmark) (*NativeResult, error) {
	nativeMu.Lock()
	e, ok := nativeCache[b.Name]
	if !ok {
		e = &nativeEntry{}
		nativeCache[b.Name] = e
	}
	nativeMu.Unlock()
	e.once.Do(func() {
		m := machine.New(machine.PentiumIV())
		b.Image().Boot(m)
		if err := m.Run(oracle.RunLimit); err != nil {
			e.err = fmt.Errorf("harness: native %s: %v", b.Name, err)
			return
		}
		e.res = &NativeResult{Ticks: m.Ticks, Output: m.Output, Stats: m.Stats}
	})
	return e.res, e.err
}

// ConfigResult is one benchmark run under the runtime.
type ConfigResult struct {
	Ticks      machine.Ticks
	Normalized float64 // ticks / native ticks: the paper's y-axis
	Output     []byte
	RIOStats   core.Stats
	Machine    machine.Stats
}

// RunConfig executes the benchmark under the runtime with the given options
// and clients, verifying transparency against the native run. It panics on
// any failure; the parallel harness uses RunConfigErr instead.
func RunConfig(b *workload.Benchmark, opts core.Options, clients ...core.Client) *ConfigResult {
	res, err := runConfig(b, opts, clients...)
	if err != nil {
		panic(err)
	}
	return res
}

// RunConfigErr is RunConfig with every failure — including panics from the
// runtime or a client — converted to an error, so one broken cell of a
// parallel sweep reports instead of killing the whole run.
func RunConfigErr(b *workload.Benchmark, opts core.Options, clients ...core.Client) (res *ConfigResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("harness: %s: panic: %v", b.Name, p)
		}
	}()
	return runConfig(b, opts, clients...)
}

func runConfig(b *workload.Benchmark, opts core.Options, clients ...core.Client) (*ConfigResult, error) {
	native, err := runNative(b)
	if err != nil {
		return nil, err
	}
	m := machine.New(machine.PentiumIV())
	r := core.New(m, b.Image(), opts, nil, clients...)
	if err := r.Run(oracle.RunLimit); err != nil {
		return nil, fmt.Errorf("harness: %s under %+v: %v", b.Name, opts.Mode, err)
	}
	if !bytes.Equal(m.Output, native.Output) {
		return nil, fmt.Errorf("harness: %s: transparency violated: output %q != native %q",
			b.Name, m.Output, native.Output)
	}
	return &ConfigResult{
		Ticks:      m.Ticks,
		Normalized: float64(m.Ticks) / float64(native.Ticks),
		Output:     m.Output,
		RIOStats:   r.StatsSnapshot(),
		Machine:    m.Stats,
	}, nil
}

// OptConfig names one bar group of Figure 5.
type OptConfig int

// Figure 5 configurations, in the paper's order.
const (
	ConfigBase OptConfig = iota
	ConfigRLR
	ConfigInc2Add
	ConfigIBDispatch
	ConfigCTrace
	ConfigAll
	NumOptConfigs
)

var optConfigNames = [NumOptConfigs]string{
	"base", "rlr", "inc2add", "ibdispatch", "ctrace", "all",
}

func (c OptConfig) String() string { return optConfigNames[c] }

// ClientsFor builds fresh client instances for a Figure 5 configuration
// (clients hold per-run state and must never be shared between runs).
func ClientsFor(c OptConfig) []core.Client {
	switch c {
	case ConfigRLR:
		return []core.Client{rlr.New()}
	case ConfigInc2Add:
		return []core.Client{inc2add.New()}
	case ConfigIBDispatch:
		return []core.Client{ibdispatch.New()}
	case ConfigCTrace:
		return []core.Client{ctrace.New()}
	case ConfigAll:
		return []core.Client{rlr.New(), inc2add.New(), ibdispatch.New(), ctrace.New()}
	default:
		return nil
	}
}

// GeoMean returns the geometric mean of xs.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
