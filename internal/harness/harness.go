// Package harness runs the paper's experiments over the synthetic SPEC2000
// suite. Every simulated measurement is a cell of a differential suite
// (diff.go) run on the one engine, oracle.Diff, so each published number
// comes from a run that matched native on the full oracle state. Table 1,
// Figure 5, the cache and IBL sweeps and the telemetry report are views over
// those outcomes (views.go); Table 2 times the instruction representation
// levels directly (table2.go).
package harness

import (
	"math"

	"repro/internal/clients/ctrace"
	"repro/internal/clients/ibdispatch"
	"repro/internal/clients/inc2add"
	"repro/internal/clients/rlr"
	"repro/internal/core"
	"repro/internal/oracle"
)

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

// Figure5Options returns the configuration Figure 5 measures against: the
// paper's base system. The indirect-branch lookup is pinned to the fixed
// direct-mapped table without flag-save elision, so the Section 4 client
// optimizations (which attack exactly that indirect-branch overhead) are
// compared against the system the paper describes. The adaptive
// open-address IBL and eflags-liveness elision are evaluated separately by
// the IBL sweep (the ibl suite's view, drbench -diff ibl), which includes
// this configuration as its ablation baseline.
func Figure5Options() core.Options {
	o := core.Default()
	o.IBL = core.IBLDirect
	o.FlagsElision = false
	return o
}

// Figure5Config is Figure 5's column for one client set: fresh clients per
// run on the paper's base system.
func Figure5Config(c OptConfig) oracle.Config {
	return oracle.Config{Name: c.String(), Opts: Figure5Options,
		Clients: func() []core.Client { return ClientsFor(c) }}
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
