package machine_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// The block-vs-step differential. The native-vs-runtime oracle cannot see
// an interpreter bug, because both of its sides run on the interpreter; this
// test instead runs every case twice on the same side — once through Run's
// block runner and once one Step at a time (machine.SetStepOnly) — and
// requires every simulated value to agree: the full oracle endpoint, each
// thread's EIP and Instret, Ticks, every machine.Stats counter and, under
// the runtime, core.Stats.

// endpoint is everything one run must reproduce exactly.
type endpoint struct {
	State   oracle.State
	EIP     []machine.Addr
	Instret []uint64
	Ticks   machine.Ticks
	Stats   machine.Stats
	RIO     core.Stats
}

// runEndpoint runs case c natively (opts nil) or under the runtime with
// opts, through the block runner or, with stepOnly, one Step at a time.
func runEndpoint(c oracle.Case, opts *core.Options, stepOnly bool) (endpoint, error) {
	m := machine.New(machine.PentiumIV())
	if stepOnly {
		machine.SetStepOnly(m)
	}
	var e endpoint
	var r *core.RIO
	if opts == nil {
		c.Image.Boot(m)
	} else {
		r = core.New(m, c.Image, *opts, nil)
	}
	if c.Setup != nil {
		c.Setup(m)
	}
	if r == nil {
		if err := m.Run(oracle.RunLimit); err != nil {
			return e, err
		}
	} else {
		if err := r.Run(oracle.RunLimit); err != nil {
			return e, err
		}
		e.RIO = r.StatsSnapshot()
	}
	e.State = oracle.Capture(m)
	for _, t := range m.Threads {
		e.EIP = append(e.EIP, t.CPU.EIP)
		e.Instret = append(e.Instret, t.Instret)
	}
	e.Ticks, e.Stats = m.Ticks, m.Stats
	return e, nil
}

// checkBlockVsStep runs case c both ways under each configuration.
func checkBlockVsStep(t *testing.T, c oracle.Case) {
	t.Helper()
	tiny := core.Default()
	tiny.BBCacheSize, tiny.TraceCacheSize = 1<<10, 1<<10
	def := core.Default()
	for _, cfg := range []struct {
		name string
		opts *core.Options
	}{{"native", nil}, {"default", &def}, {"1k", &tiny}} {
		block, err := runEndpoint(c, cfg.opts, false)
		if err != nil {
			t.Fatalf("%s: block runner: %v", cfg.name, err)
		}
		step, err := runEndpoint(c, cfg.opts, true)
		if err != nil {
			t.Fatalf("%s: step only: %v", cfg.name, err)
		}
		if d := endpointDiff(step, block); d != "" {
			t.Errorf("%s: block runner differs from Step: %s", cfg.name, d)
		}
	}
}

// endpointDiff names the first component of got that differs from want.
func endpointDiff(want, got endpoint) string {
	switch {
	case !oracle.Equal(want.State, got.State):
		return oracle.Mismatch(want.State, got.State)
	case !reflect.DeepEqual(want.EIP, got.EIP):
		return fmt.Sprintf("EIP %#x, want %#x", got.EIP, want.EIP)
	case !reflect.DeepEqual(want.Instret, got.Instret):
		return fmt.Sprintf("Instret %v, want %v", got.Instret, want.Instret)
	case want.Ticks != got.Ticks:
		return fmt.Sprintf("Ticks %d, want %d", got.Ticks, want.Ticks)
	case want.Stats != got.Stats:
		return fmt.Sprintf("machine stats %+v, want %+v", got.Stats, want.Stats)
	case !reflect.DeepEqual(want.RIO, got.RIO):
		return fmt.Sprintf("runtime stats %+v, want %+v", got.RIO, want.RIO)
	}
	return ""
}

// TestBlockVsStepWorkloads runs all 22 workloads natively, under the
// default runtime and under 1 KiB caches.
func TestBlockVsStepWorkloads(t *testing.T) {
	for _, b := range workload.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			checkBlockVsStep(t, oracle.Case{Name: b.Name, Image: b.Image()})
		})
	}
}

// TestBlockVsStepFuzz runs 200 generated programs the same way, each with
// its guard page unarmed and then, in the armed subtest, armed. Armed, a
// program's guarded read may take a #PF, which the block runner and Step
// must deliver alike (the fault precision table covers the other forms).
func TestBlockVsStepFuzz(t *testing.T) {
	const seeds = 200
	for seed := int64(1); seed <= seeds; seed++ {
		c, err := fuzz.Case(fuzz.Generate(seed, 40))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			checkBlockVsStep(t, oracle.Case{Image: c.Image})
			t.Run("armed", func(t *testing.T) { checkBlockVsStep(t, c) })
		})
	}
}
