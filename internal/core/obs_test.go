package core_test

// Observability invariants. Tick and fragment conservation are checked on
// every differential cell by oracle.Outcome.Failure (the cache sweep's
// profiled stress columns run every workload through them, and
// TestPhaseAndCounterConservation profiles the two columns it leaves
// unprofiled); the other tests here cover profiles across eviction, the
// event ring's transparency, the fault-translation phase and concurrent
// Stats snapshots.

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// profiled returns cfg's options with the observability layer switched on.
func profiled(opts core.Options, ring int) core.Options {
	opts.Profile = true
	opts.EventRing = ring
	return opts
}

// TestPhaseAndCounterConservation runs every workload through the cache
// sweep's unbounded and 4 KiB columns with phase accounting and fragment
// profiles on, and requires every cell to pass oracle.Outcome.Failure: the
// profiled checks (tick conservation, cache-resident ticks, eviction-phase
// ticks, profile builds and evictions) as well as fragment conservation and
// the cache invariants. The sweep itself profiles only its single-fragment
// and adaptive-from-2k columns, so these are the columns that only this
// test runs profiled.
func TestPhaseAndCounterConservation(t *testing.T) {
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			s, err := harness.NewSuite("cachesweep", harness.SuiteParams{Benches: []*workload.Benchmark{b}})
			if err != nil {
				t.Fatal(err)
			}
			configs := slices.DeleteFunc(s.Configs, func(c oracle.Config) bool {
				return c.Name != "unbounded" && c.Name != "4k"
			})
			for i := range configs {
				opts := configs[i].Opts
				configs[i].Opts = func() core.Options { return profiled(opts(), 0) }
			}
			outs, err := oracle.Diff(1, s.Cases, configs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != 2 {
				t.Fatalf("%d outcomes, want 2 (unbounded and 4k)", len(outs))
			}
			for _, o := range outs {
				if o.Phases == nil {
					t.Errorf("%s: no phase ticks: the run was not profiled", o.Config)
				}
				if f := o.Failure(); f != "" {
					t.Errorf("%s: %s", o.Config, f)
				}
			}
		})
	}
}

// TestProfilesSurviveEviction thrashes a single-fragment-sized cache and
// checks that fragment profiles persist across evict/rebuild cycles: the
// same identity accumulates builds, evictions and executions instead of
// starting over.
func TestProfilesSurviveEviction(t *testing.T) {
	b := workload.ByName("crafty")
	if b == nil {
		t.Fatal("crafty not in suite")
	}
	opts := core.Default()
	opts.BBCacheSize, opts.TraceCacheSize = 16, 16
	m := machine.New(machine.PentiumIV())
	r := core.New(m, b.Image(), profiled(opts, 0), nil)
	if err := r.Run(oracle.RunLimit); err != nil {
		t.Fatal(err)
	}
	s := r.StatsSnapshot()
	if s.Evictions == 0 {
		t.Fatal("no evictions: persistence was not exercised")
	}
	profs := r.FragmentProfiles()
	rebuilt := 0
	for _, p := range profs {
		if p.Builds > 1 && p.Evictions > 0 {
			rebuilt++
		}
		if p.Execs < p.Builds {
			t.Errorf("fragment %#x (%v): %d builds but only %d executions — counts reset across rebuild?",
				p.Tag, p.Trace, p.Builds, p.Execs)
		}
	}
	if rebuilt == 0 {
		t.Errorf("no profile shows builds>1 with evictions>0 across %d profiles under a thrashing cache", len(profs))
	}
}

// TestEventRingTransparency runs the same workload with the event ring off
// and on under cache pressure (so emit/link/unlink/evict/resize events all
// fire) and requires identical architectural state and identical simulated
// time: tracing must observe, never perturb.
func TestEventRingTransparency(t *testing.T) {
	for _, name := range []string{"gzip", "crafty"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b := workload.ByName(name)
			if b == nil {
				t.Fatalf("%s not in suite", name)
			}
			run := func(ring int) (oracle.State, machine.Ticks, *core.RIO) {
				opts := core.Default()
				opts.BBCacheSize, opts.TraceCacheSize = 1024, 1024
				m := machine.New(machine.PentiumIV())
				r := core.New(m, b.Image(), profiled(opts, ring), nil)
				if err := r.Run(oracle.RunLimit); err != nil {
					t.Fatalf("ring=%d: %v", ring, err)
				}
				return oracle.Capture(m), m.Ticks, r
			}
			offState, offTicks, _ := run(0)
			onState, onTicks, r := run(1024)
			if !oracle.Equal(offState, onState) {
				t.Error("architectural state diverged with the event ring enabled")
			}
			if offTicks != onTicks {
				t.Errorf("simulated time changed with the event ring enabled: %d != %d", onTicks, offTicks)
			}
			events := r.Tracer().Drain()
			if len(events) == 0 {
				t.Fatal("pressured run recorded no events")
			}
			var emits, evicts int
			for i, ev := range events {
				if i > 0 && events[i-1].Seq >= ev.Seq {
					t.Fatalf("events out of sequence order at %d", i)
				}
				switch ev.Type {
				case obs.EvEmit:
					emits++
				case obs.EvEvict:
					evicts++
				}
			}
			if emits == 0 || evicts == 0 {
				t.Errorf("expected emit and evict events, got %d/%d", emits, evicts)
			}
		})
	}
}

// TestFaultTranslatePhase injects a fault at a syscall boundary inside the
// cache and checks the translation work lands in the fault-translate phase
// without breaking tick conservation.
func TestFaultTranslatePhase(t *testing.T) {
	b := workload.ByName("gzip")
	if b == nil {
		t.Fatal("gzip not in suite")
	}
	m := machine.New(machine.PentiumIV())
	r := core.New(m, b.Image(), profiled(core.Default(), 64), nil)
	m.InjectFaultAtSyscall(0, 0, machine.FaultSoftware, 0)
	if err := r.Run(oracle.RunLimit); err != nil {
		t.Fatal(err)
	}
	s := r.StatsSnapshot()
	if s.FaultsTranslated == 0 {
		t.Fatal("injected fault was not translated")
	}
	pt := r.PhaseTicks()
	if pt[obs.PhaseFaultTranslate] == 0 {
		t.Error("fault translation charged no ticks to its phase")
	}
	if sum := pt.Sum(); sum != uint64(m.Ticks) {
		t.Errorf("phase ticks sum %d != machine ticks %d after fault translation", sum, m.Ticks)
	}
	var sawXl8 bool
	for _, ev := range r.Tracer().Drain() {
		if ev.Type == obs.EvFaultXl8 {
			sawXl8 = true
		}
	}
	if !sawXl8 {
		t.Error("no fault-xl8 event recorded")
	}
}

// TestStatsSnapshotConcurrentWithRun hammers StatsSnapshot and the tracer
// drain from another goroutine while the runtime executes — the race-safety
// contract of the observability read side (run under -race in CI).
func TestStatsSnapshotConcurrentWithRun(t *testing.T) {
	b := workload.ByName("crafty")
	if b == nil {
		t.Fatal("crafty not in suite")
	}
	opts := core.Default()
	opts.BBCacheSize, opts.TraceCacheSize = 1024, 1024
	m := machine.New(machine.PentiumIV())
	r := core.New(m, b.Image(), profiled(opts, 256), nil)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var drained int
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			s := r.StatsSnapshot()
			_ = s.BBCacheLiveBytes + s.TraceCacheLiveBytes
			drained += len(r.Tracer().Drain())
		}
	}()
	err := r.Run(oracle.RunLimit)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	final := r.StatsSnapshot()
	if final.BlocksBuilt == 0 || final.Evictions == 0 {
		t.Errorf("run did no observable work: %+v", final)
	}
	total := drained + len(r.Tracer().Drain())
	if total == 0 && r.Tracer().Dropped() == 0 {
		t.Error("event ring recorded nothing during a pressured run")
	}
}
