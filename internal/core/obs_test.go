package core_test

// Observability invariants. Phase accounting must conserve ticks — every
// simulated tick lands in exactly one phase, so the per-phase counts sum to
// machine.Ticks — and the fragment bookkeeping must conserve fragments:
// everything built is either still live or was delivered dead, per kind.
// Both must hold across the cache sweep's eviction-stress columns, because
// eviction, regeneration and adaptive resizing are exactly the paths that
// re-attribute ticks and recycle fragments.

import (
	"sync"
	"testing"

	"repro/internal/core"
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

// TestPhaseAndCounterConservation runs every workload through the
// differential configuration matrix with phase accounting enabled and checks
// the two conservation invariants plus the structural cache invariants.
func TestPhaseAndCounterConservation(t *testing.T) {
	configs := evictionConfigs(t)
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range configs {
				m := machine.New(machine.PentiumIV())
				r := core.New(m, b.Image(), profiled(cfg.Opts(), 0), nil)
				if err := r.Run(oracle.RunLimit); err != nil {
					t.Fatalf("%s: %v", cfg.Name, err)
				}

				// Tick conservation: the breakdown covers the whole run.
				pt := r.PhaseTicks()
				if sum := pt.Sum(); sum != uint64(m.Ticks) {
					t.Errorf("%s: phase ticks sum %d != machine ticks %d (breakdown %v)",
						cfg.Name, sum, m.Ticks, pt.Map())
				}
				if pt[obs.PhaseAppCacheBB]+pt[obs.PhaseAppCacheTrace] == 0 {
					t.Errorf("%s: no ticks attributed to cache-resident application code", cfg.Name)
				}

				// Fragment conservation: built == live + delivered dead,
				// per kind. No clients run, so nothing is replaced.
				s := r.StatsSnapshot()
				liveBB, liveTrace := r.LiveFragmentCounts()
				if s.BlocksBuilt != liveBB+s.FragmentsDeletedBB {
					t.Errorf("%s: BlocksBuilt %d != live %d + deleted %d",
						cfg.Name, s.BlocksBuilt, liveBB, s.FragmentsDeletedBB)
				}
				if s.TracesBuilt != liveTrace+s.FragmentsDeletedTrace {
					t.Errorf("%s: TracesBuilt %d != live %d + deleted %d",
						cfg.Name, s.TracesBuilt, liveTrace, s.FragmentsDeletedTrace)
				}
				if s.FragmentsDeleted != s.FragmentsDeletedBB+s.FragmentsDeletedTrace {
					t.Errorf("%s: FragmentsDeleted %d != BB %d + trace %d",
						cfg.Name, s.FragmentsDeleted, s.FragmentsDeletedBB, s.FragmentsDeletedTrace)
				}

				// Eviction work must be attributed to the eviction phase.
				if s.Evictions > 0 && pt[obs.PhaseEviction] == 0 {
					t.Errorf("%s: %d evictions but zero eviction-phase ticks", cfg.Name, s.Evictions)
				}

				// Profile-side conservation: every emission recorded a
				// build, every eviction an eviction.
				var builds, evictions uint64
				for _, p := range r.FragmentProfiles() {
					builds += p.Builds
					evictions += p.Evictions
				}
				if builds != s.BlocksBuilt+s.TracesBuilt {
					t.Errorf("%s: profile builds %d != blocks %d + traces %d",
						cfg.Name, builds, s.BlocksBuilt, s.TracesBuilt)
				}
				if evictions != s.Evictions {
					t.Errorf("%s: profile evictions %d != Stats.Evictions %d",
						cfg.Name, evictions, s.Evictions)
				}

				for _, th := range m.Threads {
					if ctx := r.ContextOf(th); ctx != nil {
						if err := ctx.CheckCacheInvariants(); err != nil {
							t.Errorf("%s: thread %d: %v", cfg.Name, th.ID, err)
						}
					}
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
