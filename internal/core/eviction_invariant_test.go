package core_test

// Property tests for the bounded-cache allocator: after every forced
// eviction, the runtime's link graph and lookup structures must contain no
// trace of the victim — no outgoing link and no IBL hashtable entry may
// target freed cache memory — and the freed bytes must actually be reused
// (the cache stays within its byte budget no matter how much code the
// workload churns through). Every eviction kills its victim, and the
// victim's fragment-deleted event fires at the next dispatcher safe point,
// when the thread is outside the cache, so a client can walk the full
// structures there; Context.CheckCacheInvariants is that walk. The
// evictions and resizes themselves are observed where the runtime reports
// them: the event ring and Stats.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// invariantChecker is a client that audits the runtime's cache data
// structures on every fragment-deleted event, and drains the event ring
// there, counting events by type.
type invariantChecker struct {
	t       *testing.T
	deleted uint64
	events  map[obs.EventType]uint64
	failed  bool
	ctx     *core.Context // last context seen, for end-of-run assertions
}

var _ core.FragmentDeletedHook = (*invariantChecker)(nil)

func (c *invariantChecker) Name() string { return "invariant-checker" }

func (c *invariantChecker) check(ctx *core.Context, event string) {
	c.ctx = ctx
	c.drain(ctx.RIO())
	if c.failed {
		return // one violation is enough; don't flood the log
	}
	if err := ctx.CheckCacheInvariants(); err != nil {
		c.failed = true
		c.t.Errorf("after %s: %v", event, err)
	}
}

// drain empties the runtime's event ring into the per-type counts.
func (c *invariantChecker) drain(r *core.RIO) {
	if c.events == nil {
		c.events = map[obs.EventType]uint64{}
	}
	for _, ev := range r.Tracer().Drain() {
		c.events[ev.Type]++
	}
}

func (c *invariantChecker) FragmentDeleted(ctx *core.Context, tag machine.Addr) {
	c.deleted++
	c.check(ctx, "fragment deleted")
}

// invariantWorkloads is the subset of the suite the property tests run:
// enough variety (loops, indirect branches, recursion, self-modifying code
// pressure) to exercise every eviction path without re-running the full
// 22-benchmark matrix the differential oracle already covers.
func invariantWorkloads(t *testing.T) []*workload.Benchmark {
	t.Helper()
	var bs []*workload.Benchmark
	for _, name := range []string{"gzip", "gcc", "crafty", "perlbmk", "vortex", "mgrid"} {
		b := workload.ByName(name)
		if b == nil {
			t.Fatalf("workload %q not in suite", name)
		}
		bs = append(bs, b)
	}
	return bs
}

// TestEvictionInvariants runs pressured configurations with a client that
// re-validates the link graph, byte accounting and IBL hashtable at every
// fragment-deleted event, which follows every single eviction. The event
// ring, drained there, must carry exactly one evict, resize and IBL-resize
// event per eviction, cache resize and IBL resize Stats counted.
func TestEvictionInvariants(t *testing.T) {
	configs := evictionConfigs(t)
	for _, b := range invariantWorkloads(t) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			sawEvictions := false
			for _, cfg := range configs {
				if cfg.Name == "unbounded" {
					continue
				}
				chk := &invariantChecker{t: t}
				o := cfg.Opts()
				o.EventRing = 4096
				m := machine.New(machine.PentiumIV())
				r := core.New(m, b.Image(), o, nil, chk)
				if err := r.Run(oracle.RunLimit); err != nil {
					t.Fatalf("%s: %v", cfg.Name, err)
				}
				if chk.ctx != nil {
					chk.check(chk.ctx, "run end")
				}
				chk.drain(r)
				if d := r.Tracer().Dropped(); d != 0 {
					t.Errorf("%s: the ring dropped %d events between safe points", cfg.Name, d)
				}
				if chk.events[obs.EvEvict] > 0 {
					sawEvictions = true
				}
				if chk.deleted < r.Stats.Evictions {
					t.Errorf("%s: client audited %d deletions, stats counted %d evictions",
						cfg.Name, chk.deleted, r.Stats.Evictions)
				}
				for _, c := range []struct {
					ev    obs.EventType
					stats uint64
				}{
					{obs.EvEvict, r.Stats.Evictions},
					{obs.EvResize, r.Stats.CacheResizes},
					{obs.EvIBLResize, r.Stats.IBLResizes},
				} {
					if got := chk.events[c.ev]; got != c.stats {
						t.Errorf("%s: ring carried %d %s events, stats counted %d",
							cfg.Name, got, c.ev, c.stats)
					}
				}
			}
			if !sawEvictions {
				t.Error("no pressured configuration delivered an eviction event")
			}
		})
	}
}

// TestEvictionReusesFreedSpace pins the budget-respecting property directly:
// a non-adaptive basic-block cache must never grow (every block fits, so the
// ratchet escape hatch stays cold) even while the workload builds far more
// code than fits — which is only possible if freed bytes are reused. Each
// workload runs at the largest cache-sweep budget at which it still evicts
// (BENCH_cachesweep.json), with no resize there.
func TestEvictionReusesFreedSpace(t *testing.T) {
	budgets := map[string]int{"gzip": 1 << 10, "gcc": 4 << 10, "crafty": 1 << 10, "perlbmk": 4 << 10, "vortex": 1 << 10, "mgrid": 512}
	for _, b := range invariantWorkloads(t) {
		b, budget := b, budgets[b.Name]
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			chk := &invariantChecker{t: t}
			o := core.Default()
			o.BBCacheSize, o.TraceCacheSize = budget, budget
			m := machine.New(machine.PentiumIV())
			r := core.New(m, b.Image(), o, nil, chk)
			if err := r.Run(oracle.RunLimit); err != nil {
				t.Fatal(err)
			}
			live, cap := r.ContextOf(m.Threads[0]).CacheUsage(core.KindBasicBlock)
			if cap != budget {
				t.Errorf("bb cache capacity = %d, want the fixed %d budget", cap, budget)
			}
			if live > cap {
				t.Errorf("bb cache live bytes %d exceed capacity %d", live, cap)
			}
			if r.Stats.Evictions == 0 {
				t.Errorf("no evictions at %d bytes: the reuse property was not exercised (blocks built: %d)",
					budget, r.Stats.BlocksBuilt)
			}
		})
	}
}
