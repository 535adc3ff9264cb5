package harness

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/image"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// The differential suites: every transparency check of the repository as
// data for the one engine, oracle.Diff. A suite names its programs, its
// runtime configurations and its perturbations, plus the coverage check that
// proves a passing run was not vacuous — the mechanism under test actually
// ran. The paper's Section 3 contract is the same for all of them: the
// runtime may change every performance counter but never the application's
// architectural endpoint.

// Suite is one named differential matrix.
type Suite struct {
	Name          string
	Cases         []oracle.Case
	Configs       []oracle.Config
	Perturbations []oracle.Perturbation
	// Coverage, when non-nil, reports what a complete run of the suite
	// failed to exercise.
	Coverage func([]oracle.Outcome) error
	// View, when non-nil, is the suite's one published table.
	View *View
}

// SuiteParams selects what the suites run over.
type SuiteParams struct {
	Benches   []*workload.Benchmark // nil means every benchmark
	Seeds     []int64               // fault and chaos schedule seeds; nil means 101, 202, 303
	FuzzSeeds []int64               // generator seeds of the fuzz suites; nil means 1..200
	FuzzOps   int                   // statement budget per generated program; 0 means 40
	// TraceEvents, when set, receives the telemetry suite's span stream:
	// one process track per instrumented run. The caller closes it.
	TraceEvents *obs.TraceWriter
}

// suiteBuilders maps each suite name to its constructor, in SuiteNames order.
var suiteBuilders = []struct {
	name  string
	build func(SuiteParams) (*Suite, error)
}{
	{"verify", verifySuite},
	{"ibl", iblSuite},
	{"cachesweep", cacheSweepSuite},
	{"faultstorm", faultStormSuite},
	{"chaosstorm", chaosStormSuite},
	{"fuzz", fuzzSuite},
	{"fuzzchaos", fuzzChaosSuite},
	{"telemetry", telemetrySuite},
}

// SuiteNames lists the differential suites.
func SuiteNames() []string {
	names := make([]string, len(suiteBuilders))
	for i, s := range suiteBuilders {
		names[i] = s.name
	}
	return names
}

// NewSuite builds the named suite.
func NewSuite(name string, p SuiteParams) (*Suite, error) {
	if p.Benches == nil {
		p.Benches = workload.All()
	}
	if p.Seeds == nil {
		p.Seeds = []int64{101, 202, 303}
	}
	if p.FuzzSeeds == nil {
		p.FuzzSeeds = SeedRange(1, 200)
	}
	if p.FuzzOps == 0 {
		p.FuzzOps = 40
	}
	for _, s := range suiteBuilders {
		if s.name == name {
			suite, err := s.build(p)
			if err == nil {
				suite.Name = name
			}
			return suite, err
		}
	}
	return nil, fmt.Errorf("harness: unknown differential suite %q (have %s)", name, strings.Join(SuiteNames(), ", "))
}

// SeedRange returns n consecutive seeds starting at base.
func SeedRange(base int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// Run executes the suite's matrix.
func (s *Suite) Run(workers int) ([]oracle.Outcome, error) {
	return oracle.Diff(workers, s.Cases, s.Configs, s.Perturbations)
}

// Check returns nil when every outcome of a complete run passed and the
// coverage check holds; otherwise it names the first few failing cells and
// the coverage gaps.
func (s *Suite) Check(outs []oracle.Outcome) error {
	var errs []error
	failed := 0
	for _, o := range outs {
		if f := o.Failure(); f != "" {
			if failed++; failed <= 5 {
				errs = append(errs, fmt.Errorf("%s/%s/%s: %s", o.Case, o.Perturbation, o.Config, f))
			}
		}
	}
	if failed > 5 {
		errs = append(errs, fmt.Errorf("... %d failing runs in all", failed))
	}
	if s.Coverage != nil {
		if err := s.Coverage(outs); err != nil {
			errs = append(errs, fmt.Errorf("coverage: %w", err))
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %w", s.Name, errors.Join(errs...))
}

// benchCases wraps the benchmarks as differential cases.
func benchCases(benches []*workload.Benchmark) []oracle.Case {
	cases := make([]oracle.Case, len(benches))
	for i, b := range benches {
		cases[i] = oracle.Case{Name: b.Name, Image: b.Image()}
	}
	return cases
}

// defaultWith returns a config builder applying mod to core.Default().
func defaultWith(mod func(*core.Options)) func() core.Options {
	return func() core.Options {
		o := core.Default()
		mod(&o)
		return o
	}
}

// bounded sets both cache budgets.
func bounded(bytes int) func(*core.Options) {
	return func(o *core.Options) { o.BBCacheSize, o.TraceCacheSize = bytes, bytes }
}

// verifySuite is the transparency matrix behind Table 1 and Figure 5: every
// benchmark under the Table 1 feature ladder, under the six Figure 5 client
// sets on the paper's base system (Figure5Options) — the published cells —
// and under all four clients on the default runtime, so the clients also
// meet adaptive IBL and flag-save elision. Its published view is Figure 5.
func verifySuite(p SuiteParams) (*Suite, error) {
	var configs []oracle.Config
	for i, opts := range core.TableOneLadder() {
		configs = append(configs, oracle.Config{Name: tableOneLadder[i].config, Opts: func() core.Options { return opts }})
	}
	for c := ConfigBase; c < NumOptConfigs; c++ {
		configs = append(configs, Figure5Config(c))
	}
	configs = append(configs, oracle.Config{Name: "all-default", Opts: core.Default,
		Clients: func() []core.Client { return ClientsFor(ConfigAll) }})
	return &Suite{Cases: benchCases(p.Benches), Configs: configs,
		View: &View{Name: "figure5", Configs: Figure5Configs(), Format: FormatFigure5}}, nil
}

// iblSuite is the IBL sweep: the paper-era direct-mapped table at two sizes
// as the ablation baseline, the open-address table at the same fixed sizes,
// the adaptive table growing from the small size, and the elision ablation
// (open-address with the conservative pushfd/popfd prefix everywhere). 64
// entries is deliberately under-provisioned for the indirect-heavy
// workloads, so the sweep shows both how the direct-mapped table degrades
// (conflict misses back to the dispatcher) and how adaptive growth escapes;
// the tiny tables also drive long probe chains and displacement.
func iblSuite(p SuiteParams) (*Suite, error) {
	mk := func(bits uint, org core.IBLOrg, elide bool) func() core.Options {
		return defaultWith(func(o *core.Options) {
			o.IBLTableBits, o.IBL, o.FlagsElision = bits, org, elide
		})
	}
	noElide := []string{"direct-64", "direct-256", "open-256-noelide"}
	return &Suite{
		Cases: benchCases(p.Benches),
		Configs: []oracle.Config{
			{Name: "direct-64", Opts: mk(6, core.IBLDirect, false)},
			{Name: "direct-256", Opts: mk(8, core.IBLDirect, false)},
			{Name: "open-64", Opts: mk(6, core.IBLOpenFixed, true)},
			{Name: "open-256", Opts: mk(8, core.IBLOpenFixed, true)},
			{Name: "adaptive-from-64", Opts: mk(6, core.IBLOpenAdaptive, true)},
			{Name: "open-256-noelide", Opts: mk(8, core.IBLOpenFixed, false)},
		},
		Coverage: func(outs []oracle.Outcome) error {
			var errs []error
			var elisions, collisions, resizes, replaced uint64
			for _, o := range outs {
				s := o.Stats
				if slices.Contains(noElide, o.Config) && s.FlagsElisions+s.InlineChecksElided != 0 {
					errs = append(errs, fmt.Errorf("%s/%s: elision ran with FlagsElision off", o.Case, o.Config))
				}
				if o.Config != "adaptive-from-64" && s.IBLResizes != 0 {
					errs = append(errs, fmt.Errorf("%s/%s: table grew in a fixed-size configuration", o.Case, o.Config))
				}
				elisions += s.FlagsElisions + s.InlineChecksElided
				collisions += s.IBLCollisions
				resizes += s.IBLResizes
				replaced += s.IBLReplaced
			}
			errs = append(errs, requireNonzero(map[string]uint64{
				"flag-save elisions": elisions, "IBL collisions": collisions,
				"IBL resizes": resizes, "IBL displacements": replaced,
			}))
			return errors.Join(errs...)
		},
		View: &View{Name: "iblsweep", Format: FormatIBLSweep},
	}, nil
}

// cacheSweepSuite is the cache-size sweep and the eviction differential:
// fixed per-thread budgets from severe to comfortable pressure, the unbounded
// baseline, the adaptive sizer starting from the smallest fixed budget, a
// maximally thrashing cache (a 16-byte budget ratchets capacity to the
// largest fragment seen) and the adaptive sizer starting from 2 KiB. The
// ladder is scaled to the synthetic suite's working sets (most benchmarks
// keep 0.7–1.8 KiB of live code; gcc and perlbmk tens of KiB), so 512 bytes
// pressures everything and 4 KiB only the two giants. Every benchmark must
// evict at 512 bytes, evict and regenerate under the 4k, single-fragment and
// adaptive-from-2k columns, and never evict when unbounded, where its
// live-byte gauges must read nonzero. Adaptive sizing, which starts at 512
// bytes, must never end up slower than staying there (the point of Section
// 6.2), and both adaptive columns must resize somewhere. The published sweep
// is the first six columns. The two stress columns run with phase
// accounting and fragment profiles on, so that each of their cells must
// also conserve ticks and profile counts (oracle.Outcome.Failure) under
// maximal eviction and under adaptive resizing.
func cacheSweepSuite(p SuiteParams) (*Suite, error) {
	adaptiveFrom := func(bytes int, profile bool) func() core.Options {
		return defaultWith(func(o *core.Options) {
			bounded(bytes)(o)
			o.AdaptiveCache, o.Profile = true, profile
		})
	}
	configs := []oracle.Config{
		{Name: "512", Opts: defaultWith(bounded(512))},
		{Name: "1k", Opts: defaultWith(bounded(1 << 10))},
		{Name: "2k", Opts: defaultWith(bounded(2 << 10))},
		{Name: "4k", Opts: defaultWith(bounded(4 << 10))},
		{Name: "unbounded", Opts: core.Default},
		{Name: "adaptive", Opts: adaptiveFrom(512, false)},
		{Name: "single-fragment", Opts: defaultWith(func(o *core.Options) { bounded(16)(o); o.Profile = true })},
		{Name: "adaptive-from-2k", Opts: adaptiveFrom(2<<10, true)},
	}
	n := len(configs)
	return &Suite{
		Cases:   benchCases(p.Benches),
		Configs: configs,
		Coverage: func(outs []oracle.Outcome) error {
			var errs []error
			var resizes, resizesFrom2k uint64
			// Outcomes come case by case; each case's columns are found
			// by name.
			for i := 0; i+n <= len(outs); i += n {
				var tight, unbounded, adaptive oracle.Outcome
				var evictions, regenerations uint64
				for _, o := range outs[i : i+n] {
					switch o.Config {
					case "512":
						tight = o
					case "unbounded":
						unbounded = o
					case "adaptive":
						adaptive = o
					case "adaptive-from-2k":
						resizesFrom2k += o.Stats.CacheResizes
						fallthrough
					case "4k", "single-fragment":
						evictions += o.Stats.Evictions
						regenerations += o.Stats.Regenerations
					}
				}
				name := outs[i].Case
				if tight.Stats.Evictions == 0 {
					errs = append(errs, fmt.Errorf("%s: the 512-byte budget never evicted", name))
				}
				if evictions == 0 || regenerations == 0 {
					errs = append(errs, fmt.Errorf("%s: pressured columns: %d evictions, %d regenerations", name, evictions, regenerations))
				}
				u := unbounded.Stats
				if u.Evictions != 0 {
					errs = append(errs, fmt.Errorf("%s: unbounded cache evicted %d fragments", name, u.Evictions))
				}
				if u.BBCacheLiveBytes == 0 || u.TraceCacheLiveBytes == 0 {
					errs = append(errs, fmt.Errorf("%s: unbounded live-byte gauges read bb=%d trace=%d", name, u.BBCacheLiveBytes, u.TraceCacheLiveBytes))
				}
				if adaptive.Normalized() > tight.Normalized() {
					errs = append(errs, fmt.Errorf("%s: adaptive (%.3f) slower than the fixed 512-byte budget (%.3f)",
						name, adaptive.Normalized(), tight.Normalized()))
				}
				resizes += adaptive.Stats.CacheResizes
			}
			return errors.Join(append(errs, requireNonzero(map[string]uint64{
				"adaptive cache resizes": resizes, "adaptive-from-2k cache resizes": resizesFrom2k,
			}))...)
		},
		View: &View{Name: "cachesweep", Configs: []string{"512", "1k", "2k", "4k", "unbounded", "adaptive"}, Format: FormatCacheSweep},
	}, nil
}

// requireNonzero reports every named total that is zero.
func requireNonzero(totals map[string]uint64) error {
	var zero []string
	for name, n := range totals {
		if n == 0 {
			zero = append(zero, name)
		}
	}
	if len(zero) == 0 {
		return nil
	}
	slices.Sort(zero)
	return fmt.Errorf("the matrix recorded zero %s", strings.Join(zero, ", zero "))
}

// faultPerturbations draws one machine-fault schedule per seed.
func faultPerturbations(seeds []int64) []oracle.Perturbation {
	perts := make([]oracle.Perturbation, len(seeds))
	for i, seed := range seeds {
		perts[i] = oracle.Perturbation{Name: fmt.Sprintf("faults-%d", seed), Seed: seed, Faults: true}
	}
	return perts
}

// faultStormSuite replays seeded machine-fault schedules (1–3 faults at
// system-call points of each benchmark's clean trace) natively and under an
// unbounded, a pressured 4 KiB, and an elision-off direct-mapped runtime, so
// fault translation is exercised with stable fragments, across FIFO eviction
// churn, and through both forms of the IBL target prefix. The delivered
// fault sequences (kinds, data addresses, native faulting EIPs) must agree.
func faultStormSuite(p SuiteParams) (*Suite, error) {
	return &Suite{
		Cases: benchCases(p.Benches),
		Configs: []oracle.Config{
			{Name: "unbounded", Opts: core.Default},
			{Name: "4k", Opts: defaultWith(bounded(4 << 10))},
			{Name: "direct-noelide", Opts: defaultWith(func(o *core.Options) {
				o.IBL, o.FlagsElision = core.IBLDirect, false
			})},
		},
		Perturbations: faultPerturbations(p.Seeds),
		Coverage: func(outs []oracle.Outcome) error {
			var errs []error
			var translated, elided uint64
			for _, o := range outs {
				if o.Faults == 0 {
					errs = append(errs, fmt.Errorf("%s/%s: no fault delivered", o.Case, o.Perturbation))
				}
				translated += o.Stats.FaultsTranslated
				e := o.Stats.FlagsElisions + o.Stats.InlineChecksElided
				if o.Config != "direct-noelide" {
					elided += e
				} else if e != 0 {
					errs = append(errs, fmt.Errorf("%s/%s: elision ran in the direct-noelide column", o.Case, o.Perturbation))
				}
			}
			errs = append(errs, requireNonzero(map[string]uint64{
				"translated fault contexts": translated, "flag-save elisions in the elided columns": elided,
			}))
			return errors.Join(errs...)
		},
	}, nil
}

// chaosConfigs are the unbounded runtime and a pressured bounded runtime with
// a small IBL table, so rollback is exercised both with stable fragments and
// amid eviction churn and hashtable resizes (the only way the evict-scrub
// and IBL-resize sites are reachable).
func chaosConfigs() []oracle.Config {
	return []oracle.Config{
		{Name: "unbounded", Opts: core.Default},
		{Name: "4k-smallibl", Opts: defaultWith(func(o *core.Options) {
			bounded(4 << 10)(o)
			o.IBLTableBits = 4
		})},
	}
}

// chaosPerturbations pairs a seeded chaos.Schedule over every site with a
// machine-fault schedule per seed (so internal failures compose with fault
// translation, and the fault-xl8 site has something to fire on), plus one
// Storm burst whose trigger budget exhausts mid-run: the thread must degrade
// and then re-attach to full service.
func chaosPerturbations(seeds []int64) []oracle.Perturbation {
	var perts []oracle.Perturbation
	for _, seed := range seeds {
		perts = append(perts, oracle.Perturbation{Name: fmt.Sprintf("chaos-%d", seed), Seed: seed,
			Faults: true, Triggers: chaos.Schedule(seed, chaos.AllSites())})
	}
	return append(perts, oracle.Perturbation{Name: fmt.Sprintf("storm-%d", seeds[0]), Seed: seeds[0],
		Triggers: chaos.Storm(seeds[0])})
}

// chaosCoverage requires every injected failure to have been handled by
// recovery (or, after a failed audit, detach), and the storm schedules to
// complete the degradation ladder's round trip. With allSites, every chaos
// site must also have fired somewhere.
func chaosCoverage(allSites bool) func([]oracle.Outcome) error {
	return func(outs []oracle.Outcome) error {
		var errs []error
		var reattaches uint64
		for _, o := range outs {
			if o.TotalFires() > 0 && o.Stats.Recoveries == 0 && o.Stats.Detaches == 0 {
				errs = append(errs, fmt.Errorf("%s/%s/%s: %d fires but no recovery", o.Case, o.Perturbation, o.Config, o.TotalFires()))
			}
			reattaches += o.Stats.Reattaches
		}
		totals := map[string]uint64{"re-attaches": reattaches}
		if allSites {
			fires := SiteFires(outs)
			for _, site := range chaos.AllSites() {
				totals[site.String()+" fires"] = fires[site.String()]
			}
		}
		return errors.Join(append(errs, requireNonzero(totals))...)
	}
}

// SiteFires totals chaos injections per site name across outcomes.
func SiteFires(outs []oracle.Outcome) map[string]uint64 {
	totals := map[string]uint64{}
	for _, o := range outs {
		for name, n := range o.Fires {
			totals[name] += n
		}
	}
	return totals
}

// signalsCaseSrc is a call-heavy loop with a queued-signal counter: the calls
// keep the dispatcher, IBL and trace machinery busy so chaos triggers have
// sites to land on, and the handler count is part of the printed output so
// dropped or duplicated deliveries break the oracle comparison.
const signalsCaseSrc = `
main:
    mov ecx, 400
loop:
    call f0
    call f1
    call f2
    call f3
    dec ecx
    jnz loop
    mov eax, 3
    mov ebx, edx
    int 0x80
    mov eax, 3
    mov ebx, [hits]
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
sig:
    inc dword [hits]
    ret
f0: add edx, 1
    ret
f1: add edx, 2
    ret
f2: add edx, 3
    ret
f3: add edx, 5
    ret
.org 0x9000
hits: .word 0
`

// signalsCase queues three signal deliveries, exercising the signal site no
// benchmark reaches on its own.
func signalsCase() oracle.Case {
	img := image.MustAssemble("signals", signalsCaseSrc)
	sig := img.Symbol("sig")
	return oracle.Case{Name: "signals", Image: img, Setup: func(m *machine.Machine) {
		for range 3 {
			m.QueueSignal(m.Threads[0], sig)
		}
	}}
}

// chaosStormSuite perturbs the runtime itself: seeded chaos schedules fire
// synthetic internal failures at every fragile boundary while the workload
// runs. Every failure must roll back transactionally, pass the cache
// invariant audit and walk the degradation ladder, with the endpoint
// bit-identical to a native run under the same machine-fault plans.
func chaosStormSuite(p SuiteParams) (*Suite, error) {
	return &Suite{
		Cases:         append(benchCases(p.Benches), signalsCase()),
		Configs:       chaosConfigs(),
		Perturbations: chaosPerturbations(p.Seeds),
		Coverage:      chaosCoverage(true),
	}, nil
}

// fuzzCases generates and assembles one program per seed.
func fuzzCases(seeds []int64, ops int) ([]oracle.Case, error) {
	cases := make([]oracle.Case, len(seeds))
	for i, seed := range seeds {
		c, err := fuzz.Case(fuzz.Generate(seed, ops))
		if err != nil {
			return nil, err
		}
		cases[i] = c
	}
	return cases, nil
}

// fuzzSuite runs seeded generated programs under the fuzzer's four-column
// matrix (fuzz.Configs).
func fuzzSuite(p SuiteParams) (*Suite, error) {
	cases, err := fuzzCases(p.FuzzSeeds, p.FuzzOps)
	if err != nil {
		return nil, err
	}
	return &Suite{Cases: cases, Configs: fuzz.Configs(), Coverage: fuzz.Coverage}, nil
}

// fuzzChaosSuite runs generated programs under the ChaosStorm perturbations
// (the first two seeds plus the storm) and configurations: internal failures
// and machine faults on code the benchmarks never contain.
func fuzzChaosSuite(p SuiteParams) (*Suite, error) {
	cases, err := fuzzCases(p.FuzzSeeds, p.FuzzOps)
	if err != nil {
		return nil, err
	}
	return &Suite{
		Cases:         cases,
		Configs:       chaosConfigs(),
		Perturbations: chaosPerturbations(p.Seeds[:min(2, len(p.Seeds))]),
		Coverage:      chaosCoverage(false),
	}, nil
}

// FormatDiff renders a suite's outcomes: one line per case (only failing
// cases when there are many) with the counters that show which mechanisms
// ran, then the totals and any chaos site fires.
func FormatDiff(s *Suite, outs []oracle.Outcome) string {
	var b strings.Builder
	perts := max(len(s.Perturbations), 1)
	fmt.Fprintf(&b, "diff %s: %d cases x %d perturbations x %d configs, native vs runtime\n",
		s.Name, len(s.Cases), perts, len(s.Configs))
	fmt.Fprintf(&b, "%-14s %7s %6s %6s %8s %8s %6s %6s  %s\n",
		"case", "ok", "faults", "xl8", "evict", "recover", "reatt", "fires", "status")
	perCase := perts * len(s.Configs)
	passed := 0
	for i := 0; i+perCase <= len(outs); i += perCase {
		var ok, faults int
		var xl8, evict, recov, reatt, fires uint64
		status := "ok"
		for _, o := range outs[i : i+perCase] {
			if f := o.Failure(); f == "" {
				ok++
			} else if status == "ok" {
				status = fmt.Sprintf("FAIL %s/%s: %s", o.Perturbation, o.Config, f)
			}
			faults += o.Faults
			xl8 += o.Stats.FaultsTranslated
			evict += o.Stats.Evictions
			recov += o.Stats.Recoveries
			reatt += o.Stats.Reattaches
			fires += o.TotalFires()
		}
		if ok == perCase {
			passed++
			if len(s.Cases) > 64 {
				continue
			}
		}
		fmt.Fprintf(&b, "%-14s %3d/%-3d %6d %6d %8d %8d %6d %6d  %s\n",
			outs[i].Case, ok, perCase, faults, xl8, evict, recov, reatt, fires, status)
	}
	fmt.Fprintf(&b, "passed %d/%d cases (%d runs)\n", passed, len(s.Cases), len(outs))
	if len(s.Cases) > 64 {
		b.WriteString("(passing cases not listed)\n")
	}
	if fires := SiteFires(outs); len(fires) > 0 {
		var reattaches uint64
		for _, o := range outs {
			reattaches += o.Stats.Reattaches
		}
		fmt.Fprintf(&b, "re-attaches total %d\n", reattaches)
		var parts []string
		for _, site := range chaos.AllSites() {
			parts = append(parts, fmt.Sprintf("%s=%d", site, fires[site.String()]))
		}
		fmt.Fprintf(&b, "site fires: %s\n", strings.Join(parts, " "))
	}
	return b.String()
}
