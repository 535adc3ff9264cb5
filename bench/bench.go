package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/ia32"
	"repro/internal/instr"
	"repro/internal/obs"
	"repro/internal/workload"
)

// config is one invocation's settings for one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string

	// Levers for tests; no flag sets them.
	programs    []string // run only these programs of the workload
	passes      int      // run exactly this many timed passes (0: the time budget)
	setupReps   int
	layerRounds int
	corrupt     string // corrupt this program's native reference
}

func defaultConfig() config {
	return config{workload: "suite", seed: 1, seconds: 20, setupReps: 5, layerRounds: 3}
}

// minOps is the fewest timed ops a phase runs, so that run_ms_p90 has ten
// samples beyond it; minPassCount is the fewest passes, so that each op's
// best latency is the best of at least three.
const (
	minOps       = 100
	minPassCount = 3
)

// layerGenSeeds is how many programs the layer loop generates to time the
// fuzz generator.
const layerGenSeeds = 50

type bench struct {
	cfg     config
	w       *workloadDef
	names   []string
	sources map[string]string // assembly of suite programs, made before timing
	progs   []*program
	byName  map[string]*program
	ops     []*op
	rng     *rand.Rand
	rec     *recorder // nil outside traced phases
	log     io.Writer

	attempted, failed int
}

// metric is one named, united number. A metric that could not be measured
// carries the reason in na instead of a value.
type metric struct {
	name, unit string
	value      float64
	note       string
	na         string
}

// report is one workload's results.
type report struct {
	workload          string
	header            string
	e2e, layers       []metric
	attempted, failed int
}

// prepare defines the workload, sets it up cfg.setupReps times and returns
// the benchmark with the median set-up time in seconds. Set-up spans go to
// rec when it is not nil.
func prepare(cfg config, rec *recorder, log io.Writer) (*bench, float64, error) {
	w, err := defineWorkload(cfg.workload)
	if err != nil {
		return nil, 0, err
	}
	names, err := subset(w.programs, cfg.programs)
	if err != nil {
		return nil, 0, err
	}
	b := &bench{cfg: cfg, w: w, names: names, sources: map[string]string{},
		rng: rand.New(rand.NewPCG(uint64(cfg.seed), 0)), rec: rec, log: log}
	if !w.fuzz {
		for _, n := range names {
			b.sources[n] = workload.ByName(n).Source()
		}
	}
	var times []float64
	for r := 0; r < max(cfg.setupReps, 1); r++ {
		start := time.Now()
		progs, err := b.setup()
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		b.progs = progs
	}
	b.rec = nil
	b.byName = map[string]*program{}
	for _, p := range b.progs {
		b.byName[p.name] = p
	}
	if cfg.corrupt != "" {
		p := b.byName[cfg.corrupt]
		if p == nil {
			return nil, 0, fmt.Errorf("corrupt: no program %q", cfg.corrupt)
		}
		p.ref.Digest ^= 1
	}
	b.makeOps()
	return b, median(times), nil
}

func (b *bench) fail(err error) {
	b.failed++
	fmt.Fprintf(b.log, "bench: FAIL %s: %v\n", b.w.name, err)
}

// pass runs every op once in an order shuffled from the seed and returns
// the results indexed by op id.
func (b *bench) pass() []opResult {
	res := make([]opResult, len(b.ops))
	pi := b.rec.begin("pass", "")
	for _, k := range b.rng.Perm(len(b.ops)) {
		o := b.ops[k]
		b.rec.setOp(o.id)
		oi := b.rec.begin("op", o.prog.name)
		res[k] = b.exec(o)
		b.rec.finish(oi)
		b.attempted++
		if res[k].err != nil {
			b.fail(res[k].err)
		}
	}
	b.rec.setOp(-1)
	b.rec.finish(pi)
	return res
}

// phase is a run of timed passes.
type phase struct {
	passes   [][]opResult
	wall     time.Duration
	alloc    uint64 // bytes allocated over the phase
	gcCycles uint32
	gcPause  time.Duration
}

// runPhase runs exactly passes passes, or with passes 0 whole passes until
// budget has elapsed and at least minPassCount passes and minOps ops have
// run.
func (b *bench) runPhase(passes int, budget time.Duration) *phase {
	least := max(minPassCount, (minOps+len(b.ops)-1)/len(b.ops))
	ph := &phase{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for p := 0; ; p++ {
		if passes > 0 && p >= passes {
			break
		}
		if passes == 0 && p >= least && time.Since(start) >= budget {
			break
		}
		ph.passes = append(ph.passes, b.pass())
	}
	ph.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	ph.gcCycles = m1.NumGC - m0.NumGC
	ph.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return ph
}

func (ph *phase) ops() int { return len(ph.passes) * len(ph.passes[0]) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// slowdowns returns each runtime run's simulated time over its program's
// native time, in op order.
func slowdowns(pass []opResult) []float64 {
	var xs []float64
	for _, r := range pass {
		for _, o := range r.runs {
			xs = append(xs, float64(o.ticks)/float64(o.prog.ticks))
		}
	}
	return xs
}

// endToEnd computes the metrics a user of the system sees. The simulated
// metrics, which are the same in every pass, come from the first pass.
//
// The timings are built to survive a shared host. Other tenants slow a run
// down for seconds at a time, never speed it up, so each op's fastest
// latency over the passes estimates its cost on a quiet host: throughput is
// the native instructions of one pass over the sum of those best latencies.
// For the latency percentiles, each pass's samples are scaled by that best
// sum over the pass's own sum, which removes a slowdown lasting the whole
// pass but keeps the differences between ops and the jitter within the pass.
func (b *bench) endToEnd(ph *phase, setupS float64) []metric {
	best := make([]float64, len(b.ops))
	for k := range best {
		best[k] = math.Inf(1)
	}
	failed := 0
	for _, pass := range ph.passes {
		for k, r := range pass {
			if r.err != nil {
				failed++
				continue
			}
			best[k] = min(best[k], ms(r.latency))
		}
	}
	var bestMS, passInstrs float64
	for k, o := range b.ops {
		if !math.IsInf(best[k], 1) {
			bestMS += best[k]
			passInstrs += float64(len(o.vars)) * float64(o.prog.stats.Instructions)
		}
	}
	var lat []float64
	for _, pass := range ph.passes {
		var passMS, passBest float64
		for k, r := range pass {
			if r.err == nil {
				passMS += ms(r.latency)
				passBest += best[k]
			}
		}
		for _, r := range pass {
			if r.err == nil {
				lat = append(lat, ms(r.latency)*passBest/passMS)
			}
		}
	}
	n := fmt.Sprintf("n=%d, pass-scaled", len(lat))
	p90 := metric{name: "run_ms_p90", unit: "ms", note: n}
	if v, err := tailPercentile(lat, 90); err != nil {
		p90.na = err.Error()
	} else {
		p90.value = v
	}
	sd := slowdowns(ph.passes[0])
	worst := math.NaN()
	if len(sd) > 0 {
		worst = slices.Max(sd)
	}
	ops := ph.ops()
	return []metric{
		{name: "throughput_minstr_s", unit: "Minstr/s", value: passInstrs / bestMS / 1e3,
			note: fmt.Sprintf("per-op best of %d passes", len(ph.passes))},
		{name: "run_ms_p50", unit: "ms", value: median(lat), note: n},
		p90,
		{name: "sim_slowdown", unit: "ratio", value: geomean(sd),
			note: fmt.Sprintf("geomean of %d runtime runs", len(sd))},
		{name: "sim_slowdown_max", unit: "ratio", value: worst},
		{name: "alloc_mib_per_run", unit: "MiB/op", value: float64(ph.alloc) / float64(ops) / (1 << 20)},
		{name: "failed_frac", unit: "fraction", value: float64(failed) / float64(ops),
			note: fmt.Sprintf("%d of %d ops", failed, ops)},
		{name: "setup_s", unit: "s", value: setupS,
			note: fmt.Sprintf("median of %d set-ups", max(b.cfg.setupReps, 1))},
	}
}

// countMetrics are the runtime's deterministic counters, per runtime run or
// per thousand native instructions, over one pass.
func countMetrics(pass []opResult) []metric {
	var runs, native, executed, decodeMisses, switches, blocks, traces, links, unlinks,
		evictions, regens, iblMisses, indirect float64
	for _, r := range pass {
		for _, o := range r.runs {
			runs++
			native += float64(o.prog.stats.Instructions)
			indirect += float64(o.prog.stats.IndBranches + o.prog.stats.Rets)
			executed += float64(o.machine.Instructions)
			decodeMisses += float64(o.machine.DecodeMisses)
			switches += float64(o.rio.ContextSwitches)
			blocks += float64(o.rio.BlocksBuilt)
			traces += float64(o.rio.TracesBuilt)
			links += float64(o.rio.Links)
			unlinks += float64(o.rio.Unlinks)
			evictions += float64(o.rio.Evictions)
			regens += float64(o.rio.Regenerations)
			iblMisses += float64(o.rio.IBLMisses)
		}
	}
	return []metric{
		{name: "machine.decode_misses_per_kinstr", unit: "1/kinstr", value: ratio(decodeMisses, executed/1e3)},
		{name: "machine.instr_expansion", unit: "ratio", value: ratio(executed, native)},
		{name: "core.context_switches_per_kinstr", unit: "1/kinstr", value: ratio(switches, native/1e3)},
		{name: "core.blocks_built", unit: "count", value: ratio(blocks, runs)},
		{name: "core.traces_built", unit: "count", value: ratio(traces, runs)},
		{name: "core.links", unit: "count", value: ratio(links, runs)},
		{name: "core.unlinks", unit: "count", value: ratio(unlinks, runs)},
		{name: "core.evictions", unit: "count", value: ratio(evictions, runs)},
		{name: "core.regen_ratio", unit: "ratio", value: ratio(regens, evictions)},
		{name: "core.ibl_miss_ratio", unit: "ratio", value: ratio(iblMisses, indirect)},
	}
}

// profileMetrics runs every op's runtime runs once more with Options.Profile
// and reports where the simulated ticks went and how much code was emitted.
// Profiling never charges ticks but costs host time, so this pass is kept
// out of every host number.
func (b *bench) profileMetrics() []metric {
	var phases obs.PhaseTicks
	var code, emitted, runs float64
	for _, o := range b.ops {
		for _, v := range o.vars {
			opts := v.opts
			opts.Profile = true
			b.attempted++
			m, r, err := b.underRuntime(o.prog, o.prog.img, v, opts)
			if err == nil {
				err = b.verify(o.prog, v.name+"+profile", m, o.prog.ref)
			}
			if err != nil {
				b.fail(err)
				continue
			}
			pt := r.PhaseTicks()
			for i := range phases {
				phases[i] += pt[i]
			}
			for _, fp := range r.FragmentProfiles() {
				code += float64(fp.Size)
				emitted += float64(fp.Size) * float64(fp.Builds)
			}
			runs++
		}
	}
	var out []metric
	total := float64(phases.Sum())
	for i, v := range phases {
		out = append(out, metric{name: "core.phase." + obs.Phase(i).String(), unit: "fraction",
			value: ratio(float64(v), total)})
	}
	return append(out,
		metric{name: "core.code_kib", unit: "KiB", value: ratio(code, runs) / 1024},
		metric{name: "core.emitted_kib", unit: "KiB", value: ratio(emitted, runs) / 1024})
}

// clientsMetrics runs every program under the six Figure 5 configurations:
// the simulated slowdown each gives on this workload's programs, how often
// clients call out of the cache, and what the clients cost in host time.
func (b *bench) clientsMetrics() []metric {
	var out []metric
	var host [harness.NumOptConfigs]time.Duration
	var cleanCalls, native float64
	for c := harness.ConfigBase; c < harness.NumOptConfigs; c++ {
		v := figure5Variant(c)
		var sd []float64
		for _, p := range b.progs {
			b.attempted++
			start := time.Now()
			m, r, err := b.underRuntime(p, p.img, v, v.opts)
			elapsed := time.Since(start)
			if err == nil {
				err = b.verify(p, v.name, m, p.ref)
			}
			if err != nil {
				b.fail(err)
				continue
			}
			sd = append(sd, float64(m.Ticks)/float64(p.ticks))
			host[c] += elapsed
			cleanCalls += float64(r.StatsSnapshot().CleanCalls)
			native += float64(p.stats.Instructions)
		}
		out = append(out, metric{name: "clients.sim_slowdown." + c.String(), unit: "ratio", value: geomean(sd)})
	}
	return append(out,
		metric{name: "clients.clean_calls_per_kinstr", unit: "1/kinstr", value: ratio(cleanCalls, native/1e3)},
		metric{name: "clients.host_ratio", unit: "ratio",
			value: ratio(float64(host[harness.ConfigAll]), float64(host[harness.ConfigBase]))})
}

// layerCounts is the work the layer loop did.
type layerCounts struct{ instrs, blocks int }

// layerLoop times the decoder, the instruction-list levels and the fuzz
// generator on fixed inputs, as the paper's Table 2 does: every static basic
// block of the suite, decoded instruction by instruction and built and
// encoded at levels 1, 3 and 4.
func (b *bench) layerLoop(rounds int) layerCounts {
	blocks := harness.HarvestBlocks()
	var lc layerCounts
	for r := 0; r < rounds; r++ {
		b.rec.do("ia32.decode", "", false, func() {
			for _, blk := range blocks {
				for off := 0; off < len(blk.Raw); {
					in, err := ia32.Decode(blk.Raw[off:], blk.PC+uint32(off))
					if err != nil {
						break
					}
					off += int(in.Len)
					lc.instrs++
				}
			}
		})
	}
	for _, lv := range []instr.Level{instr.Level1, instr.Level3, instr.Level4} {
		name := fmt.Sprintf("instr.level%d", lv)
		for r := 0; r < rounds; r++ {
			b.rec.do(name, "", false, func() {
				for _, blk := range blocks {
					harness.DecodeEncodeAt(blk.Raw, blk.PC, lv)
				}
			})
		}
	}
	lc.blocks = rounds * len(blocks)
	for s := int64(0); s < layerGenSeeds; s++ {
		b.rec.do("fuzz.generate", "", false, func() { fuzz.Render(fuzz.Generate(fuzzSeedBase+s, fuzzMaxOps)) })
	}
	return lc
}

// hostLayers are the layers host time is split across in the traced phase;
// "bench" is the benchmark's own work between layer calls.
var hostLayers = []string{"bench", "fuzz.generate", "asm.assemble", "machine.new", "machine.run",
	"core.new", "core.run", "oracle.capture", "oracle.equal"}

// hostMetrics derives the host-time layer metrics from span self times.
func (b *bench) hostMetrics(spans []span, untraced, traced *phase, lc layerCounts) []metric {
	self := selfTimes(spans)
	type agg struct {
		ns    float64
		n     int
		alloc float64
	}
	by := map[string]*agg{}
	nativeNS := map[string][]float64{}
	var nativeTotal, nativeInstr, timedSelf float64
	share := map[string]float64{}
	for i, s := range spans {
		key := s.phase + "/" + s.name
		a := by[key]
		if a == nil {
			a = &agg{}
			by[key] = a
		}
		a.ns += float64(self[i])
		a.n++
		a.alloc += float64(s.alloc)
		if s.name == "machine.run" {
			nativeNS[s.prog] = append(nativeNS[s.prog], float64(self[i]))
			nativeTotal += float64(self[i])
			nativeInstr += float64(b.byName[s.prog].stats.Instructions)
		}
		if s.phase == "timed" {
			timedSelf += float64(self[i])
			layer := s.name
			if layer == "pass" || layer == "op" {
				layer = "bench"
			}
			share[layer] += float64(self[i])
		}
	}
	var runNS, runInstr float64
	var overhead []float64
	for i, s := range spans {
		if s.phase != "timed" || s.name != "core.run" {
			continue
		}
		runNS += float64(self[i])
		runInstr += float64(b.byName[s.prog].stats.Instructions)
		overhead = append(overhead, float64(self[i])/median(nativeNS[s.prog]))
	}
	mean := func(key string) float64 {
		if a := by[key]; a != nil && a.n > 0 {
			return a.ns / float64(a.n)
		}
		return math.NaN()
	}
	meanAlloc := func(key string) float64 {
		if a := by[key]; a != nil && a.n > 0 {
			return a.alloc / float64(a.n)
		}
		return math.NaN()
	}
	total := func(key string) float64 {
		if a := by[key]; a != nil {
			return a.ns
		}
		return math.NaN()
	}
	ops := float64(untraced.ops())
	out := []metric{
		{name: "machine.native_ns_per_instr", unit: "ns/instr", value: nativeTotal / nativeInstr},
		{name: "machine.new_us", unit: "us", value: mean("timed/machine.new") / 1e3},
		{name: "machine.new_kib", unit: "KiB", value: meanAlloc("timed/machine.new") / 1024},
		{name: "asm.assemble_us", unit: "us", value: mean("setup/asm.assemble") / 1e3},
		{name: "fuzz.generate_us", unit: "us", value: mean("layers/fuzz.generate") / 1e3},
		{name: "core.new_us", unit: "us", value: mean("timed/core.new") / 1e3},
		{name: "core.run_ns_per_instr", unit: "ns/instr", value: runNS / runInstr},
		{name: "core.host_overhead", unit: "ratio", value: geomean(overhead)},
		{name: "core.run_alloc_kib", unit: "KiB", value: meanAlloc("timed/core.run") / 1024},
		{name: "oracle.capture_us", unit: "us", value: mean("timed/oracle.capture") / 1e3},
		{name: "oracle.equal_us", unit: "us", value: mean("timed/oracle.equal") / 1e3},
		{name: "ia32.decode_ns_per_instr", unit: "ns/instr", value: total("layers/ia32.decode") / float64(lc.instrs)},
	}
	for _, lv := range []int{1, 3, 4} {
		out = append(out, metric{name: fmt.Sprintf("instr.level%d_us_per_block", lv), unit: "us/block",
			value: total(fmt.Sprintf("layers/instr.level%d", lv)) / float64(lc.blocks) / 1e3})
	}
	out = append(out,
		metric{name: "gc.cycles_per_run", unit: "1/op", value: float64(untraced.gcCycles) / ops},
		metric{name: "gc.pause_us_per_run", unit: "us/op", value: float64(untraced.gcPause) / 1e3 / ops},
		metric{name: "trace.overhead", unit: "ratio", value: float64(traced.wall) / float64(untraced.wall)},
		metric{name: "trace.coverage", unit: "ratio", value: timedSelf / float64(traced.wall)})
	for _, l := range hostLayers {
		out = append(out, metric{name: "host.share." + l, unit: "fraction", value: share[l] / timedSelf})
	}
	return out
}

// runWorkload runs one workload: set-up, a warm-up pass, the untraced timed
// phase for the end-to-end metrics and, when tracing, a traced phase of as
// many passes plus the profile, clients and layer passes for the per-layer
// metrics.
func runWorkload(cfg config, log io.Writer) (*report, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		rec.phase = "setup"
	}
	b, setupS, err := prepare(cfg, rec, log)
	if err != nil {
		return nil, err
	}
	b.pass() // warm-up
	untraced := b.runPhase(cfg.passes, time.Duration(cfg.seconds*float64(time.Second)))
	rep := &report{workload: cfg.workload, e2e: b.endToEnd(untraced, setupS)}
	rep.header = fmt.Sprintf("%s: %d programs x %d variants, %d ops per pass, %d timed passes, seed %d",
		cfg.workload, len(b.progs), len(b.w.variants), len(b.ops), len(untraced.passes), cfg.seed)
	if cfg.trace {
		rec.phase = "timed"
		b.rec = rec
		traced := b.runPhase(len(untraced.passes), 0)
		b.rec = nil
		counts := countMetrics(untraced.passes[0])
		prof := b.profileMetrics()
		clients := b.clientsMetrics()
		rec.phase = "layers"
		b.rec = rec
		lc := b.layerLoop(cfg.layerRounds)
		b.rec = nil
		rep.layers = b.hostMetrics(rec.spans, untraced, traced, lc)
		rep.layers = append(append(append(rep.layers, counts...), prof...), clients...)
		if err := writeTrace(cfg.traceOut, "bench "+cfg.workload, rec.spans); err != nil {
			return nil, err
		}
	}
	rep.attempted, rep.failed = b.attempted, b.failed
	return rep, nil
}
