package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/image"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// runLimit bounds one simulated run, as in the harness.
const runLimit = 600_000_000

// The fuzz workload runs a fixed draw of generated programs: fuzzPrograms
// generator seeds from fuzzSeedBase, at most fuzzMaxOps statements each. The
// draw does not follow -seed, so every seed measures the same programs: the
// spread of sim_slowdown over ten seeds must stay inside its 0.5% bound,
// which a fresh draw of 100 programs per seed cannot do.
const (
	fuzzSeedBase = 1_000_000
	fuzzPrograms = 100
	fuzzMaxOps   = 40
)

// churnPrograms are the programs with at least 1000 evictions under 1 KiB
// caches (the "1k" column of BENCH_cachesweep.json).
var churnPrograms = []string{"vpr", "gcc", "crafty", "parser", "perlbmk", "gap", "vortex", "bzip2", "twolf"}

var workloadNames = []string{"suite", "figure5", "churn", "fuzz"}

// variant is one runtime configuration a program runs under.
type variant struct {
	name    string
	opts    core.Options
	clients func() []core.Client // fresh instances per run; nil for none
}

// workloadDef is one set of inputs: programs and the configurations each
// runs under.
type workloadDef struct {
	name     string
	programs []string // program names; fuzz programs are "fuzz-<seed>"
	variants []variant
	fuzz     bool // an op generates its program and runs every variant
}

func defineWorkload(name string) (*workloadDef, error) {
	w := &workloadDef{name: name}
	switch name {
	case "suite":
		w.programs = suiteNames()
		w.variants = []variant{{name: "default", opts: core.Default()}}
	case "figure5":
		w.programs = suiteNames()
		for c := harness.ConfigBase; c < harness.NumOptConfigs; c++ {
			w.variants = append(w.variants, figure5Variant(c))
		}
	case "churn":
		w.programs = churnPrograms
		w.variants = []variant{{name: "1k", opts: budgetOpts(1 << 10)}}
	case "fuzz":
		w.fuzz = true
		for s := int64(0); s < fuzzPrograms; s++ {
			w.programs = append(w.programs, fmt.Sprintf("fuzz-%d", fuzzSeedBase+s))
		}
		w.variants = []variant{
			{name: "default", opts: core.Default()},
			{name: "4k", opts: budgetOpts(4 << 10)},
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want suite, figure5, churn, fuzz or all)", name)
	}
	return w, nil
}

func suiteNames() []string {
	var names []string
	for _, b := range workload.All() {
		names = append(names, b.Name)
	}
	return names
}

// figure5Variant is one bar group of the paper's Figure 5: the paper-era
// base runtime with that configuration's clients.
func figure5Variant(c harness.OptConfig) variant {
	return variant{name: c.String(), opts: harness.Figure5Options(),
		clients: func() []core.Client { return harness.ClientsFor(c) }}
}

// budgetOpts is the default runtime with both code caches bounded to bytes.
func budgetOpts(bytes int) core.Options {
	o := core.Default()
	o.BBCacheSize, o.TraceCacheSize = bytes, bytes
	return o
}

// program is one input program with its native reference.
type program struct {
	name  string
	seed  int64  // generator seed (fuzz programs)
	guard bool   // fuzz program: arm fuzz.GuardPage in every run
	src   string // assembly source (suite programs)
	img   *image.Image
	ref   oracle.State  // native endpoint every runtime run must equal
	stats machine.Stats // native counters
	ticks machine.Ticks // native simulated time
}

// op is the unit a latency is measured for. For suite, figure5 and churn it
// is one program under one variant; for fuzz it is one program built from
// its seed and run natively and under every variant.
type op struct {
	id   int
	prog *program
	vars []variant
}

// outcome is the deterministic result of one runtime run.
type outcome struct {
	prog    *program
	ticks   machine.Ticks
	machine machine.Stats
	rio     core.Stats
}

type opResult struct {
	latency time.Duration
	runs    []outcome
	err     error
}

// armGuard protects the fuzz guard page the way fuzz.RunNative does.
func armGuard(m *machine.Machine) {
	m.Mem.Protect(fuzz.GuardPage, fuzz.GuardPage+0x1000, machine.ProtNoRead|machine.ProtNoWrite)
}

// build makes p's image from scratch: generate and render (fuzz), then
// assemble.
func (b *bench) build(p *program) (*image.Image, error) {
	src := p.src
	if p.guard {
		b.rec.do("fuzz.generate", p.name, false, func() { src = fuzz.Render(fuzz.Generate(p.seed, fuzzMaxOps)) })
	}
	var img *image.Image
	var err error
	b.rec.do("asm.assemble", p.name, false, func() { img, err = image.Assemble(p.name, src) })
	return img, err
}

// native runs img on a bare machine and captures its endpoint.
func (b *bench) native(p *program, img *image.Image) (*machine.Machine, oracle.State, error) {
	var m *machine.Machine
	b.rec.do("machine.new", p.name, true, func() { m = machine.New(machine.PentiumIV()) })
	var err error
	b.rec.do("machine.run", p.name, false, func() {
		img.Boot(m)
		if p.guard {
			armGuard(m)
		}
		err = m.Run(runLimit)
	})
	if err != nil {
		return nil, oracle.State{}, fmt.Errorf("%s: native: %w", p.name, err)
	}
	var st oracle.State
	b.rec.do("oracle.capture", p.name, false, func() { st = oracle.Capture(m) })
	return m, st, nil
}

// underRuntime runs img under the runtime with opts and v's clients.
func (b *bench) underRuntime(p *program, img *image.Image, v variant, opts core.Options) (*machine.Machine, *core.RIO, error) {
	var m *machine.Machine
	b.rec.do("machine.new", p.name, true, func() { m = machine.New(machine.PentiumIV()) })
	var clients []core.Client
	if v.clients != nil {
		clients = v.clients()
	}
	var r *core.RIO
	b.rec.do("core.new", p.name, false, func() {
		r = core.New(m, img, opts, nil, clients...)
		if p.guard {
			armGuard(m)
		}
	})
	var err error
	b.rec.do("core.run", p.name, true, func() { err = r.Run(runLimit) })
	if err != nil {
		return nil, nil, fmt.Errorf("%s under %s: %w", p.name, v.name, err)
	}
	return m, r, nil
}

// verify captures m's endpoint and compares it with want.
func (b *bench) verify(p *program, variant string, m *machine.Machine, want oracle.State) error {
	var got oracle.State
	b.rec.do("oracle.capture", p.name, false, func() { got = oracle.Capture(m) })
	var eq bool
	b.rec.do("oracle.equal", p.name, false, func() { eq = oracle.Equal(want, got) })
	if !eq {
		return fmt.Errorf("%s under %s: %s", p.name, variant, oracle.Mismatch(want, got))
	}
	return nil
}

func collect(p *program, m *machine.Machine, r *core.RIO) outcome {
	return outcome{prog: p, ticks: m.Ticks, machine: m.Stats, rio: r.StatsSnapshot()}
}

// setup builds every program of the workload and records its native
// reference: assembly, a native run and an oracle capture per program.
func (b *bench) setup() ([]*program, error) {
	i := b.rec.begin("setup", "")
	defer b.rec.finish(i)
	var progs []*program
	for _, name := range b.names {
		p := &program{name: name}
		if b.w.fuzz {
			p.guard = true
			if _, err := fmt.Sscanf(name, "fuzz-%d", &p.seed); err != nil {
				return nil, fmt.Errorf("fuzz program %q: %w", name, err)
			}
		} else {
			p.src = b.sources[name]
		}
		img, err := b.build(p)
		if err != nil {
			return nil, err
		}
		m, st, err := b.native(p, img)
		if err != nil {
			return nil, err
		}
		p.img, p.ref, p.stats, p.ticks = img, st, m.Stats, m.Ticks
		progs = append(progs, p)
	}
	return progs, nil
}

// exec runs one op. Panics from any layer become the op's error.
func (b *bench) exec(o *op) (res opResult) {
	defer func() {
		if p := recover(); p != nil {
			res.err = fmt.Errorf("%s: panic: %v", o.prog.name, p)
		}
	}()
	if o.prog.guard {
		return b.execFuzz(o)
	}
	v := o.vars[0]
	start := time.Now()
	m, r, err := b.underRuntime(o.prog, o.prog.img, v, v.opts)
	res.latency = time.Since(start)
	if err != nil {
		res.err = err
		return res
	}
	res.runs = []outcome{collect(o.prog, m, r)}
	res.err = b.verify(o.prog, v.name, m, o.prog.ref)
	return res
}

// execFuzz is the fuzzing user's whole check of one seed: generate, render
// and assemble the program, run it natively, then under every variant, each
// captured and compared with the native endpoint.
func (b *bench) execFuzz(o *op) (res opResult) {
	p := o.prog
	start := time.Now()
	img, err := b.build(p)
	if err != nil {
		res.err = err
		return res
	}
	_, want, err := b.native(p, img)
	if err != nil {
		res.err = err
		return res
	}
	for _, v := range o.vars {
		m, r, err := b.underRuntime(p, img, v, v.opts)
		if err != nil {
			res.err = err
			return res
		}
		res.runs = append(res.runs, collect(p, m, r))
		if err := b.verify(p, v.name, m, want); err != nil {
			res.err = err
			return res
		}
	}
	res.latency = time.Since(start)
	if !oracle.Equal(p.ref, want) {
		res.err = fmt.Errorf("%s: native endpoint differs from the setup reference: %s",
			p.name, oracle.Mismatch(p.ref, want))
	}
	return res
}

// makeOps lists the ops of one pass in a fixed order; passes shuffle only
// the order they run in.
func (b *bench) makeOps() {
	b.ops = nil
	for _, p := range b.progs {
		if b.w.fuzz {
			b.ops = append(b.ops, &op{id: len(b.ops), prog: p, vars: b.w.variants})
			continue
		}
		for _, v := range b.w.variants {
			b.ops = append(b.ops, &op{id: len(b.ops), prog: p, vars: []variant{v}})
		}
	}
}

// subset keeps the names listed in keep, in workload order.
func subset(names, keep []string) ([]string, error) {
	if len(keep) == 0 {
		return names, nil
	}
	var out []string
	for _, k := range keep {
		if !slices.Contains(names, k) {
			return nil, fmt.Errorf("program %q is not in the workload", k)
		}
	}
	for _, n := range names {
		if slices.Contains(keep, n) {
			out = append(out, n)
		}
	}
	return out, nil
}
