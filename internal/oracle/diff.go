package oracle

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/machine"
	"repro/internal/obs"
)

// The differential engine. Every transparency check in the repository is one
// call of Diff over three orthogonal inputs: the programs (Case), the runtime
// configurations (Config) and the disturbances (Perturbation). Each case runs
// natively once per perturbation, then every (perturbation, config) cell runs
// under the runtime on a fresh machine and is compared with the matching
// native endpoint through Capture/Equal.

// RunLimit bounds one simulated run, native or under the runtime.
const RunLimit = 600_000_000

// Case is one program of a differential matrix.
type Case struct {
	Name  string
	Image *image.Image
	// Setup, when non-nil, prepares every machine the case runs on — native
	// and runtime alike — after boot and before the run: guard pages,
	// queued signals.
	Setup func(*machine.Machine)
}

// Config is one runtime column of a differential matrix.
type Config struct {
	Name string
	Opts func() core.Options
	// Clients, when non-nil, builds fresh client instances for one run
	// (clients hold per-run state and are never shared between runs).
	Clients func() []core.Client
}

// Perturbation is one way of disturbing every run of a case. The zero value
// disturbs nothing.
type Perturbation struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Faults injects machine faults at system-call points drawn with Seed
	// from the case's clean syscall trace (PlanFaults), into the native and
	// the runtime runs alike.
	Faults bool `json:"faults,omitempty"`
	// Triggers arms a chaos injector seeded with Seed in the runtime runs:
	// internal failures the runtime must contain without any trace in the
	// application's state.
	Triggers []chaos.Trigger `json:"triggers,omitempty"`
}

// Outcome is one (case, perturbation, config) comparison.
type Outcome struct {
	Case         string `json:"case"`
	Perturbation string `json:"perturbation,omitempty"`
	Config       string `json:"config"`
	Match        bool   `json:"match"`
	Mismatch     string `json:"mismatch,omitempty"`
	// Err reports a run that could not complete (native or runtime error,
	// run-limit overrun, panic); such a cell never matches.
	Err string `json:"err,omitempty"`
	// Faults counts the faults delivered in the runtime run; on a match it
	// equals the native count.
	Faults int `json:"faults,omitempty"`
	// Fires counts chaos injections per site name (nonzero sites only).
	Fires map[string]uint64 `json:"fires,omitempty"`
	// InvariantErr is the first CheckCacheInvariants failure over the
	// attached threads after the run.
	InvariantErr string `json:"invariant_err,omitempty"`
	// LiveBB and LiveTrace count the fragments still live at the end of
	// the run, the third term of fragment conservation.
	LiveBB    uint64 `json:"-"`
	LiveTrace uint64 `json:"-"`
	// Ticks is the runtime run's simulated time and NativeTicks the
	// reference run's: their ratio is the paper's normalized execution time.
	Ticks       machine.Ticks `json:"ticks"`
	NativeTicks machine.Ticks `json:"native_ticks"`
	// Phases attributes every tick of a run with Options.Profile to an
	// execution phase, and Profiles holds its fragment profiles; both are
	// nil without profiling.
	Phases   *obs.PhaseTicks       `json:"phase_ticks,omitempty"`
	Profiles []obs.FragmentProfile `json:"-"`
	// Events is the event trace drained from a run with Options.EventRing,
	// and EventsDropped counts ring overwrites before the drain.
	Events        []obs.Event `json:"-"`
	EventsDropped uint64      `json:"events_dropped,omitempty"`
	// Histograms digests the runtime's distribution metrics (in obs.Metric
	// order) and Anomalies lists the watchdog's detections; both are filled
	// only for a run with Options.Watchdog.
	Histograms []obs.HistogramSummary `json:"-"`
	Anomalies  []obs.Anomaly          `json:"-"`
	Stats      core.Stats             `json:"stats"`
}

// Normalized is the run's simulated time as a ratio to native: the y-axis
// of the paper's tables and figures.
func (o Outcome) Normalized() float64 { return float64(o.Ticks) / float64(o.NativeTicks) }

// Failure describes why the outcome fails, or returns "" when it passes.
// Every cell must have run, matched native, passed its rollback audits and
// cache invariants, and conserved fragments (fragmentsConserved). A
// profiled cell must also conserve ticks (the phases sum to the run's
// ticks), put ticks in cache-resident application code, charge eviction
// work to the eviction phase, and record one profile build per fragment
// built and one profile eviction per eviction.
func (o Outcome) Failure() string {
	s := &o.Stats
	switch {
	case o.Err != "":
		return "error: " + o.Err
	case !o.Match:
		return "mismatch: " + o.Mismatch
	case s.RecoveryAuditFailures != 0:
		return fmt.Sprintf("audit: %d rollback audits failed", s.RecoveryAuditFailures)
	case o.InvariantErr != "":
		return "invariant: " + o.InvariantErr
	case !o.fragmentsConserved():
		return fmt.Sprintf("fragments: built %d blocks + %d traces (%d replaced), live %d + %d, deleted %d + %d of %d",
			s.BlocksBuilt, s.TracesBuilt, s.Replacements, o.LiveBB, o.LiveTrace,
			s.FragmentsDeletedBB, s.FragmentsDeletedTrace, s.FragmentsDeleted)
	case o.Phases == nil:
		return ""
	}
	pt := o.Phases
	var builds, evictions uint64
	for _, p := range o.Profiles {
		builds += p.Builds
		evictions += p.Evictions
	}
	switch {
	case pt.Sum() != uint64(o.Ticks):
		return fmt.Sprintf("phases: phase ticks sum to %d, run ticks %d", pt.Sum(), o.Ticks)
	case pt[obs.PhaseAppCacheBB]+pt[obs.PhaseAppCacheTrace] == 0:
		return "phases: no ticks in cache-resident application code"
	case s.Evictions > 0 && pt[obs.PhaseEviction] == 0:
		return fmt.Sprintf("phases: %d evictions but no eviction-phase ticks", s.Evictions)
	case builds != s.BlocksBuilt+s.TracesBuilt || evictions != s.Evictions:
		return fmt.Sprintf("profile: %d builds and %d evictions, Stats %d + %d built and %d evicted",
			builds, evictions, s.BlocksBuilt, s.TracesBuilt, s.Evictions)
	}
	return ""
}

// fragmentsConserved reports whether everything the run built is still
// live or was delivered deleted, per kind. A run whose thread recovered
// from a failure or detached is exempt: a rolled-back build was counted
// but never registered. A replacement (ReplaceFragment) emits a fragment
// the built counters do not count, so with replacements only the totals
// are compared.
func (o Outcome) fragmentsConserved() bool {
	s := &o.Stats
	switch {
	case s.FragmentsDeleted != s.FragmentsDeletedBB+s.FragmentsDeletedTrace:
		return false
	case s.Recoveries != 0 || s.Detaches != 0:
		return true
	case s.Replacements != 0:
		return s.BlocksBuilt+s.TracesBuilt+s.Replacements == o.LiveBB+o.LiveTrace+s.FragmentsDeleted
	}
	return s.BlocksBuilt == o.LiveBB+s.FragmentsDeletedBB && s.TracesBuilt == o.LiveTrace+s.FragmentsDeletedTrace
}

// TotalFires sums the chaos injections of the run.
func (o Outcome) TotalFires() uint64 {
	var n uint64
	for _, f := range o.Fires {
		n += f
	}
	return n
}

// FaultPlan schedules one injected fault: raise Kind (with data address Addr
// for page faults) in place of thread Thread's Syscall'th system call.
// Keying on the per-thread syscall ordinal makes the same plan land at the
// same application point in native and translated runs, whose instruction
// counts diverge.
type FaultPlan struct {
	Thread  int               `json:"thread"`
	Syscall uint64            `json:"syscall"`
	Kind    machine.FaultKind `json:"kind"`
	Addr    machine.Addr      `json:"addr"`
}

// planKinds are the fault kinds a plan draws from.
var planKinds = []machine.FaultKind{
	machine.FaultDivide, machine.FaultPage, machine.FaultUD, machine.FaultSoftware,
}

// PlanFaults derives a deterministic fault schedule from the syscall trace
// of a clean run: 1–3 distinct (thread, syscall-ordinal) points, each with a
// fault kind. The clean trace is the right sampling frame because every point
// in it is reached by construction in every configuration.
func PlanFaults(trace []machine.SyscallRecord, seed int64) []FaultPlan {
	// Per-thread ordinal of each trace record.
	ordinals := make([]uint64, len(trace))
	perThread := map[int]uint64{}
	points := map[FaultPlan]bool{}
	for i, rec := range trace {
		ordinals[i] = perThread[rec.Thread]
		perThread[rec.Thread]++
		points[FaultPlan{Thread: rec.Thread, Syscall: ordinals[i]}] = true
	}
	// Many programs make only a handful of system calls, and a schedule
	// holds at most one fault per point.
	rng := rand.New(rand.NewSource(seed))
	n := min(1+rng.Intn(3), len(points))
	var plans []FaultPlan
	used := map[FaultPlan]bool{}
	for len(plans) < n {
		rec := rng.Intn(len(trace))
		kind := planKinds[rng.Intn(len(planKinds))]
		var addr machine.Addr
		if kind == machine.FaultPage {
			addr = machine.Addr(rng.Intn(1 << 24))
		}
		key := FaultPlan{Thread: trace[rec].Thread, Syscall: ordinals[rec]}
		if used[key] {
			continue
		}
		used[key] = true
		plans = append(plans, FaultPlan{Thread: key.Thread, Syscall: key.Syscall, Kind: kind, Addr: addr})
	}
	return plans
}

// Parallel runs job(0) … job(n-1) on up to workers goroutines (workers <= 0
// means one per GOMAXPROCS) and returns each job's error at its index. A job
// that panics reports the panic as its error while the others still run, so
// results are deterministic for any worker count.
func Parallel(workers, n int, job func(i int) error) []error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = runJob(job, i)
			}
		}()
	}
	wg.Wait()
	return errs
}

func runJob(job func(int) error, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return job(i)
}

// reference is one case's native endpoint under one perturbation.
type reference struct {
	plans []FaultPlan
	want  State
	ticks machine.Ticks
	err   error
}

// Diff runs the cases × perturbations × configs matrix with a pool of
// workers (workers <= 0 means one per GOMAXPROCS) and returns one outcome per
// cell, ordered case-major, then perturbation, then config — deterministic
// for any worker count. No perturbations means one undisturbed run. A cell
// that fails to run is an outcome with Err set, and its error is also joined
// into the returned error while the rest of the matrix still runs.
func Diff(workers int, cases []Case, configs []Config, perts []Perturbation) ([]Outcome, error) {
	if len(perts) == 0 {
		perts = []Perturbation{{}}
	}
	np, nc := len(perts), len(configs)

	// Native references: one clean run per case (it is also the reference
	// of every perturbation without machine faults), then one faulted run
	// per (case, fault-planning perturbation).
	refs := make([]reference, len(cases)*np)
	traces := make([][]machine.SyscallRecord, len(cases))
	cleanErrs := Parallel(workers, len(cases), func(i int) error {
		ref, trace := runNative(cases[i], nil)
		for j := range perts {
			refs[i*np+j] = ref
		}
		traces[i] = trace
		return ref.err
	})
	faultErrs := Parallel(workers, len(refs), func(k int) error {
		ref, p, trace := &refs[k], perts[k%np], traces[k/np]
		if !p.Faults || ref.err != nil {
			return nil
		}
		if len(trace) == 0 {
			ref.err = errors.New("no system calls to plan faults at")
			return ref.err
		}
		*ref, _ = runNative(cases[k/np], PlanFaults(trace, p.Seed))
		return ref.err
	})

	outs := make([]Outcome, len(refs)*nc)
	cellErrs := Parallel(workers, len(outs), func(k int) error {
		ci, pi, gi := k/(np*nc), k/nc%np, k%nc
		o := &outs[k]
		o.Case, o.Perturbation, o.Config = cases[ci].Name, perts[pi].Name, configs[gi].Name
		ref := refs[ci*np+pi]
		if ref.err != nil {
			return fmt.Errorf("native: %w", ref.err)
		}
		return runCell(o, cases[ci], configs[gi], perts[pi], ref)
	})

	var errs []error
	for i, err := range cleanErrs {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: native: %w", cases[i].Name, err))
		}
	}
	for k, err := range faultErrs {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s/%s: native: %w", cases[k/np].Name, perts[k%np].Name, err))
		}
	}
	for k, err := range cellErrs {
		if err != nil {
			o := &outs[k]
			o.Match, o.Err = false, err.Error()
			if refs[k/nc].err == nil { // native failures are already reported
				errs = append(errs, fmt.Errorf("%s/%s/%s: %w", o.Case, o.Perturbation, o.Config, err))
			}
		}
	}
	return outs, errors.Join(errs...)
}

// prepare applies a case's setup hook and a perturbation's fault plans to a
// booted machine.
func prepare(m *machine.Machine, c Case, plans []FaultPlan) {
	if c.Setup != nil {
		c.Setup(m)
	}
	for _, p := range plans {
		m.InjectFaultAtSyscall(p.Thread, p.Syscall, p.Kind, p.Addr)
	}
}

// runNative runs a case on a bare machine under the given fault plans and
// captures its endpoint, ticks and syscall trace.
func runNative(c Case, plans []FaultPlan) (reference, []machine.SyscallRecord) {
	ref := reference{plans: plans}
	m := machine.New(machine.PentiumIV())
	c.Image.Boot(m)
	prepare(m, c, plans)
	if ref.err = m.Run(RunLimit); ref.err != nil {
		return ref, nil
	}
	ref.want, ref.ticks = Capture(m), m.Ticks
	return ref, m.SyscallTrace
}

// runCell runs one case under one config and perturbation and fills o.
func runCell(o *Outcome, c Case, cfg Config, p Perturbation, ref reference) error {
	opts := cfg.Opts()
	var inj *chaos.Injector
	if p.Triggers != nil {
		inj = chaos.NewInjector(p.Seed, p.Triggers)
		opts.Chaos = inj
	}
	var clients []core.Client
	if cfg.Clients != nil {
		clients = cfg.Clients()
	}
	m := machine.New(machine.PentiumIV())
	r := core.New(m, c.Image, opts, nil, clients...)
	prepare(m, c, ref.plans)
	if err := r.Run(RunLimit); err != nil {
		return err
	}
	o.Ticks, o.NativeTicks = m.Ticks, ref.ticks
	if opts.Profile {
		phases := r.PhaseTicks()
		o.Phases, o.Profiles = &phases, r.FragmentProfiles()
	}
	if wd := r.Watchdog(); wd != nil {
		o.Histograms, o.Anomalies = r.Histograms().Summaries(), wd.Anomalies()
	}
	if tr := r.Tracer(); tr.Enabled() {
		o.Events, o.EventsDropped = tr.Drain(), tr.Dropped()
	}
	got := Capture(m)
	o.Match = Equal(ref.want, got)
	o.Mismatch = Mismatch(ref.want, got)
	o.Faults = len(got.Faults)
	o.Stats = r.StatsSnapshot()
	o.LiveBB, o.LiveTrace = r.LiveFragmentCounts()
	// Pure emulation builds no code cache, so there is nothing to audit.
	for _, t := range m.Threads {
		ctx := r.ContextOf(t)
		if opts.Mode == core.ModeEmulate || ctx == nil || ctx.Detached() {
			continue
		}
		if err := ctx.CheckCacheInvariants(); err != nil {
			o.InvariantErr = err.Error()
			break
		}
	}
	if inj != nil {
		o.Fires = inj.FiresByName()
	}
	return nil
}
