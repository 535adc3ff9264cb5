// Command drbench regenerates the paper's evaluation artifacts over the
// synthetic SPEC2000 suite:
//
//	drbench -table1              # Table 1: the feature ladder on crafty/vpr
//	drbench -table2              # Table 2: per-level decode+encode cost
//	drbench -figure5             # Figure 5: all 22 benchmarks x 6 configs
//	drbench -figure5 -bench mgrid,crafty
//	drbench -figure5 -parallel 0 # fan the benchmark x config matrix across all CPUs
//	drbench -figure5 -json BENCH_figure5.json
//	drbench -cachesweep          # cache budget ladder: 22 benchmarks x 6 budgets
//	drbench -cachesweep -json BENCH_cachesweep.json
//	drbench -iblsweep            # indirect-branch lookup ladder: 22 benchmarks x 6 IBL configs
//	drbench -iblsweep -json BENCH_iblsweep.json
//	drbench -profile             # where-the-cycles-go: phase accounting + hottest fragments
//	drbench -profile -json BENCH_profile.json
//	drbench -profile -ring 4096 -trace-out BENCH_events.jsonl   # runtime event trace
//	drbench -telemetry           # all telemetry on: histograms + watchdog, bit-identity checked
//	drbench -telemetry -json BENCH_telemetry.json
//	drbench -telemetry -trace-events trace.json   # Chrome trace-event spans; load at ui.perfetto.dev
//	drbench -diff verify         # transparency matrix: 22 benchmarks x 12 configs, full oracle
//	drbench -diff eviction,ibl   # cache-eviction and IBL differentials
//	drbench -diff faultstorm -seeds 101,202,303 -json BENCH_faultstorm.json
//	drbench -diff chaosstorm -json BENCH_chaosstorm.json
//	drbench -diff fuzz -fuzz-seeds 1000 -fuzz-ops 60 -parallel 0
//	drbench -diff fuzz -fuzz-corpus repros/   # shrink and store repros for any mismatch
//	drbench -diff fuzzchaos -fuzz-seeds 60    # generated programs under chaos + machine faults
//	drbench -all                 # everything
//
// There is one run path. Every simulated number comes from a differential
// suite on one engine (internal/oracle.Diff): cases x perturbations x
// configs, each runtime run compared with native on the full oracle state.
// The published tables are views over suite outcomes: Table 1 and Figure 5
// over verify, the cache sweep over cachesweep, the IBL sweep over ibl, the
// profile over profile and the telemetry report over telemetry. Each suite
// runs at most once per invocation, so -table1 -figure5 -diff verify share
// one verify run, and a table fails whenever its suite's check does. Tables write the drbench/table/v1 JSON
// layout (the telemetry report drbench/telemetry/v1) and -diff suites
// drbench/diff/v1; with several experiments and -json, each writes
// <path>.<experiment>.json, where a -diff report whose suite shares a
// selected table's name (cachesweep, profile, telemetry) is the experiment
// <suite>-diff.
//
// See EXPERIMENTS.md for the paper-versus-measured discussion.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// experiment is one run selected on the command line.
type experiment struct {
	name string
	run  func(jsonPath string) error
}

// view is a published table over one differential suite's outcomes.
type view struct {
	name, suite string
	benches     []*workload.Benchmark // its rows
	configs     []string              // its columns; nil means all of the suite's
	format      func(harness.Grid) string
}

// suiteRun is one suite's outcomes, shared by the -diff report and every view
// over the suite.
type suiteRun struct {
	suite            *harness.Suite
	outs             []oracle.Outcome
	runErr, checkErr error
	elapsed          time.Duration
}

// run is drbench with its arguments and output streams; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table1     = fs.Bool("table1", false, "reproduce Table 1: the verify suite's feature-ladder columns on crafty and vpr")
		table2     = fs.Bool("table2", false, "reproduce Table 2")
		figure5    = fs.Bool("figure5", false, "reproduce Figure 5: the verify suite's six client columns")
		cachesweep = fs.Bool("cachesweep", false, "run the cache-budget sweep (the cachesweep suite: benchmarks x budget ladder)")
		iblsweep   = fs.Bool("iblsweep", false, "run the indirect-branch lookup sweep (the ibl suite: benchmarks x IBL configuration ladder)")
		profile    = fs.Bool("profile", false, "run the where-the-cycles-go experiment (the profile suite): per-phase tick accounting + per-fragment profiles")
		diffFlag   = fs.String("diff", "", "comma-separated differential suites to run ("+strings.Join(harness.SuiteNames(), ", ")+")")
		seedsFlag  = fs.String("seeds", "101,202,303", "comma-separated fault and chaos schedule seeds for the faultstorm, chaosstorm and fuzzchaos suites")
		all        = fs.Bool("all", false, "reproduce everything")
		bench      = fs.String("bench", "", "comma-separated benchmark subset")
		parallel   = fs.Int("parallel", 1, "worker goroutines for the matrices; 0 means one per CPU")
		jsonPath   = fs.String("json", "", "also write the results as JSON to this path (<path>.<experiment>.json when several experiments run)")
		fuzzSeeds  = fs.Int("fuzz-seeds", 200, "number of generator seeds for the fuzz suites")
		fuzzBase   = fs.Int64("fuzz-seed-base", 1, "first generator seed for the fuzz suites")
		fuzzOps    = fs.Int("fuzz-ops", 40, "statement budget per generated program for the fuzz suites")
		fuzzCorpus = fs.String("fuzz-corpus", "", "directory to write shrunk repro entries to when -diff fuzz finds a mismatch")
		topN       = fs.Int("top", 10, "hottest fragments kept per benchmark for -profile")
		ring       = fs.Int("ring", 0, "per-thread event-trace ring size for the profile suite (0 = tracing off)")
		traceOut   = fs.String("trace-out", "", "write the drained -profile event trace as JSONL to this path (implies -ring 4096 unless set)")
		telemetry  = fs.Bool("telemetry", false, "run the live-telemetry experiment (the telemetry suite): histograms + watchdog with all instrumentation on, checked bit-identical to native")
		traceEvs   = fs.String("trace-events", "", "write the telemetry suite's span stream as Chrome trace-event JSON to this path (load at ui.perfetto.dev)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "drbench:", err)
		return 1
	}

	suites, err := resolveSuites(*diffFlag)
	if err != nil {
		return fail(err)
	}
	if *all {
		suites = harness.SuiteNames()
		*table1, *table2, *figure5, *cachesweep, *iblsweep, *profile, *telemetry = true, true, true, true, true, true, true
	}
	if !*table1 && !*table2 && !*figure5 && !*cachesweep && !*iblsweep && !*profile && !*telemetry && len(suites) == 0 {
		fs.Usage()
		return 2
	}
	var names []string
	if *bench != "" {
		names = strings.Split(*bench, ",")
	}
	benches, err := workload.Select(names...)
	if err != nil {
		return fail(err)
	}
	tableOneBenches, err := workload.Select("crafty", "vpr")
	if err != nil {
		return fail(err)
	}
	seeds, err := parseSeeds(*seedsFlag)
	if err != nil {
		return fail(err)
	}
	if *fuzzSeeds <= 0 {
		return fail(errors.New("-fuzz-seeds must be positive"))
	}
	if *traceOut != "" && *ring == 0 {
		*ring = 4096
	}

	var views []view
	for _, v := range []struct {
		on bool
		view
	}{
		{*table1, view{"table1", "verify", tableOneBenches, harness.TableOneConfigs(), harness.FormatTable1}},
		{*figure5, view{"figure5", "verify", benches, harness.Figure5Configs(), harness.FormatFigure5}},
		{*cachesweep, view{"cachesweep", "cachesweep", benches, nil, harness.FormatCacheSweep}},
		{*iblsweep, view{"iblsweep", "ibl", benches, nil, harness.FormatIBLSweep}},
		{*profile, view{"profile", "profile", benches, nil, func(g harness.Grid) string { return harness.FormatProfile(g, *topN) }}},
		{*telemetry, view{"telemetry", "telemetry", benches, []string{"telemetry"}, harness.FormatTelemetry}},
	} {
		if v.on {
			views = append(views, v.view)
		}
	}

	// Each suite runs once, over every benchmark its -diff report and its
	// views need, and they all read the same outcomes.
	suiteBenches := map[string][]*workload.Benchmark{}
	for _, name := range suites {
		suiteBenches[name] = benches
	}
	for _, v := range views {
		suiteBenches[v.suite] = union(suiteBenches[v.suite], v.benches)
	}
	params := harness.SuiteParams{
		Seeds:     seeds,
		FuzzSeeds: harness.SeedRange(*fuzzBase, *fuzzSeeds),
		FuzzOps:   *fuzzOps,
		EventRing: *ring,
	}
	if *traceEvs != "" {
		f, err := os.Create(*traceEvs)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		params.TraceEvents = obs.NewTraceWriter(f)
	}
	runs := map[string]*suiteRun{}
	runSuite := func(name string) (*suiteRun, error) {
		if r, ok := runs[name]; ok {
			return r, nil
		}
		p := params
		p.Benches = suiteBenches[name]
		s, err := harness.NewSuite(name, p)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		outs, runErr := s.Run(*parallel)
		r := &suiteRun{suite: s, outs: outs, runErr: requireResults(runErr, len(outs)), checkErr: s.Check(outs), elapsed: time.Since(start)}
		runs[name] = r
		return r, nil
	}

	// save writes an experiment's JSON artifact when -json asked for one.
	save := func(path string, n int, elapsed time.Duration, v any) error {
		if path == "" {
			return nil
		}
		if err := writeJSON(path, v); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d benchmarks, %.2fs wall clock)\n", path, n, elapsed.Seconds())
		return nil
	}

	var exps []experiment
	if *table2 {
		exps = append(exps, experiment{"table2", func(string) error {
			fmt.Fprintln(stdout, harness.FormatTable2(harness.Table2()))
			return nil
		}})
	}
	for _, v := range views {
		exps = append(exps, experiment{v.name, func(path string) error {
			r, err := runSuite(v.suite)
			if err != nil {
				return err
			}
			if err := errors.Join(r.runErr, r.checkErr); err != nil {
				return err
			}
			g, err := r.suite.Grid(r.outs, benchNames(v.benches), v.configs)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, v.format(g))
			var doc any = tableJSON(v.name, r, g, *topN, *parallel)
			if v.name == "telemetry" {
				doc = telemetryJSON(g, *parallel, r.elapsed)
			}
			if err := save(path, len(g.Rows), r.elapsed, doc); err != nil {
				return err
			}
			if v.name == "profile" && *traceOut != "" {
				return writeTraceJSONL(stdout, *traceOut, g)
			}
			return nil
		}})
	}
	for _, name := range suites {
		// The cachesweep and profile tables share their suite's name; with
		// both selected, the -diff report is "<suite>-diff".
		ename := name
		if slices.ContainsFunc(views, func(v view) bool { return v.name == name }) {
			ename = name + "-diff"
		}
		exps = append(exps, experiment{ename, func(path string) error {
			r, err := runSuite(name)
			if err != nil {
				return err
			}
			return reportDiff(stdout, r, *parallel, path, *fuzzCorpus, params)
		}})
	}
	status := 0
	for _, e := range exps {
		if err := e.run(experimentPath(*jsonPath, e.name, len(exps))); err != nil {
			status = fail(fmt.Errorf("%s: %w", e.name, err))
		}
	}
	if tw := params.TraceEvents; tw != nil {
		if err := tw.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s (Chrome trace-event JSON; load at ui.perfetto.dev)\n", *traceEvs)
	}
	return status
}

// experimentPath is where an experiment writes its JSON: the -json path
// itself when it is the only experiment selected, else
// <path>.<experiment>.json, so no experiment overwrites another's file.
func experimentPath(base, experiment string, selected int) string {
	if base == "" || selected <= 1 {
		return base
	}
	return base + "." + experiment + ".json"
}

// resolveSuites parses the -diff list, rejecting unknown suite names before
// anything runs.
func resolveSuites(spec string) ([]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var suites []string
	for _, part := range strings.Split(spec, ",") {
		name := strings.TrimSpace(part)
		if !slices.Contains(harness.SuiteNames(), name) {
			return nil, fmt.Errorf("unknown -diff suite %q (have %s)", name, strings.Join(harness.SuiteNames(), ", "))
		}
		if !slices.Contains(suites, name) {
			suites = append(suites, name)
		}
	}
	return suites, nil
}

// reportDiff prints a suite's matrix, writes its JSON and, for the fuzz
// suite with a corpus directory, shrinks every failing program into a repro
// entry. Any failing run or coverage gap is an error.
func reportDiff(w io.Writer, r *suiteRun, workers int, path, corpus string, p harness.SuiteParams) error {
	fmt.Fprint(w, harness.FormatDiff(r.suite, r.outs))
	if r.suite.Name == "fuzz" && corpus != "" {
		if err := shrinkFailures(w, r.suite, r.outs, p, corpus); err != nil {
			return err
		}
	}
	if path != "" {
		if err := writeJSON(path, diffJSON(r.suite, r.outs, r.checkErr, workers, r.elapsed)); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d runs, %.2fs wall clock)\n", path, len(r.outs), r.elapsed.Seconds())
	}
	if r.runErr != nil {
		return r.runErr
	}
	return r.checkErr
}

// shrinkFailures shrinks each failing fuzz program against the suite's
// matrix and stores the minimal repro in the corpus directory.
func shrinkFailures(w io.Writer, s *harness.Suite, outs []oracle.Outcome, p harness.SuiteParams, corpus string) error {
	perCase := len(s.Configs)
	for i, seed := range p.FuzzSeeds {
		var first *oracle.Outcome
		for k := i * perCase; k < (i+1)*perCase; k++ {
			if outs[k].Failure() != "" {
				first = &outs[k]
				break
			}
		}
		if first == nil {
			continue
		}
		prog := fuzz.Generate(seed, p.FuzzOps)
		shrunk := fuzz.Shrink(prog, func(q *fuzz.Prog) bool { return fuzz.Diverges(q, s.Configs) }, 0)
		e := &fuzz.Entry{
			Name:     fmt.Sprintf("fuzz-seed%d", seed),
			Note:     fmt.Sprintf("shrunk from %d statements by drbench -diff fuzz", prog.NumStmts()),
			Config:   first.Config,
			Mismatch: first.Failure(),
			Prog:     *shrunk,
		}
		if err := fuzz.WriteEntry(corpus, e); err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote %s/%s.json (%d statements)\n", corpus, e.Name, shrunk.NumStmts())
	}
	return nil
}

// requireResults enforces that a requested experiment measured something:
// an empty result set means the run silently did no work, which must fail
// loudly rather than produce an empty artifact.
func requireResults(err error, n int) error {
	if err == nil && n == 0 {
		return errors.New("produced zero workload results")
	}
	return err
}

func parseSeeds(s string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(s, ",") {
		var v int64
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		seeds = append(seeds, v)
	}
	return seeds, nil
}

func benchNames(benches []*workload.Benchmark) []string {
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.Name
	}
	return names
}

// union returns a followed by the benchmarks of b not in a.
func union(a, b []*workload.Benchmark) []*workload.Benchmark {
	out := slices.Clone(a)
	for _, w := range b {
		if !slices.Contains(out, w) {
			out = append(out, w)
		}
	}
	return out
}
