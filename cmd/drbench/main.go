// Command drbench regenerates the paper's evaluation artifacts over the
// synthetic SPEC2000 suite:
//
//	drbench -diff verify         # transparency matrix: 22 benchmarks x 12 configs; prints Figure 5 (and Table 1)
//	drbench -diff verify -bench mgrid,crafty
//	drbench -diff verify -parallel 0 # fan the benchmark x config matrix across all CPUs
//	drbench -diff cachesweep     # cache budget ladder + eviction stress: 22 benchmarks x 8 budgets
//	drbench -diff ibl            # indirect-branch lookup ladder: 22 benchmarks x 6 IBL configs
//	drbench -diff telemetry      # all instrumentation on: phase profile, hottest fragments, histograms, watchdog
//	drbench -diff telemetry -trace-out events.jsonl -trace-events trace.json   # event trace; spans for ui.perfetto.dev
//	drbench -diff faultstorm -seeds 101,202,303
//	drbench -diff cachesweep,ibl,faultstorm,chaosstorm,verify,telemetry -parallel 0 -json .   # the six committed artifacts
//	drbench -diff fuzz -fuzz-seeds 1000 -fuzz-ops 60 -parallel 0
//	drbench -diff fuzz -fuzz-corpus repros/   # shrink and store repros for any mismatch
//	drbench -diff fuzzchaos -fuzz-seeds 60    # generated programs under chaos + machine faults
//	drbench -table2              # Table 2: per-level decode+encode cost
//	drbench -all                 # everything
//
// There is one run path. Every simulated number comes from a differential
// suite on one engine (internal/oracle.Diff): cases x perturbations x
// configs, each runtime run compared with native on the full oracle state.
// Each suite runs once per invocation and has at most one published table, a
// view over its outcomes: Figure 5 over verify (which also prints Table 1
// when crafty and vpr are selected), the cache sweep over cachesweep, the IBL
// sweep over ibl and the telemetry report over telemetry. A table fails
// whenever its suite's check does. With -json DIR, each suite writes one file,
// DIR/BENCH_<view>.json in the drbench/table/v1 layout for a suite with a
// view, DIR/BENCH_<suite>.json in drbench/diff/v1 for the others.
//
// See EXPERIMENTS.md for the paper-versus-measured discussion.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// settings are the command-line choices every suite run reads.
type settings struct {
	params   harness.SuiteParams
	parallel int
	jsonDir  string
	corpus   string
	traceOut string
}

// run is drbench with its arguments and output streams; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table2     = fs.Bool("table2", false, "reproduce Table 2")
		diffFlag   = fs.String("diff", "", "comma-separated differential suites to run ("+strings.Join(harness.SuiteNames(), ", ")+"); verify, cachesweep, ibl and telemetry also print their published table")
		seedsFlag  = fs.String("seeds", "101,202,303", "comma-separated fault and chaos schedule seeds for the faultstorm, chaosstorm and fuzzchaos suites")
		all        = fs.Bool("all", false, "run every suite and Table 2")
		bench      = fs.String("bench", "", "comma-separated benchmark subset")
		parallel   = fs.Int("parallel", 1, "worker goroutines for the matrices; 0 means one per CPU")
		jsonDir    = fs.String("json", "", "write each suite's artifact to this directory as BENCH_<view or suite>.json")
		fuzzSeeds  = fs.Int("fuzz-seeds", 200, "number of generator seeds for the fuzz suites")
		fuzzBase   = fs.Int64("fuzz-seed-base", 1, "first generator seed for the fuzz suites")
		fuzzOps    = fs.Int("fuzz-ops", 40, "statement budget per generated program for the fuzz suites")
		fuzzCorpus = fs.String("fuzz-corpus", "", "directory to write shrunk repro entries to when -diff fuzz finds a mismatch")
		traceOut   = fs.String("trace-out", "", "write the telemetry suite's drained event trace as JSONL to this path")
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
		suites, *table2 = harness.SuiteNames(), true
	}
	if !*table2 && len(suites) == 0 {
		fs.Usage()
		return 2
	}
	if (*traceOut != "" || *traceEvs != "") && !slices.Contains(suites, "telemetry") {
		return fail(errors.New("-trace-out and -trace-events are outputs of the telemetry suite: add -diff telemetry"))
	}
	var names []string
	if *bench != "" {
		names = strings.Split(*bench, ",")
	}
	benches, err := workload.Select(names...)
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
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			return fail(err)
		}
	}
	set := settings{
		params: harness.SuiteParams{
			Benches:   benches,
			Seeds:     seeds,
			FuzzSeeds: harness.SeedRange(*fuzzBase, *fuzzSeeds),
			FuzzOps:   *fuzzOps,
		},
		parallel: *parallel,
		jsonDir:  *jsonDir,
		corpus:   *fuzzCorpus,
		traceOut: *traceOut,
	}
	if *traceEvs != "" {
		f, err := os.Create(*traceEvs)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		set.params.TraceEvents = obs.NewTraceWriter(f)
	}

	status := 0
	if *table2 {
		fmt.Fprintln(stdout, harness.FormatTable2(harness.Table2()))
	}
	for _, name := range suites {
		if err := runSuite(stdout, name, set); err != nil {
			status = fail(fmt.Errorf("%s: %w", name, err))
		}
	}
	if tw := set.params.TraceEvents; tw != nil {
		if err := tw.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s (Chrome trace-event JSON; load at ui.perfetto.dev)\n", *traceEvs)
	}
	return status
}

// runSuite runs one suite and prints its matrix. A suite with a published
// view then prints and writes the view, which fails on any failing cell or
// coverage gap; any other suite writes its whole matrix, failures included,
// and then fails. For the fuzz suite with a corpus directory, every failing
// program is first shrunk into a repro entry.
func runSuite(w io.Writer, name string, set settings) error {
	s, err := harness.NewSuite(name, set.params)
	if err != nil {
		return err
	}
	start := time.Now()
	outs, runErr := s.Run(set.parallel)
	elapsed := time.Since(start)
	runErr = requireResults(runErr, len(outs))
	checkErr := s.Check(outs)
	fmt.Fprint(w, harness.FormatDiff(s, outs))
	if name == "fuzz" && set.corpus != "" {
		if err := shrinkFailures(w, s, outs, set.params, set.corpus); err != nil {
			return err
		}
	}
	if s.View == nil {
		summary := fmt.Sprintf("%d runs, %.2fs wall clock", len(outs), elapsed.Seconds())
		if err := save(w, set.jsonDir, name, diffJSON(s, outs, checkErr, set.parallel, elapsed), summary); err != nil {
			return err
		}
		return errors.Join(runErr, checkErr)
	}
	if err := errors.Join(runErr, checkErr); err != nil {
		return err
	}
	if tableOne := []string{"crafty", "vpr"}; name == "verify" && selected(set.params.Benches, tableOne) {
		g, err := s.Grid(outs, tableOne, harness.TableOneConfigs())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, harness.FormatTable1(g))
	}
	g, err := s.Grid(outs, nil, s.View.Configs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, s.View.Format(g))
	summary := fmt.Sprintf("%d benchmarks, %.2fs wall clock", len(g.Rows), elapsed.Seconds())
	if err := save(w, set.jsonDir, s.View.Name, tableJSON(s.View.Name, s.Name, g, set.parallel, elapsed), summary); err != nil {
		return err
	}
	if name == "telemetry" && set.traceOut != "" {
		return writeTraceJSONL(w, set.traceOut, g)
	}
	return nil
}

// save writes an artifact as DIR/BENCH_<name>.json when -json named a
// directory.
func save(w io.Writer, dir, name string, v any, summary string) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	if err := writeJSON(path, v); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%s)\n", path, summary)
	return nil
}

// selected reports whether every named benchmark is among benches.
func selected(benches []*workload.Benchmark, names []string) bool {
	for _, n := range names {
		if !slices.Contains(benches, workload.ByName(n)) {
			return false
		}
	}
	return true
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

// parseSeeds parses the -seeds list; each field must be a whole decimal
// integer.
func parseSeeds(s string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		seeds = append(seeds, v)
	}
	return seeds, nil
}
