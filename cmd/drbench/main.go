// Command drbench regenerates the paper's evaluation artifacts over the
// synthetic SPEC2000 suite:
//
//	drbench -table1              # Table 1: the feature ladder on crafty/vpr
//	drbench -table2              # Table 2: per-level decode+encode cost
//	drbench -figure5             # Figure 5: all 22 benchmarks x 6 configs
//	drbench -figure5 -bench mgrid,crafty
//	drbench -figure5 -parallel 0 # fan the benchmark x config matrix across all CPUs
//	drbench -figure5 -json BENCH_figure5.json
//	drbench -figure5 -cache-bb 65536 -cache-trace 65536   # bounded caches
//	drbench -figure5 -ibl-adaptive -ibl-bits 6            # run Figure 5 on the adaptive open-address IBL
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
//	drbench -diff verify         # transparency matrix: 22 benchmarks x 11 configs, full oracle
//	drbench -diff eviction,ibl   # cache-eviction and IBL differentials
//	drbench -diff faultstorm -seeds 101,202,303 -json BENCH_faultstorm.json
//	drbench -diff chaosstorm -json BENCH_chaosstorm.json
//	drbench -diff fuzz -fuzz-seeds 1000 -fuzz-ops 60 -parallel 0
//	drbench -diff fuzz -fuzz-corpus repros/   # shrink and store repros for any mismatch
//	drbench -diff fuzzchaos -fuzz-seeds 60    # generated programs under chaos + machine faults
//	drbench -all                 # everything
//
// Every -diff suite runs on one differential engine (internal/oracle.Diff):
// cases x perturbations x configs, each runtime run compared with native.
// With several experiments and -json, each writes <path>.<experiment>.json.
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
	"repro/internal/oracle"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// experiment is one JSON-producing run selected on the command line.
type experiment struct {
	name string
	run  func(jsonPath string) error
}

// run is drbench with its arguments and output streams; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table1     = fs.Bool("table1", false, "reproduce Table 1")
		table2     = fs.Bool("table2", false, "reproduce Table 2")
		figure5    = fs.Bool("figure5", false, "reproduce Figure 5")
		cachesweep = fs.Bool("cachesweep", false, "run the cache-budget sweep (benchmarks x budget ladder)")
		iblsweep   = fs.Bool("iblsweep", false, "run the indirect-branch lookup sweep (benchmarks x IBL configuration ladder)")
		diffFlag   = fs.String("diff", "", "comma-separated differential suites to run ("+strings.Join(harness.SuiteNames(), ", ")+")")
		seedsFlag  = fs.String("seeds", "101,202,303", "comma-separated fault and chaos schedule seeds for the faultstorm, chaosstorm and fuzzchaos suites")
		all        = fs.Bool("all", false, "reproduce everything")
		bench      = fs.String("bench", "", "comma-separated benchmark subset")
		parallel   = fs.Int("parallel", 1, "worker goroutines for the matrices; 0 means one per CPU")
		jsonPath   = fs.String("json", "", "also write the results as JSON to this path (<path>.<experiment>.json when several experiments run)")
		cacheBB    = fs.Int("cache-bb", 0, "per-thread basic-block cache budget in bytes for -figure5 (0 = unbounded)")
		cacheTrace = fs.Int("cache-trace", 0, "per-thread trace cache budget in bytes for -figure5 (0 = unbounded)")
		adaptive   = fs.Bool("adaptive", false, "enable adaptive cache resizing for -figure5 (needs a bounded cache)")
		iblBits    = fs.Uint("ibl-bits", 0, "initial IBL hashtable size as log2 entries for -figure5 (0 = runtime default)")
		iblAdapt   = fs.Bool("ibl-adaptive", false, "run -figure5 on the adaptive open-address IBL hashtable instead of the paper's fixed direct-mapped table")
		noElide    = fs.Bool("no-flags-elision", false, "disable eflags-liveness flag-save elision for -figure5 (meaningful with -ibl-adaptive)")
		fuzzSeeds  = fs.Int("fuzz-seeds", 200, "number of generator seeds for the fuzz suites")
		fuzzBase   = fs.Int64("fuzz-seed-base", 1, "first generator seed for the fuzz suites")
		fuzzOps    = fs.Int("fuzz-ops", 40, "statement budget per generated program for the fuzz suites")
		fuzzCorpus = fs.String("fuzz-corpus", "", "directory to write shrunk repro entries to when -diff fuzz finds a mismatch")
		profile    = fs.Bool("profile", false, "run the where-the-cycles-go experiment: per-phase tick accounting + per-fragment profiles")
		topN       = fs.Int("top", 10, "hottest fragments kept per benchmark for -profile")
		ring       = fs.Int("ring", 0, "per-thread event-trace ring size for -profile (0 = tracing off)")
		traceOut   = fs.String("trace-out", "", "write the drained -profile event trace as JSONL to this path (implies -ring 4096 unless set)")
		telemetry  = fs.Bool("telemetry", false, "run the live-telemetry experiment: histograms + watchdog with all instrumentation on, checked bit-identical to native")
		traceEvs   = fs.String("trace-events", "", "write the -telemetry span stream as Chrome trace-event JSON to this path (load at ui.perfetto.dev)")
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
	}
	if !*table1 && !*table2 && !*figure5 && !*cachesweep && !*iblsweep && len(suites) == 0 && !*profile && !*telemetry {
		fs.Usage()
		return 2
	}
	var names []string
	if *bench != "" {
		names = strings.Split(*bench, ",")
	}
	benches, err := benchList(names)
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

	if *table1 || *all {
		fmt.Fprintln(stdout, harness.FormatTable1(harness.Table1()))
	}
	if *table2 || *all {
		fmt.Fprintln(stdout, harness.FormatTable2(harness.Table2()))
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
	if *figure5 || *all {
		exps = append(exps, experiment{"figure5", func(path string) error {
			// Figure 5 measures the paper's base system (fixed direct-mapped
			// IBL, no flag-save elision); the -ibl-* flags rerun it on the
			// new indirect-branch fast path.
			opts := harness.Figure5Options()
			opts.BBCacheSize, opts.TraceCacheSize, opts.AdaptiveCache = *cacheBB, *cacheTrace, *adaptive
			if *iblBits != 0 {
				opts.IBLTableBits = *iblBits
			}
			if *iblAdapt {
				opts.IBLDirectMapped, opts.IBLAdaptive, opts.FlagsElision = false, true, !*noElide
			}
			start := time.Now()
			rows, err := harness.RunMatrix(*parallel, benches, opts)
			elapsed := time.Since(start)
			if err = requireResults(err, len(rows)); err != nil {
				return err
			}
			fmt.Fprint(stdout, harness.FormatFigure5(rows))
			return save(path, len(rows), elapsed, figure5JSON(rows, *parallel, elapsed))
		}})
	}
	if *cachesweep || *all {
		exps = append(exps, experiment{"cachesweep", func(path string) error {
			points := harness.DefaultSweep()
			start := time.Now()
			rows, err := harness.CacheSweep(*parallel, benches, points)
			elapsed := time.Since(start)
			if err = requireResults(err, len(rows)); err != nil {
				return err
			}
			fmt.Fprint(stdout, harness.FormatCacheSweep(points, rows))
			return save(path, len(rows), elapsed, cacheSweepJSON(points, rows, *parallel, elapsed))
		}})
	}
	if *iblsweep || *all {
		exps = append(exps, experiment{"iblsweep", func(path string) error {
			points := harness.DefaultIBLSweep()
			start := time.Now()
			rows, err := harness.IBLSweep(*parallel, benches, points)
			elapsed := time.Since(start)
			if err = requireResults(err, len(rows)); err != nil {
				return err
			}
			fmt.Fprint(stdout, harness.FormatIBLSweep(points, rows))
			return save(path, len(rows), elapsed, iblSweepJSON(points, rows, *parallel, elapsed))
		}})
	}
	params := harness.SuiteParams{
		Benches:   benches,
		Seeds:     seeds,
		FuzzSeeds: harness.SeedRange(*fuzzBase, *fuzzSeeds),
		FuzzOps:   *fuzzOps,
	}
	for _, name := range suites {
		exps = append(exps, experiment{name, func(path string) error {
			return runDiff(stdout, name, params, *parallel, path, *fuzzCorpus)
		}})
	}
	if *profile || *all {
		exps = append(exps, experiment{"profile", func(path string) error {
			ringSize := *ring
			if *traceOut != "" && ringSize == 0 {
				ringSize = 4096
			}
			start := time.Now()
			rows, err := harness.Profile(*parallel, *topN, ringSize, benches)
			elapsed := time.Since(start)
			if err = requireResults(err, len(rows)); err != nil {
				return err
			}
			fmt.Fprint(stdout, harness.FormatProfile(rows))
			if err := save(path, len(rows), elapsed, profileJSON(rows, *parallel, elapsed)); err != nil || *traceOut == "" {
				return err
			}
			if err := writeTraceJSONL(*traceOut, rows); err != nil {
				return err
			}
			n, dropped := 0, uint64(0)
			for _, r := range rows {
				n += len(r.Events)
				dropped += r.EventsDropped
			}
			fmt.Fprintf(stdout, "wrote %s (%d events, %d dropped by the rings)\n", *traceOut, n, dropped)
			return nil
		}})
	}
	if *telemetry || *all {
		exps = append(exps, experiment{"telemetry", func(path string) error {
			var traceW io.Writer
			if *traceEvs != "" {
				f, err := os.Create(*traceEvs)
				if err != nil {
					return err
				}
				defer f.Close()
				traceW = f
			}
			start := time.Now()
			rows, err := harness.Telemetry(*parallel, benches, traceW)
			elapsed := time.Since(start)
			if err = requireResults(err, len(rows)); err != nil {
				return err
			}
			fmt.Fprint(stdout, harness.FormatTelemetry(rows))
			if *traceEvs != "" {
				fmt.Fprintf(stdout, "wrote %s (Chrome trace-event JSON; load at ui.perfetto.dev)\n", *traceEvs)
			}
			return save(path, len(rows), elapsed, telemetryJSON(rows, *parallel, elapsed))
		}})
	}

	status := 0
	for _, e := range exps {
		if err := e.run(experimentPath(*jsonPath, e.name, len(exps))); err != nil {
			status = fail(fmt.Errorf("%s: %w", e.name, err))
		}
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

// runDiff runs one differential suite, prints its matrix, writes its JSON
// and, for the fuzz suite with a corpus directory, shrinks every failing
// program into a repro entry. Any failing run or coverage gap is an error.
func runDiff(w io.Writer, name string, p harness.SuiteParams, workers int, path, corpus string) error {
	s, err := harness.NewSuite(name, p)
	if err != nil {
		return err
	}
	start := time.Now()
	outs, runErr := s.Run(workers)
	elapsed := time.Since(start)
	fmt.Fprint(w, harness.FormatDiff(s, outs))
	checkErr := s.Check(outs)
	if name == "fuzz" && corpus != "" {
		if err := shrinkFailures(w, s, outs, p, corpus); err != nil {
			return err
		}
	}
	if path != "" {
		if err := writeJSON(path, diffJSON(s, outs, checkErr, workers, elapsed)); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d runs, %.2fs wall clock)\n", path, len(outs), elapsed.Seconds())
	}
	if runErr != nil {
		return runErr
	}
	return checkErr
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

func benchList(names []string) ([]*workload.Benchmark, error) {
	if len(names) == 0 {
		return workload.All(), nil
	}
	benches := make([]*workload.Benchmark, 0, len(names))
	for _, n := range names {
		b := workload.ByName(n)
		if b == nil {
			return nil, fmt.Errorf("unknown benchmark %s", n)
		}
		benches = append(benches, b)
	}
	return benches, nil
}
