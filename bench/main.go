// Command bench is the repository's benchmark. It runs the runtime over one
// of four workloads (suite, figure5, churn, fuzz) in a closed loop on one
// worker goroutine, calls each layer only through its public entry points,
// verifies every run against a native reference through internal/oracle,
// and prints every metric by name and unit. The last line of its output is
// one JSON object with the verdict and the metrics: the end-to-end metrics,
// or with -trace 1 the per-layer ones. It exits 1 when any run failed.
//
//	go run . -workload suite|figure5|churn|fuzz|all -seed N [-seconds S] [-trace 0|1] [-trace-out FILE] [-json FILE]
//
// See README.md for the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	// One worker on one processor: the load is a single closed loop, and
	// garbage collection shares the worker's processor rather than running
	// on an idle one, whatever the host's processor count.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonMetric and result are the shape of the final output line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", cfg.workload, "suite, figure5, churn, fuzz or all")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "seed for the op order within each pass")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "timed seconds per workload (whole passes; at least 3 passes and 100 ops)")
	traceFlag := fs.Int("trace", 0, "1: add a traced run and report the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", ".bench_build/trace.json", "Chrome trace-event file of the traced run")
	jsonOut := fs.String("json", "", "also write every metric of every workload to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || cfg.seconds < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	cfg.trace = *traceFlag == 1
	return execute(cfg, *jsonOut, stdout, stderr)
}

// execute runs the configured workload, or all four, prints the reports and
// the result line, and returns the exit code.
func execute(cfg config, jsonOut string, stdout, stderr io.Writer) int {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	res := result{Metrics: map[string]jsonMetric{}}
	full := map[string]map[string]jsonMetric{}
	for _, name := range names {
		c := cfg
		c.workload = name
		if len(names) > 1 {
			ext := filepath.Ext(cfg.traceOut)
			c.traceOut = strings.TrimSuffix(cfg.traceOut, ext) + "-" + name + ext
		}
		rep, err := runWorkload(c, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printReport(stdout, rep)
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		reported := rep.e2e
		if cfg.trace {
			reported = rep.layers
		}
		full[name] = map[string]jsonMetric{}
		for _, m := range append(rep.e2e, rep.layers...) {
			if measured(m) {
				full[name][m.name] = jsonMetric{m.value, m.unit}
			}
		}
		for _, m := range reported {
			// failed_frac is reported through "failed"; the result's
			// metrics are those BENCHMARK.json bounds or lists.
			if !measured(m) || m.name == "failed_frac" {
				continue
			}
			key := m.name
			if len(names) > 1 {
				key = name + "." + key
			}
			res.Metrics[key] = jsonMetric{m.value, m.unit}
		}
	}
	res.Correct = res.Failed == 0
	if jsonOut != "" {
		data, err := json.MarshalIndent(full, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", jsonOut, err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func measured(m metric) bool {
	return m.na == "" && !math.IsNaN(m.value) && !math.IsInf(m.value, 0)
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "== %s\n", rep.header)
	lines := func(ms []metric) {
		for _, m := range ms {
			v := fmt.Sprintf("%.6g", m.value)
			note := m.note
			if !measured(m) {
				v, note = "n/a", m.na
			}
			fmt.Fprintf(w, "  %-36s %14s  %-9s %s\n", m.name, v, m.unit, note)
		}
	}
	lines(rep.e2e)
	if len(rep.layers) > 0 {
		fmt.Fprintf(w, "-- %s per layer (traced run)\n", rep.workload)
		lines(rep.layers)
	}
	fmt.Fprintf(w, "-- %s: %d runs verified, %d failed\n", rep.workload, rep.attempted, rep.failed)
}
