package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExperimentPath pins the -json rule: one experiment writes the given
// path, several write one file each. The collision case is the regression
// where a second experiment silently overwrote the first one's file.
func TestExperimentPath(t *testing.T) {
	if got := experimentPath("x.json", "faultstorm", 1); got != "x.json" {
		t.Errorf("single experiment: %q, want x.json", got)
	}
	if got := experimentPath("", "fuzz", 3); got != "" {
		t.Errorf("no -json: %q, want empty", got)
	}
	names := []string{"figure5", "faultstorm", "chaosstorm", "fuzz", "profile", "telemetry"}
	seen := map[string]bool{}
	for _, n := range names {
		p := experimentPath("x.json", n, len(names))
		if p == "x.json" || seen[p] {
			t.Errorf("%s: path %q collides", n, p)
		}
		seen[p] = true
	}
	if got := experimentPath("x.json", "fuzz", 2); got != "x.json.fuzz.json" {
		t.Errorf("got %q, want x.json.fuzz.json", got)
	}
}

func TestResolveSuites(t *testing.T) {
	got, err := resolveSuites(" faultstorm, fuzz,faultstorm")
	if err != nil || !slices.Equal(got, []string{"faultstorm", "fuzz"}) {
		t.Errorf("resolveSuites = %v, %v", got, err)
	}
	if got, err := resolveSuites(""); err != nil || got != nil {
		t.Errorf("empty -diff: %v, %v", got, err)
	}
	_, err = resolveSuites("faultstorm,nosuch")
	if err == nil || !strings.Contains(err.Error(), `"nosuch"`) || !strings.Contains(err.Error(), "chaosstorm") {
		t.Errorf("unknown suite: err = %v, want one naming it and the known suites", err)
	}
	var stderr bytes.Buffer
	if code := run([]string{"-diff", "nosuch"}, &bytes.Buffer{}, &stderr); code != 1 {
		t.Errorf("drbench -diff nosuch exited %d, want 1 (stderr %q)", code, stderr.String())
	}
}

// readSchema returns the schema field of a JSON artifact.
func readSchema(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Schema string `json:"schema"`
		Runs   int    `json:"runs"`
		Failed int    `json:"failed"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema == "drbench/diff/v1" && (f.Runs == 0 || f.Failed != 0) {
		t.Errorf("%s: %d runs, %d failed", path, f.Runs, f.Failed)
	}
	return f.Schema
}

// TestDiffSmoke runs one benchmark through the faultstorm suite and reads
// the artifact back, then reruns it alongside the fuzz suite: both files
// must survive.
func TestDiffSmoke(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-diff", "faultstorm", "-bench", "crafty", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if got := readSchema(t, path); got != "drbench/diff/v1" {
		t.Errorf("schema %q, want drbench/diff/v1", got)
	}

	args := []string{"-diff", "faultstorm,fuzz", "-bench", "crafty", "-fuzz-seeds", "2", "-json", path}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	for _, suite := range []string{"faultstorm", "fuzz"} {
		if got := readSchema(t, path+"."+suite+".json"); got != "drbench/diff/v1" {
			t.Errorf("%s: schema %q", suite, got)
		}
	}
}

// TestUnknownBenchmark: a -bench name that is not in the suite is rejected
// before anything runs.
func TestUnknownBenchmark(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-figure5", "-bench", "crafty,nosuch"}, &bytes.Buffer{}, &stderr); code != 1 || !strings.Contains(stderr.String(), "nosuch") {
		t.Errorf("drbench -bench crafty,nosuch exited %d (stderr %q), want 1 naming the benchmark", code, stderr.String())
	}
}

// TestPublishedTables runs every published table on two benchmarks and reads
// each artifact back: one layout, one row per benchmark, one point per
// column, and the fields bench/bench_test.go cross-checks (rows[].benchmark,
// rows[].normalized and means.all of Figure 5; points[].name and
// rows[].normalized of the cache sweep), next to the cachesweep suite's own
// -diff report and the telemetry report with its span stream. Each table
// also enforces its suite's coverage check, and the IBL suite's requires table displacement,
// which among the benchmarks only gcc and perlbmk reach; Table 1's rows are
// always crafty and vpr.
func TestPublishedTables(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.json")
	trace := filepath.Join(t.TempDir(), "trace.json")
	args := []string{"-table1", "-figure5", "-cachesweep", "-iblsweep", "-profile", "-telemetry", "-diff", "cachesweep",
		"-bench", "crafty,perlbmk", "-parallel", "0", "-json", path, "-trace-events", trace}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	// The -diff report of the suite behind a selected table gets its own
	// file.
	if got := readSchema(t, path+".cachesweep-diff.json"); got != "drbench/diff/v1" {
		t.Errorf("cachesweep-diff: schema %q, want drbench/diff/v1", got)
	}
	if n := strings.Count(stdout.String(), "diff cachesweep:"); n != 1 {
		t.Errorf("the cachesweep report printed %d times, want once", n)
	}
	// The telemetry report keeps its own layout, and the span stream is
	// one document.
	var tf struct {
		Schema    string
		Anomalies uint64
		Rows      []struct {
			Benchmark  string
			Histograms []struct{ Count uint64 }
		}
	}
	if raw, err := os.ReadFile(path + ".telemetry.json"); err != nil || json.Unmarshal(raw, &tf) != nil {
		t.Fatalf("telemetry artifact: %v", err)
	}
	if tf.Schema != "drbench/telemetry/v1" || tf.Anomalies != 0 || len(tf.Rows) != 2 || len(tf.Rows[0].Histograms) == 0 {
		t.Errorf("telemetry artifact: %+v", tf)
	}
	if raw, err := os.ReadFile(trace); err != nil || !json.Valid(raw) {
		t.Errorf("trace-event stream not one valid document (%v)", err)
	}
	for name, points := range map[string][]string{
		"table1":     {"emulation", "bb-cache", "link-direct", "link-indirect", "traces"},
		"figure5":    {"base", "rlr", "inc2add", "ibdispatch", "ctrace", "all"},
		"cachesweep": {"512", "1k", "2k", "4k", "unbounded", "adaptive"},
		"iblsweep":   {"direct-64", "direct-256", "open-64", "open-256", "adaptive-from-64", "open-256-noelide"},
		"profile":    {"default"},
	} {
		raw, err := os.ReadFile(path + "." + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var f struct {
			Schema string
			Points []struct{ Name string }
			Rows   []struct {
				Benchmark  string
				Normalized []float64
				Cells      []struct {
					Ticks      uint64
					PhaseTicks map[string]uint64 `json:"phase_ticks"`
				}
			}
			Means struct{ All []float64 }
		}
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.Schema != "drbench/table/v1" {
			t.Errorf("%s: schema %q, want drbench/table/v1", name, f.Schema)
		}
		var got []string
		for _, p := range f.Points {
			got = append(got, p.Name)
		}
		if !slices.Equal(got, points) {
			t.Errorf("%s: points %v, want %v", name, got, points)
		}
		second := "perlbmk"
		if name == "table1" {
			second = "vpr"
		}
		if len(f.Rows) != 2 || f.Rows[0].Benchmark != "crafty" || f.Rows[1].Benchmark != second {
			t.Fatalf("%s: rows %+v, want crafty and %s", name, f.Rows, second)
		}
		for _, r := range f.Rows {
			if len(r.Normalized) != len(points) || len(r.Cells) != len(points) {
				t.Errorf("%s/%s: %d normalized, %d cells, want %d", name, r.Benchmark, len(r.Normalized), len(r.Cells), len(points))
			}
			for i, x := range r.Normalized {
				if x <= 0 || r.Cells[i].Ticks == 0 {
					t.Errorf("%s/%s/%s: normalized %v, ticks %d", name, r.Benchmark, points[i], x, r.Cells[i].Ticks)
				}
			}
			if name == "profile" && len(r.Cells[0].PhaseTicks) == 0 {
				t.Errorf("profile/%s: no phase ticks", r.Benchmark)
			}
		}
		if len(f.Means.All) != len(points) {
			t.Errorf("%s: means.all %v, want one per point", name, f.Means.All)
		}
	}
}
