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

// TestRemovedFlags: the per-table flags, -top and -ring are gone (every
// table is the view of a -diff suite), so each one is a usage error, and the
// telemetry suite's two trace outputs need that suite.
func TestRemovedFlags(t *testing.T) {
	for _, flag := range []string{"-table1", "-figure5", "-cachesweep", "-iblsweep", "-profile", "-telemetry", "-top=10", "-ring=4096"} {
		if code := run([]string{flag}, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
			t.Errorf("drbench %s exited %d, want 2", flag, code)
		}
	}
	var stderr bytes.Buffer
	if code := run([]string{"-diff", "faultstorm", "-trace-out", "x.jsonl"}, &bytes.Buffer{}, &stderr); code != 1 || !strings.Contains(stderr.String(), "telemetry") {
		t.Errorf("-trace-out without the telemetry suite exited %d (stderr %q), want 1 naming the suite", code, stderr.String())
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

// artifacts returns the file names in dir.
func artifacts(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestDiffSmoke runs one benchmark through the faultstorm suite and reads
// the artifact back, then reruns it alongside the fuzz suite: -json names a
// directory, and each suite without a view writes BENCH_<suite>.json there.
func TestDiffSmoke(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifacts")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-diff", "faultstorm", "-bench", "crafty", "-json", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if got := artifacts(t, dir); !slices.Equal(got, []string{"BENCH_faultstorm.json"}) {
		t.Errorf("wrote %v, want BENCH_faultstorm.json", got)
	}

	args := []string{"-diff", "faultstorm,fuzz", "-bench", "crafty", "-fuzz-seeds", "2", "-json", dir}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	for _, suite := range []string{"faultstorm", "fuzz"} {
		if got := readSchema(t, filepath.Join(dir, "BENCH_"+suite+".json")); got != "drbench/diff/v1" {
			t.Errorf("%s: schema %q", suite, got)
		}
	}
}

// TestUnknownBenchmark: a -bench name that is not in the suite is rejected
// before anything runs.
func TestUnknownBenchmark(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-diff", "verify", "-bench", "crafty,nosuch"}, &bytes.Buffer{}, &stderr); code != 1 || !strings.Contains(stderr.String(), "nosuch") {
		t.Errorf("drbench -bench crafty,nosuch exited %d (stderr %q), want 1 naming the benchmark", code, stderr.String())
	}
}

// TestBadSeed: a -seeds field with trailing garbage is rejected before
// anything runs, not read as its leading digits.
func TestBadSeed(t *testing.T) {
	for _, seeds := range []string{"101,2o2", "1e3"} {
		var stderr bytes.Buffer
		if code := run([]string{"-diff", "faultstorm", "-bench", "crafty", "-seeds", seeds}, &bytes.Buffer{}, &stderr); code == 0 || !strings.Contains(stderr.String(), "bad seed") {
			t.Errorf("drbench -seeds %s exited %d (stderr %q), want nonzero with \"bad seed\"", seeds, code, stderr.String())
		}
	}
}

// TestPublishedTables runs the four suites that have a published view on
// two benchmarks in one invocation and reads each artifact back: exactly one
// drbench/table/v1 file per suite, named after its view, with one row per
// benchmark, one point per published column, and the fields
// bench/bench_test.go cross-checks (rows[].benchmark, rows[].normalized and
// means.all of Figure 5; points[].name and rows[].normalized of the cache
// sweep), next to the telemetry suite's event trace and span stream. Each
// view also enforces its suite's coverage check, and the IBL suite's
// requires table displacement, which among the benchmarks only gcc and
// perlbmk reach. Table 1 is printed only when crafty and vpr are both
// selected.
func TestPublishedTables(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifacts")
	trace := filepath.Join(t.TempDir(), "trace.json")
	events := filepath.Join(t.TempDir(), "events.jsonl")
	args := []string{"-diff", "verify,cachesweep,ibl,telemetry", "-bench", "crafty,perlbmk", "-parallel", "0",
		"-json", dir, "-trace-events", trace, "-trace-out", events}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	want := []string{"BENCH_cachesweep.json", "BENCH_figure5.json", "BENCH_iblsweep.json", "BENCH_telemetry.json"}
	if got := artifacts(t, dir); !slices.Equal(got, want) {
		t.Errorf("wrote %v, want %v", got, want)
	}
	for _, title := range []string{"Figure 5:", "Cache sweep:", "IBL sweep:", "Phase accounting:", "Telemetry:"} {
		if n := strings.Count(stdout.String(), title); n != 1 {
			t.Errorf("%q printed %d times, want once", title, n)
		}
	}
	if strings.Contains(stdout.String(), "Table 1") {
		t.Error("Table 1 printed without vpr selected")
	}
	// The span stream is one document; the event trace has a line per
	// drained event.
	if raw, err := os.ReadFile(trace); err != nil || !json.Valid(raw) {
		t.Errorf("trace-event stream not one valid document (%v)", err)
	}
	if raw, err := os.ReadFile(events); err != nil || !bytes.Contains(raw, []byte(`"perlbmk"`)) {
		t.Errorf("event trace lacks perlbmk's events (%v)", err)
	}
	for name, points := range map[string][]string{
		"figure5":    {"base", "rlr", "inc2add", "ibdispatch", "ctrace", "all"},
		"cachesweep": {"512", "1k", "2k", "4k", "unbounded", "adaptive"},
		"iblsweep":   {"direct-64", "direct-256", "open-64", "open-256", "adaptive-from-64", "open-256-noelide"},
		"telemetry":  {"telemetry"},
	} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCH_"+name+".json"))
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
					Top        []json.RawMessage
					Histograms []struct{ Count uint64 }
					Anomalies  []json.RawMessage
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
		if len(f.Rows) != 2 || f.Rows[0].Benchmark != "crafty" || f.Rows[1].Benchmark != "perlbmk" {
			t.Fatalf("%s: rows %+v, want crafty and perlbmk", name, f.Rows)
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
			c := r.Cells[0]
			if name == "telemetry" && (len(c.PhaseTicks) == 0 || len(c.Top) == 0 || len(c.Histograms) == 0 || len(c.Anomalies) != 0) {
				t.Errorf("telemetry/%s: %d phases, %d top fragments, %d histograms, %d anomalies, want some, some, some and none",
					r.Benchmark, len(c.PhaseTicks), len(c.Top), len(c.Histograms), len(c.Anomalies))
			}
		}
		if len(f.Means.All) != len(points) {
			t.Errorf("%s: means.all %v, want one per point", name, f.Means.All)
		}
	}
}

// TestTableOne: the verify suite prints Table 1, the feature ladder on
// crafty and vpr, when both are selected.
func TestTableOne(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-diff", "verify", "-bench", "vpr,crafty", "-parallel", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, "Table 1") || !strings.Contains(out, "+ Basic block cache") {
		t.Errorf("no Table 1 in\n%s", out)
	}
}
