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
