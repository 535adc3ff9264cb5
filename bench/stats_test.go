package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(99 - i) // descending: the function must sort
	}
	if _, err := tailPercentile(xs, 90); err == nil {
		t.Fatal("p90 of 99 samples: want an error, got a value")
	}
	xs = append(xs, 100)
	got, err := tailPercentile(xs, 90)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if got != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", got)
	}
	if xs[0] != 99 {
		t.Fatal("tailPercentile reordered its input")
	}
}

func TestMedianAndGeomean(t *testing.T) {
	in := []float64{3, 1, 2}
	if got := median(in); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(geomean(nil)) {
		t.Error("median and geomean of no samples must be NaN")
	}
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, want 4", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "op", id: 0, parent: -1, start: 0, end: 100},
		{name: "a", id: 1, parent: 0, start: 10, end: 40},
		{name: "b", id: 2, parent: 0, start: 30, end: 60},   // overlaps a
		{name: "c", id: 3, parent: 0, start: 90, end: 120},  // runs past the parent
		{name: "d", id: 4, parent: 1, start: 15, end: 20},   // grandchild of op
		{name: "e", id: 5, parent: 0, start: 200, end: 210}, // outside the parent
	}
	self := selfTimes(spans)
	// op covers [0,100); children cover [10,60) and [90,100): 60 ns.
	want := []int64{40, 25, 30, 30, 5, 10}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, self[i], w)
		}
	}
}

var allocSink []byte

func TestChromeTraceParses(t *testing.T) {
	r := newRecorder()
	r.phase = "timed"
	p := r.begin("pass", "")
	r.setOp(7)
	o := r.begin("op", "gzip")
	r.do("core.run", "gzip", true, func() { allocSink = make([]byte, 1<<16) })
	r.finish(o)
	r.setOp(-1)
	r.finish(p)
	if a := r.spans[2].alloc; a < 1<<16 {
		t.Errorf("core.run span recorded %d allocated bytes, want at least %d", a, 1<<16)
	}
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := writeTrace(path, "bench test", r.spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  *uint64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	var names []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		names = append(names, ev.Name)
		if ev.Dur == nil {
			t.Errorf("span %s has no dur", ev.Name)
		}
		for _, k := range []string{"id", "parent", "op", "phase"} {
			if _, ok := ev.Args[k]; !ok {
				t.Errorf("span %s lacks arg %q", ev.Name, k)
			}
		}
	}
	if len(names) != 3 || names[0] != "pass" || names[2] != "core.run" {
		t.Fatalf("spans %v, want pass, op, core.run", names)
	}
}
