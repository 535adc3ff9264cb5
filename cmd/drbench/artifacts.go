package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/oracle"
)

// The JSON artifacts drbench writes. Every file opens with the same header:
// its schema name, the worker count and the wall-clock time of the run.

type header struct {
	Schema           string  `json:"schema"`
	Workers          int     `json:"workers"`
	WallClockSeconds float64 `json:"wall_clock_seconds"`
}

func newHeader(schema string, workers int, elapsed time.Duration) header {
	return header{Schema: schema, Workers: workers, WallClockSeconds: elapsed.Seconds()}
}

// writeJSON writes v as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// diffFile is the file layout of every -diff suite: the matrix's axes, the
// run and failure counts, the suite-wide chaos site fires, the Check verdict
// (empty when the suite passed) and one outcome per (case, perturbation,
// config) cell, ordered case-major.
type diffFile struct {
	header
	Suite         string                `json:"suite"`
	Cases         []string              `json:"cases"`
	Configs       []string              `json:"configs"`
	Perturbations []oracle.Perturbation `json:"perturbations,omitempty"`
	Runs          int                   `json:"runs"`
	Failed        int                   `json:"failed"`
	SiteFires     map[string]uint64     `json:"site_fires,omitempty"`
	Check         string                `json:"check,omitempty"`
	Outcomes      []outcomeJSON         `json:"outcomes"`
}

// outcomeJSON is an outcome with only its nonzero runtime counters.
type outcomeJSON struct {
	oracle.Outcome
	Stats map[string]uint64 `json:"stats"`
}

// nonzeroStats maps each nonzero runtime counter's field name to its value.
func nonzeroStats(s core.Stats) map[string]uint64 {
	stats := map[string]uint64{}
	v := reflect.ValueOf(s)
	for i := range v.NumField() {
		if n := v.Field(i).Uint(); n != 0 {
			stats[v.Type().Field(i).Name] = n
		}
	}
	return stats
}

func diffJSON(s *harness.Suite, outs []oracle.Outcome, checkErr error, workers int, elapsed time.Duration) diffFile {
	out := diffFile{
		header:        newHeader("drbench/diff/v1", workers, elapsed),
		Suite:         s.Name,
		Perturbations: s.Perturbations,
		Runs:          len(outs),
		SiteFires:     harness.SiteFires(outs),
	}
	for _, c := range s.Cases {
		out.Cases = append(out.Cases, c.Name)
	}
	for _, c := range s.Configs {
		out.Configs = append(out.Configs, c.Name)
	}
	for _, o := range outs {
		if o.Failure() != "" {
			out.Failed++
		}
		out.Outcomes = append(out.Outcomes, outcomeJSON{o, nonzeroStats(o.Stats)})
	}
	if checkErr != nil {
		out.Check = checkErr.Error()
	}
	return out
}

// tableFile is the file layout of every published table (-table1, -figure5,
// -cachesweep, -iblsweep, -profile, -telemetry): the suite the table reads,
// its columns (points), one row per benchmark with the normalized time and
// simulated cycles of each column plus the cell behind them, and the
// geometric-mean lines. Every cell has passed the full oracle.
type tableFile struct {
	header
	Experiment           string      `json:"experiment"`
	Suite                string      `json:"suite"`
	TotalSimulatedCycles uint64      `json:"total_simulated_cycles"`
	Points               []pointJSON `json:"points"`
	Rows                 []rowJSON   `json:"rows"`
	Means                meansJSON   `json:"means"`
}

type pointJSON struct {
	Name string `json:"name"`
}

type rowJSON struct {
	Benchmark  string     `json:"benchmark"`
	Class      string     `json:"class"`
	Normalized []float64  `json:"normalized"`
	Cycles     []uint64   `json:"cycles"`
	Cells      []cellJSON `json:"cells"`
}

// cellJSON is one run: its ticks, nonzero runtime counters and, for a
// profiled run, the phase breakdown (summing exactly to ticks), the number
// of profiled fragments, the hottest ones and the drained event counts; for
// a run with the watchdog on, the distribution-metric digests and any
// watchdog detections.
type cellJSON struct {
	Ticks         uint64                 `json:"ticks"`
	NativeTicks   uint64                 `json:"native_ticks"`
	Stats         map[string]uint64      `json:"stats"`
	PhaseTicks    map[string]uint64      `json:"phase_ticks,omitempty"`
	Fragments     int                    `json:"fragments,omitempty"`
	Top           []obs.FragmentProfile  `json:"top,omitempty"`
	Events        int                    `json:"events,omitempty"`
	EventsDropped uint64                 `json:"events_dropped,omitempty"`
	Histograms    []obs.HistogramSummary `json:"histograms,omitempty"`
	Anomalies     []obs.Anomaly          `json:"anomalies,omitempty"`
}

type meansJSON struct {
	FP  []float64 `json:"fp"`
	Int []float64 `json:"int"`
	All []float64 `json:"all"`
}

func tableJSON(name string, r *suiteRun, g harness.Grid, topN, workers int) tableFile {
	out := tableFile{
		header:     newHeader("drbench/table/v1", workers, r.elapsed),
		Experiment: name,
		Suite:      r.suite.Name,
	}
	out.Means.FP, out.Means.Int, out.Means.All = g.ClassMeans()
	for _, cfg := range g.Configs {
		out.Points = append(out.Points, pointJSON{cfg})
	}
	for _, gr := range g.Rows {
		row := rowJSON{Benchmark: gr.Case, Class: gr.Class.String()}
		for _, o := range gr.Cells {
			row.Normalized = append(row.Normalized, o.Normalized())
			row.Cycles = append(row.Cycles, o.Ticks.Cycles())
			out.TotalSimulatedCycles += o.Ticks.Cycles()
			c := cellJSON{
				Ticks:         uint64(o.Ticks),
				NativeTicks:   uint64(o.NativeTicks),
				Stats:         nonzeroStats(o.Stats),
				Fragments:     len(o.Profiles),
				Events:        len(o.Events),
				EventsDropped: o.EventsDropped,
				Histograms:    o.Histograms,
				Anomalies:     o.Anomalies,
			}
			if o.Phases != nil {
				c.PhaseTicks = o.Phases.Map()
				c.Top = obs.TopN(o.Profiles, topN)
			}
			row.Cells = append(row.Cells, c)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// writeTraceJSONL writes every benchmark's drained event trace as JSON
// lines, each labeled with its benchmark name.
func writeTraceJSONL(w io.Writer, path string, g harness.Grid) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n, dropped := 0, uint64(0)
	for _, r := range g.Rows {
		o := r.Cells[0]
		if err := obs.WriteJSONL(f, r.Case, o.Events); err != nil {
			f.Close()
			return err
		}
		n += len(o.Events)
		dropped += o.EventsDropped
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d events, %d dropped by the rings)\n", path, n, dropped)
	return nil
}
