package main

import (
	"encoding/json"
	"os"
	"reflect"
	"time"

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
		stats := map[string]uint64{}
		v := reflect.ValueOf(o.Stats)
		for i := range v.NumField() {
			if n := v.Field(i).Uint(); n != 0 {
				stats[v.Type().Field(i).Name] = n
			}
		}
		out.Outcomes = append(out.Outcomes, outcomeJSON{o, stats})
	}
	if checkErr != nil {
		out.Check = checkErr.Error()
	}
	return out
}

// figure5File is the file layout of -figure5 -json: the Figure 5 series plus
// enough run metadata (worker count, wall clock, simulated cycle totals) to
// track harness performance across revisions.
type figure5File struct {
	header
	TotalSimulatedCycle uint64    `json:"total_simulated_cycles"`
	Configs             []string  `json:"configs"`
	Rows                []rowJSON `json:"rows"`
	Means               meansJSON `json:"means"`
}

type rowJSON struct {
	Benchmark  string    `json:"benchmark"`
	Class      string    `json:"class"`
	Normalized []float64 `json:"normalized"`
	Cycles     []uint64  `json:"cycles"`
}

type meansJSON struct {
	FP  []float64 `json:"fp"`
	Int []float64 `json:"int"`
	All []float64 `json:"all"`
}

func figure5JSON(rows []harness.Figure5Row, workers int, elapsed time.Duration) figure5File {
	out := figure5File{
		header: newHeader("drbench/figure5/v1", workers, elapsed),
	}
	for c := harness.ConfigBase; c < harness.NumOptConfigs; c++ {
		out.Configs = append(out.Configs, c.String())
	}
	for _, r := range rows {
		row := rowJSON{Benchmark: r.Benchmark, Class: r.Class.String()}
		for c := harness.ConfigBase; c < harness.NumOptConfigs; c++ {
			row.Normalized = append(row.Normalized, r.Normalized[c])
			cycles := r.Ticks[c].Cycles()
			row.Cycles = append(row.Cycles, cycles)
			out.TotalSimulatedCycle += cycles
		}
		out.Rows = append(out.Rows, row)
	}
	m := harness.Means(rows)
	for c := harness.ConfigBase; c < harness.NumOptConfigs; c++ {
		out.Means.FP = append(out.Means.FP, m.FP[c])
		out.Means.Int = append(out.Means.Int, m.Int[c])
		out.Means.All = append(out.Means.All, m.All[c])
	}
	return out
}

// cacheSweepFile is the file layout of -cachesweep -json: per (benchmark, budget)
// normalized time plus the cache-management counters that explain it.
type cacheSweepFile struct {
	header
	Points []pointJSON    `json:"points"`
	Rows   []sweepRowJSON `json:"rows"`
	Means  []float64      `json:"means"`
}

type pointJSON struct {
	Name     string `json:"name"`
	Bytes    int    `json:"bytes"`
	Adaptive bool   `json:"adaptive"`
}

type sweepRowJSON struct {
	Benchmark     string    `json:"benchmark"`
	Class         string    `json:"class"`
	Normalized    []float64 `json:"normalized"`
	Cycles        []uint64  `json:"cycles"`
	Evictions     []uint64  `json:"evictions"`
	Regenerations []uint64  `json:"regenerations"`
	CacheResizes  []uint64  `json:"cache_resizes"`
	BBLiveBytes   []uint64  `json:"bb_live_bytes"`
	TrLiveBytes   []uint64  `json:"trace_live_bytes"`
}

func cacheSweepJSON(points []harness.CachePoint, rows []harness.CacheSweepRow, workers int, elapsed time.Duration) cacheSweepFile {
	out := cacheSweepFile{
		header: newHeader("drbench/cachesweep/v1", workers, elapsed),
		Means:  harness.CacheSweepMeans(points, rows),
	}
	for _, p := range points {
		out.Points = append(out.Points, pointJSON{Name: p.Name, Bytes: p.Bytes, Adaptive: p.Adaptive})
	}
	for _, r := range rows {
		row := sweepRowJSON{Benchmark: r.Benchmark, Class: r.Class.String()}
		for _, c := range r.Cells {
			row.Normalized = append(row.Normalized, c.Normalized)
			row.Cycles = append(row.Cycles, c.Ticks.Cycles())
			row.Evictions = append(row.Evictions, c.Stats.Evictions)
			row.Regenerations = append(row.Regenerations, c.Stats.Regenerations)
			row.CacheResizes = append(row.CacheResizes, c.Stats.CacheResizes)
			row.BBLiveBytes = append(row.BBLiveBytes, c.Stats.BBCacheLiveBytes)
			row.TrLiveBytes = append(row.TrLiveBytes, c.Stats.TraceCacheLiveBytes)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// iblSweepFile is the file layout of -iblsweep -json: per (benchmark, IBL
// configuration) the Figure-5-style normalized overhead plus the dispatcher
// context switches an IBL hit avoids and the hashtable behaviour counters
// (misses, probe chains, growth, displacement, elisions) that explain it.
type iblSweepFile struct {
	header
	Points []iblPointJSON    `json:"points"`
	Rows   []iblSweepRowJSON `json:"rows"`
	Means  []float64         `json:"means"`
}

type iblPointJSON struct {
	Name         string `json:"name"`
	Bits         uint   `json:"bits"`
	DirectMapped bool   `json:"direct_mapped"`
	Adaptive     bool   `json:"adaptive"`
	FlagsElision bool   `json:"flags_elision"`
}

type iblSweepRowJSON struct {
	Benchmark          string    `json:"benchmark"`
	Class              string    `json:"class"`
	Normalized         []float64 `json:"normalized"`
	Cycles             []uint64  `json:"cycles"`
	ContextSwitches    []uint64  `json:"context_switches"`
	IBLMisses          []uint64  `json:"ibl_misses"`
	IBLCollisions      []uint64  `json:"ibl_collisions"`
	IBLMaxProbe        []uint64  `json:"ibl_max_probe"`
	IBLResizes         []uint64  `json:"ibl_resizes"`
	IBLReplaced        []uint64  `json:"ibl_replaced"`
	FlagsElisions      []uint64  `json:"flags_elisions"`
	InlineChecksElided []uint64  `json:"inline_checks_elided"`
}

func iblSweepJSON(points []harness.IBLPoint, rows []harness.IBLSweepRow, workers int, elapsed time.Duration) iblSweepFile {
	out := iblSweepFile{
		header: newHeader("drbench/iblsweep/v1", workers, elapsed),
		Means:  harness.IBLSweepMeans(points, rows),
	}
	for _, p := range points {
		out.Points = append(out.Points, iblPointJSON{
			Name: p.Name, Bits: p.Bits, DirectMapped: p.DirectMapped,
			Adaptive: p.Adaptive, FlagsElision: p.FlagsElision,
		})
	}
	for _, r := range rows {
		row := iblSweepRowJSON{Benchmark: r.Benchmark, Class: r.Class.String()}
		for _, c := range r.Cells {
			row.Normalized = append(row.Normalized, c.Normalized)
			row.Cycles = append(row.Cycles, c.Ticks.Cycles())
			row.ContextSwitches = append(row.ContextSwitches, c.Stats.ContextSwitches)
			row.IBLMisses = append(row.IBLMisses, c.Stats.IBLMisses)
			row.IBLCollisions = append(row.IBLCollisions, c.Stats.IBLCollisions)
			row.IBLMaxProbe = append(row.IBLMaxProbe, c.Stats.IBLMaxProbe)
			row.IBLResizes = append(row.IBLResizes, c.Stats.IBLResizes)
			row.IBLReplaced = append(row.IBLReplaced, c.Stats.IBLReplaced)
			row.FlagsElisions = append(row.FlagsElisions, c.Stats.FlagsElisions)
			row.InlineChecksElided = append(row.InlineChecksElided, c.Stats.InlineChecksElided)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// profileFile is the file layout of -profile -json: per benchmark the
// per-phase tick breakdown (phase_ticks sums exactly to ticks — the
// conservation invariant CI asserts), the hottest fragments, and the cache
// counters behind them.
type profileFile struct {
	header
	Phases []string         `json:"phases"`
	Rows   []profileRowJSON `json:"rows"`
}

type profileRowJSON struct {
	Benchmark  string            `json:"benchmark"`
	Class      string            `json:"class"`
	Ticks      uint64            `json:"ticks"`
	Normalized float64           `json:"normalized"`
	PhaseTicks map[string]uint64 `json:"phase_ticks"`

	Fragments int                   `json:"fragments"`
	Top       []obs.FragmentProfile `json:"top"`

	BlocksBuilt uint64 `json:"blocks_built"`
	TracesBuilt uint64 `json:"traces_built"`
	Evictions   uint64 `json:"evictions"`
	IBLMisses   uint64 `json:"ibl_misses"`

	Events        int    `json:"events,omitempty"`
	EventsDropped uint64 `json:"events_dropped,omitempty"`
}

func profileJSON(rows []harness.ProfileRow, workers int, elapsed time.Duration) profileFile {
	out := profileFile{
		header: newHeader("drbench/profile/v1", workers, elapsed),
		Phases: obs.PhaseNames(),
	}
	for _, r := range rows {
		out.Rows = append(out.Rows, profileRowJSON{
			Benchmark:     r.Benchmark,
			Class:         r.Class.String(),
			Ticks:         uint64(r.Ticks),
			Normalized:    r.Normalized,
			PhaseTicks:    r.Phases.Map(),
			Fragments:     r.Fragments,
			Top:           r.Top,
			BlocksBuilt:   r.Stats.BlocksBuilt,
			TracesBuilt:   r.Stats.TracesBuilt,
			Evictions:     r.Stats.Evictions,
			IBLMisses:     r.Stats.IBLMisses,
			Events:        len(r.Events),
			EventsDropped: r.EventsDropped,
		})
	}
	return out
}

// telemetryFile is the file layout of -telemetry -json: per benchmark the
// distribution-metric digests, any watchdog detections (zero on a healthy
// suite — CI asserts this), and the runtime counters behind them. Every row
// in this file has already passed the bit-identity check against native.
type telemetryFile struct {
	header
	Metrics   []string           `json:"metrics"`
	Anomalies uint64             `json:"anomalies"`
	Rows      []telemetryRowJSON `json:"rows"`
}

type telemetryRowJSON struct {
	Benchmark  string  `json:"benchmark"`
	Class      string  `json:"class"`
	Ticks      uint64  `json:"ticks"`
	Normalized float64 `json:"normalized"`

	Histograms []obs.HistogramSummary `json:"histograms"`
	Anomalies  []obs.Anomaly          `json:"anomalies,omitempty"`

	BlocksBuilt uint64 `json:"blocks_built"`
	TracesBuilt uint64 `json:"traces_built"`
	Evictions   uint64 `json:"evictions"`
	IBLMisses   uint64 `json:"ibl_misses"`
	Recoveries  uint64 `json:"recoveries"`
}

func telemetryJSON(rows []harness.TelemetryRow, workers int, elapsed time.Duration) telemetryFile {
	out := telemetryFile{
		header:  newHeader("drbench/telemetry/v1", workers, elapsed),
		Metrics: obs.MetricNames(),
	}
	for _, r := range rows {
		out.Anomalies += uint64(len(r.Anomalies))
		out.Rows = append(out.Rows, telemetryRowJSON{
			Benchmark:   r.Benchmark,
			Class:       r.Class.String(),
			Ticks:       uint64(r.Ticks),
			Normalized:  r.Normalized,
			Histograms:  r.Histograms,
			Anomalies:   r.Anomalies,
			BlocksBuilt: r.Stats.BlocksBuilt,
			TracesBuilt: r.Stats.TracesBuilt,
			Evictions:   r.Stats.Evictions,
			IBLMisses:   r.Stats.IBLMisses,
			Recoveries:  r.Stats.Recoveries,
		})
	}
	return out
}

// writeTraceJSONL writes every benchmark's drained event trace as JSON
// lines, each labeled with its benchmark name.
func writeTraceJSONL(path string, rows []harness.ProfileRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := obs.WriteJSONL(f, r.Benchmark, r.Events); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
