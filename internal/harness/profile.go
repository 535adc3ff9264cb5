package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// ProfileRow is one benchmark's where-the-cycles-go measurement: the
// per-phase tick breakdown of a run under the base cache configuration,
// the hottest fragments by tick attribution, and (when an event ring is
// enabled) the drained runtime event trace.
type ProfileRow struct {
	Benchmark  string
	Class      workload.Class
	Ticks      machine.Ticks
	Normalized float64

	// Phases attributes every simulated tick of the run to an execution
	// phase; Phases.Sum() == Ticks exactly (the conservation invariant,
	// re-checked by the harness on every run).
	Phases obs.PhaseTicks

	// Top holds the hottest fragment profiles; Fragments counts all
	// profiled fragment identities.
	Top       []obs.FragmentProfile
	Fragments int

	Stats core.Stats

	// Events is the drained event trace (nil at ring size 0);
	// EventsDropped counts ring overwrites before the final drain.
	Events        []obs.Event
	EventsDropped uint64
}

// runProfile measures one benchmark with phase accounting on, verifying
// transparency against the native run and tick conservation of the phase
// breakdown.
func runProfile(b *workload.Benchmark, topN, ring int) (ProfileRow, error) {
	row := ProfileRow{Benchmark: b.Name, Class: b.Class}
	native, err := runNative(b)
	if err != nil {
		return row, err
	}
	m := machine.New(machine.PentiumIV())
	opts := core.Default()
	opts.Profile = true
	opts.EventRing = ring
	r := core.New(m, b.Image(), opts, nil)
	if err := r.Run(oracle.RunLimit); err != nil {
		return row, fmt.Errorf("profile: %s: %v", b.Name, err)
	}
	if !bytes.Equal(m.Output, native.Output) {
		return row, fmt.Errorf("profile: %s: transparency violated: output %q != native %q",
			b.Name, m.Output, native.Output)
	}
	row.Ticks = m.Ticks
	row.Normalized = float64(m.Ticks) / float64(native.Ticks)
	row.Phases = r.PhaseTicks()
	if sum := row.Phases.Sum(); sum != uint64(m.Ticks) {
		return row, fmt.Errorf("profile: %s: phase ticks not conserved: sum %d != machine ticks %d",
			b.Name, sum, m.Ticks)
	}
	profs := r.FragmentProfiles()
	row.Fragments = len(profs)
	row.Top = obs.TopN(profs, topN)
	row.Stats = r.StatsSnapshot()
	if tr := r.Tracer(); tr.Enabled() {
		row.Events = tr.Drain()
		row.EventsDropped = tr.Dropped()
	}
	return row, nil
}

// Profile runs the where-the-cycles-go experiment over the given benchmarks
// with a pool of worker goroutines (workers <= 0 means one per GOMAXPROCS),
// keeping the topN hottest fragments per benchmark and, with ring > 0, an
// event-trace ring of that many entries per thread. Results are in input
// order and deterministic for any worker count; a failing benchmark is
// reported in the joined error while the rest still run.
func Profile(workers, topN, ring int, benches []*workload.Benchmark) ([]ProfileRow, error) {
	rows := make([]ProfileRow, len(benches))
	return rows, errors.Join(oracle.Parallel(workers, len(benches), func(k int) (err error) {
		rows[k], err = runProfile(benches[k], topN, ring)
		return err
	})...)
}

// FormatProfile renders the phase breakdown as percent-of-run per benchmark
// (the paper's Section 4-style overhead attribution), followed by each
// benchmark's hottest fragments.
func FormatProfile(rows []ProfileRow) string {
	var b strings.Builder
	names := obs.PhaseNames()
	b.WriteString("Phase accounting: percent of simulated ticks by execution phase\n")
	fmt.Fprintf(&b, "%-10s %-4s %12s", "benchmark", "cls", "ticks")
	for _, n := range names {
		fmt.Fprintf(&b, " %*s", phaseColWidth(n), n)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-4s %12d", r.Benchmark, r.Class, r.Ticks)
		for i, n := range names {
			pct := 0.0
			if r.Ticks > 0 {
				pct = 100 * float64(r.Phases[i]) / float64(r.Ticks)
			}
			fmt.Fprintf(&b, " %*.2f", phaseColWidth(n), pct)
		}
		b.WriteByte('\n')
	}
	for _, r := range rows {
		if len(r.Top) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n%s: hottest fragments (%d profiled)\n", r.Benchmark, r.Fragments)
		b.WriteString(obs.FormatTop(r.Top))
	}
	return b.String()
}

// phaseColWidth sizes a phase column to its header.
func phaseColWidth(name string) int {
	if len(name) < 7 {
		return 7
	}
	return len(name)
}
