package obs

import "fmt"

// The pathology watchdog: a sampling monitor that consumes periodic
// counter-snapshot deltas (fed by the runtime on a tick budget) and fires
// typed detections for the known pathological regimes — cache thrash, IBL
// resize storms, quarantine flapping, dispatch dominance. Detection is
// edge-triggered: a condition fires once when it first holds over the
// sliding window and re-arms only after a window in which it does not, so a
// persistent pathology is one anomaly, not one per sample.
//
// The watchdog only reads: it charges no simulated ticks and mutates no
// runtime structure, so enabling it never changes oracle-visible behavior.

// AnomalyKind names one watchdog detection.
type AnomalyKind uint8

// The detections.
const (
	// AnomalyEvictionThrash: over the sliding window, the ratio of
	// regenerated (rebuilt-after-eviction) fragments to evictions exceeds
	// ThrashRatio with at least ThrashMinEvictions evictions — the working
	// set does not fit and the cache is churning it.
	AnomalyEvictionThrash AnomalyKind = iota
	// AnomalyIBLResizeStorm: at least ResizeStormCount IBL hashtable
	// doublings within the window.
	AnomalyIBLResizeStorm
	// AnomalyQuarantineFlap: a tag completed FlapCycles
	// reattach→quarantine cycles — it keeps being forgiven and re-barred.
	AnomalyQuarantineFlap
	// AnomalyDispatchDominance: the dispatcher (context-switch + dispatch
	// phases) consumed more than DispatchShare of the window's ticks —
	// the run is thrashing through the runtime instead of executing.
	// Requires phase accounting (zero phase ticks never fire it).
	AnomalyDispatchDominance
	NumAnomalyKinds
)

var anomalyNames = [NumAnomalyKinds]string{
	"eviction-thrash", "ibl-resize-storm", "quarantine-flap", "dispatch-dominance",
}

func (k AnomalyKind) String() string {
	if k < NumAnomalyKinds {
		return anomalyNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind as its name.
func (k AnomalyKind) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", k.String())), nil
}

// Anomaly is one fired detection.
type Anomaly struct {
	Kind      AnomalyKind `json:"kind"`
	Tick      uint64      `json:"tick"`
	Tag       uint32      `json:"tag,omitempty"` // quarantine-flap: the flapping tag
	Value     float64     `json:"value"`         // the measured ratio or count
	Threshold float64     `json:"threshold"`
	Note      string      `json:"note,omitempty"`
}

func (a Anomaly) String() string {
	s := fmt.Sprintf("%s at tick %d: %.3g over threshold %.3g", a.Kind, a.Tick, a.Value, a.Threshold)
	if a.Tag != 0 {
		s += fmt.Sprintf(" (tag %#x)", a.Tag)
	}
	return s
}

// WatchdogConfig tunes the watchdog. Zero values take the defaults; the
// defaults are calibrated to fire on none of the 22 workloads under the
// default configuration (the zero-false-positive matrix the tests pin).
type WatchdogConfig struct {
	// Interval is the tick budget between samples: the runtime feeds one
	// snapshot per Interval simulated ticks. Default 500_000.
	Interval uint64
	// Window is the sliding window length, in samples. Default 8.
	Window int

	ThrashRatio        float64 // default 0.75 regenerations per eviction
	ThrashMinEvictions uint64  // default 64 evictions in the window

	ResizeStormCount uint64 // default 8 IBL doublings in the window

	FlapCycles int // default 2 reattach→quarantine cycles per tag

	DispatchShare    float64 // default 0.6 of the window's ticks
	DispatchMinTicks uint64  // default 1_000_000 window ticks before judging
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.Interval == 0 {
		c.Interval = 500_000
	}
	if c.Window <= 1 {
		c.Window = 8
	}
	if c.ThrashRatio == 0 {
		c.ThrashRatio = 0.75
	}
	if c.ThrashMinEvictions == 0 {
		c.ThrashMinEvictions = 64
	}
	if c.ResizeStormCount == 0 {
		c.ResizeStormCount = 8
	}
	if c.FlapCycles == 0 {
		c.FlapCycles = 2
	}
	if c.DispatchShare == 0 {
		c.DispatchShare = 0.6
	}
	if c.DispatchMinTicks == 0 {
		c.DispatchMinTicks = 1_000_000
	}
	return c
}

// WatchdogSample is one periodic snapshot of the cumulative counters the
// watchdog consumes. The runtime builds it from StatsSnapshot and the phase
// breakdown; the watchdog works on window deltas.
type WatchdogSample struct {
	Tick uint64

	Evictions     uint64
	Regenerations uint64
	IBLResizes    uint64

	// DispatchTicks is the cumulative context-switch + dispatch phase
	// ticks (zero without phase accounting, which disables the
	// dispatch-dominance detection).
	DispatchTicks uint64
}

// flapState tracks one tag's reattach→quarantine history.
type flapState struct {
	quarantines  int
	cycles       int
	seqAtLastQ   uint64 // reattach sequence number at the last quarantine
	firedAtCycle int
}

// Watchdog is the sampling monitor. It is not safe for concurrent use; the
// runtime feeds it from the single simulation goroutine.
type Watchdog struct {
	cfg     WatchdogConfig
	samples []WatchdogSample // sliding window, oldest first

	active [NumAnomalyKinds]bool // edge-trigger state

	flaps       map[uint32]*flapState
	reattachSeq uint64

	fired []Anomaly // every detection, in firing order
}

// NewWatchdog builds a watchdog with cfg (zero fields defaulted).
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	return &Watchdog{cfg: cfg.withDefaults(), flaps: map[uint32]*flapState{}}
}

// Interval returns the configured tick budget between samples.
func (w *Watchdog) Interval() uint64 { return w.cfg.Interval }

// Config returns the effective (defaulted) configuration.
func (w *Watchdog) Config() WatchdogConfig { return w.cfg }

// Anomalies returns every detection fired so far, in firing order.
func (w *Watchdog) Anomalies() []Anomaly { return w.fired }

// Feed consumes one sample and returns the detections that fired on it.
func (w *Watchdog) Feed(s WatchdogSample) []Anomaly {
	w.samples = append(w.samples, s)
	if len(w.samples) > w.cfg.Window {
		w.samples = w.samples[1:]
	}
	if len(w.samples) < 2 {
		return nil
	}
	oldest, newest := w.samples[0], w.samples[len(w.samples)-1]
	windowTicks := newest.Tick - oldest.Tick

	var out []Anomaly
	check := func(kind AnomalyKind, holds bool, a Anomaly) {
		if !holds {
			w.active[kind] = false
			return
		}
		if w.active[kind] {
			return // still in the same episode
		}
		w.active[kind] = true
		a.Kind = kind
		a.Tick = s.Tick
		out = append(out, a)
		w.fired = append(w.fired, a)
	}

	evict := newest.Evictions - oldest.Evictions
	regen := newest.Regenerations - oldest.Regenerations
	ratio := 0.0
	if evict > 0 {
		ratio = float64(regen) / float64(evict)
	}
	check(AnomalyEvictionThrash,
		evict >= w.cfg.ThrashMinEvictions && ratio > w.cfg.ThrashRatio,
		Anomaly{Value: ratio, Threshold: w.cfg.ThrashRatio,
			Note: fmt.Sprintf("%d regenerations / %d evictions in window", regen, evict)})

	resizes := newest.IBLResizes - oldest.IBLResizes
	check(AnomalyIBLResizeStorm,
		resizes >= w.cfg.ResizeStormCount,
		Anomaly{Value: float64(resizes), Threshold: float64(w.cfg.ResizeStormCount),
			Note: fmt.Sprintf("%d IBL doublings in window", resizes)})

	dispatch := newest.DispatchTicks - oldest.DispatchTicks
	share := 0.0
	if windowTicks > 0 {
		share = float64(dispatch) / float64(windowTicks)
	}
	check(AnomalyDispatchDominance,
		windowTicks >= w.cfg.DispatchMinTicks && share > w.cfg.DispatchShare,
		Anomaly{Value: share, Threshold: w.cfg.DispatchShare,
			Note: fmt.Sprintf("%d dispatcher ticks of %d in window", dispatch, windowTicks)})

	return out
}

// NoteReattach records a thread re-attaching to full service (with the tag
// it was dispatching). Reattaches arm the flap detector: a later quarantine
// of a previously quarantined tag closes one reattach→quarantine cycle.
func (w *Watchdog) NoteReattach(tick uint64, tag uint32) {
	w.reattachSeq++
}

// NoteQuarantine records a tag being quarantined and returns a flap anomaly
// if the tag has now completed FlapCycles reattach→quarantine cycles.
func (w *Watchdog) NoteQuarantine(tick uint64, tag uint32) []Anomaly {
	st := w.flaps[tag]
	if st == nil {
		st = &flapState{}
		w.flaps[tag] = st
	}
	if st.quarantines > 0 && w.reattachSeq > st.seqAtLastQ {
		st.cycles++
	}
	st.quarantines++
	st.seqAtLastQ = w.reattachSeq
	if st.cycles >= w.cfg.FlapCycles && st.firedAtCycle < st.cycles {
		st.firedAtCycle = st.cycles
		a := Anomaly{
			Kind: AnomalyQuarantineFlap, Tick: tick, Tag: tag,
			Value: float64(st.cycles), Threshold: float64(w.cfg.FlapCycles),
			Note: fmt.Sprintf("%d reattach-quarantine cycles", st.cycles),
		}
		w.fired = append(w.fired, a)
		return []Anomaly{a}
	}
	return nil
}
