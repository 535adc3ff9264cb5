package core

import (
	"repro/internal/obs"
)

// Live telemetry plumbing: span export (Chrome trace-event JSON) and the
// pathology watchdog. Both pillars observe the runtime from outside the
// simulated machine — they read the clock (machine.Now) without charging
// it and mutate no runtime structure — so enabling them never changes
// oracle-visible behaviour. The distribution histograms (RIO.hists) are
// always on; their Observe calls are sprinkled at the phase-bracket sites
// and likewise never charge simulated time.

// initSpans wires up the trace-event exporter from Options.TraceEvents,
// which the caller owns and closes — several runtimes can append to one
// Perfetto file, each on the process track the writer hands it, named after
// the image.
func (r *RIO) initSpans() {
	r.spans = r.Opts.TraceEvents
	if r.spans != nil {
		r.spanPid = r.spans.NewProcess(r.Img.Name)
	}
}

// spanThreadMeta names the thread's track.
func (r *RIO) spanThreadMeta(tid int) {
	if r.spans != nil {
		r.spans.Thread(r.spanPid, tid, "t"+itoa(tid))
	}
}

// itoa avoids pulling strconv into the hot-path file for one label.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// span records one complete event from start to now on the thread's track.
// Callers capture start with r.M.Now() at entry and invoke span on the way
// out (typically via defer).
func (r *RIO) span(tid int, name string, start uint64, args map[string]any) {
	if r.spans == nil {
		return
	}
	r.spans.Span(r.spanPid, tid, name, start, r.M.Now()-start, args)
}

// spanInstant lowers one discrete ring event onto the exporter as an
// instant: the state-change events (link, unlink, quarantine, degrade,
// reattach, recover, anomaly) that have no duration but mark the trace.
// High-volume bookkeeping events (emit, evict, resize) are covered by their
// enclosing spans and skipped here.
func (r *RIO) spanInstant(ev obs.Event) {
	if r.spans == nil {
		return
	}
	switch ev.Type {
	case obs.EvLink, obs.EvUnlink, obs.EvQuarantine, obs.EvDegrade,
		obs.EvReattach, obs.EvRecover, obs.EvAnomaly:
	default:
		return
	}
	args := map[string]any{}
	if ev.Tag != 0 {
		args["tag"] = ev.Tag
	}
	if ev.Target != 0 {
		args["target"] = ev.Target
	}
	if ev.Kind != "" {
		args["kind"] = ev.Kind
	}
	if ev.Note != "" {
		args["note"] = ev.Note
	}
	r.spans.Instant(r.spanPid, ev.Thread, ev.Type.String(), ev.Tick, args)
}

// spanCacheCounter samples the thread's live cache bytes onto its counter
// track. Called after cache occupancy changes (fragment emission and
// eviction).
func (r *RIO) spanCacheCounter(ctx *Context) {
	if r.spans == nil {
		return
	}
	r.spans.Counter(r.spanPid, ctx.thread.ID, "cache-bytes", r.M.Now(), map[string]any{
		"bb":    int64(ctx.bb.liveBytes),
		"trace": int64(ctx.trace.liveBytes),
	})
}

// noteWindowEnd observes the length of a just-finished native cool-down
// window (instructions the thread actually retired natively) at the
// dispatch entry that ends it.
func (r *RIO) noteWindowEnd(ctx *Context) {
	if !ctx.windowActive {
		return
	}
	ctx.windowActive = false
	r.hists.Observe(obs.MetricNativeWindowLen, ctx.thread.Instret-ctx.windowStartInstret)
}

// maybeWatchdog pumps the pathology watchdog once per Interval() simulated
// ticks, from the dispatcher (a safe point: the machine is paused and the
// runtime's single goroutine owns all state).
func (r *RIO) maybeWatchdog(ctx *Context) {
	if r.wd == nil {
		return
	}
	now := r.M.Now()
	if now < r.wdNext {
		return
	}
	r.wdNext = now + r.wd.Interval()
	s := r.StatsSnapshot()
	var dispatchTicks uint64
	if r.M.PhaseAccounting() {
		pt := r.M.PhaseTicks()
		dispatchTicks = pt[obs.PhaseContextSwitch] + pt[obs.PhaseDispatch]
	}
	r.fireAnomalies(ctx, r.wd.Feed(obs.WatchdogSample{
		Tick:          now,
		Evictions:     s.Evictions,
		Regenerations: s.Regenerations,
		IBLResizes:    s.IBLResizes,
		DispatchTicks: dispatchTicks,
	}))
}

// fireAnomalies surfaces watchdog detections: the Stats counter and an
// EvAnomaly ring event (which span export lowers to an instant). The
// watchdog itself keeps every detection (Watchdog().Anomalies()).
func (r *RIO) fireAnomalies(ctx *Context, anomalies []obs.Anomaly) {
	for _, a := range anomalies {
		statInc(&r.Stats.Anomalies)
		r.event(ctx.thread.ID, obs.Event{
			Type: obs.EvAnomaly,
			Tag:  a.Tag,
			Kind: a.Kind.String(),
			Note: a.Note,
		})
	}
}

// Watchdog returns the pathology watchdog, or nil when Options.Watchdog is
// off. Read-only access for harnesses (detections, effective config).
func (r *RIO) Watchdog() *obs.Watchdog { return r.wd }
