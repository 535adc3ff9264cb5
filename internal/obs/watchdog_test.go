package obs

import "testing"

func feedN(w *Watchdog, n int, step func(i int) WatchdogSample) []Anomaly {
	var out []Anomaly
	for i := 0; i < n; i++ {
		out = append(out, w.Feed(step(i))...)
	}
	return out
}

func TestWatchdogEvictionThrash(t *testing.T) {
	w := NewWatchdog()
	// 100 evictions per sample, 90% regenerated: well over ratio 0.75 with
	// far more than 64 evictions per window.
	got := feedN(w, 10, func(i int) WatchdogSample {
		return WatchdogSample{
			Tick:          uint64(i) * 500_000,
			Evictions:     uint64(i) * 100,
			Regenerations: uint64(i) * 90,
		}
	})
	if len(got) != 1 || got[0].Kind != AnomalyEvictionThrash {
		t.Fatalf("anomalies = %v, want one eviction-thrash", got)
	}
	if got[0].Value <= got[0].Threshold {
		t.Errorf("value %v not over threshold %v", got[0].Value, got[0].Threshold)
	}
	// Edge-triggered: a persistent condition fires once (checked above),
	// re-arms after the condition clears, then fires again.
	calm := feedN(w, 10, func(i int) WatchdogSample {
		return WatchdogSample{Tick: uint64(10+i) * 500_000, Evictions: 1000, Regenerations: 900}
	})
	if len(calm) != 0 {
		t.Fatalf("flat counters fired %v", calm)
	}
	again := feedN(w, 10, func(i int) WatchdogSample {
		return WatchdogSample{
			Tick:          uint64(20+i) * 500_000,
			Evictions:     1000 + uint64(i)*100,
			Regenerations: 900 + uint64(i)*90,
		}
	})
	if len(again) != 1 {
		t.Fatalf("re-armed condition fired %v, want exactly one", again)
	}
	if fired := w.Anomalies(); len(fired) != 2 || fired[0].Kind != AnomalyEvictionThrash || fired[1].Kind != AnomalyEvictionThrash {
		t.Errorf("detections %v, want two eviction-thrash onsets", fired)
	}
}

func TestWatchdogThrashBelowThreshold(t *testing.T) {
	w := NewWatchdog()
	// Heavy eviction but low regeneration ratio: capacity churn, not thrash.
	got := feedN(w, 10, func(i int) WatchdogSample {
		return WatchdogSample{
			Tick:          uint64(i) * 500_000,
			Evictions:     uint64(i) * 100,
			Regenerations: uint64(i) * 10,
		}
	})
	if len(got) != 0 {
		t.Fatalf("low-ratio eviction fired %v", got)
	}
	// High ratio but too few evictions to matter.
	w = NewWatchdog()
	got = feedN(w, 10, func(i int) WatchdogSample {
		return WatchdogSample{
			Tick:          uint64(i) * 500_000,
			Evictions:     uint64(i) * 2,
			Regenerations: uint64(i) * 2,
		}
	})
	if len(got) != 0 {
		t.Fatalf("tiny eviction volume fired %v", got)
	}
}

func TestWatchdogIBLResizeStorm(t *testing.T) {
	w := NewWatchdog()
	got := feedN(w, 5, func(i int) WatchdogSample {
		return WatchdogSample{Tick: uint64(i) * 500_000, IBLResizes: uint64(i) * 3}
	})
	if len(got) != 1 || got[0].Kind != AnomalyIBLResizeStorm {
		t.Fatalf("anomalies = %v, want one ibl-resize-storm", got)
	}
	// A handful of warm-up doublings (the normal case) must not fire.
	w = NewWatchdog()
	got = feedN(w, 10, func(i int) WatchdogSample {
		r := uint64(i)
		if r > 4 {
			r = 4 // grows to steady state, then stops
		}
		return WatchdogSample{Tick: uint64(i) * 500_000, IBLResizes: r}
	})
	if len(got) != 0 {
		t.Fatalf("warm-up resizes fired %v", got)
	}
}

func TestWatchdogQuarantineFlap(t *testing.T) {
	w := NewWatchdog()
	const tag = 0x8048000
	// quarantine → reattach → quarantine → reattach → quarantine:
	// two completed reattach→quarantine cycles → fires at the default 2.
	if got := w.NoteQuarantine(10, tag); len(got) != 0 {
		t.Fatalf("first quarantine fired %v", got)
	}
	w.NoteReattach(20, tag)
	if got := w.NoteQuarantine(30, tag); len(got) != 0 {
		t.Fatalf("one cycle fired %v", got)
	}
	w.NoteReattach(40, tag)
	got := w.NoteQuarantine(50, tag)
	if len(got) != 1 || got[0].Kind != AnomalyQuarantineFlap || got[0].Tag != tag {
		t.Fatalf("two cycles gave %v, want one quarantine-flap for the tag", got)
	}
	// Repeat quarantines without an intervening reattach close no cycle.
	if got := w.NoteQuarantine(60, tag); len(got) != 0 {
		t.Fatalf("re-quarantine without reattach fired %v", got)
	}
	// A different tag has independent state.
	if got := w.NoteQuarantine(70, tag+1); len(got) != 0 {
		t.Fatalf("fresh tag fired %v", got)
	}
}

func TestWatchdogDispatchDominance(t *testing.T) {
	w := NewWatchdog()
	got := feedN(w, 10, func(i int) WatchdogSample {
		return WatchdogSample{
			Tick:          uint64(i) * 500_000,
			DispatchTicks: uint64(i) * 400_000, // 80% of every interval
		}
	})
	if len(got) != 1 || got[0].Kind != AnomalyDispatchDominance {
		t.Fatalf("anomalies = %v, want one dispatch-dominance", got)
	}
	// Without phase accounting DispatchTicks stays zero: never fires.
	w = NewWatchdog()
	got = feedN(w, 10, func(i int) WatchdogSample {
		return WatchdogSample{Tick: uint64(i) * 500_000}
	})
	if len(got) != 0 {
		t.Fatalf("zero dispatch ticks fired %v", got)
	}
}

func TestWatchdogDefaults(t *testing.T) {
	for k := AnomalyKind(0); k < NumAnomalyKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("anomaly kind %d has no name", k)
		}
	}
}
