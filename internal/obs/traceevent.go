package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Span export: the phase brackets and the event ring, lowered into the
// Chrome trace-event JSON format that Perfetto (and chrome://tracing) load
// directly. The mapping is
//
//   - one complete ("X") event per runtime span — dispatch, block build,
//     trace build, eviction, fault translation — with ts/dur in simulated
//     ticks (the file declares no clock unit; one tick displays as one
//     microsecond);
//   - one instant ("i") event per discrete ring event — link, unlink,
//     quarantine, degrade, reattach, recover, anomaly;
//   - one counter ("C") track per thread for live cache bytes;
//   - pid = one process per runtime instance (NewProcess hands each
//     runtime sharing a writer a fresh one), tid = the simulated thread id,
//     named through "M" metadata events.
//
// TraceWriter streams events as they happen — nothing is buffered beyond
// the encoder — so a trace of a crashed run is still loadable up to the
// missing close bracket.

// TraceWriter writes Chrome trace-event JSON ({"traceEvents":[...]}) to an
// underlying writer. It is safe for concurrent use: parallel runs can share
// one writer, distinguished by pid.
type TraceWriter struct {
	mu     sync.Mutex
	w      io.Writer
	n      int
	pids   int
	err    error
	closed bool
}

// NewTraceWriter starts a trace-event stream on w. The caller must Close it
// to terminate the JSON document.
func NewTraceWriter(w io.Writer) *TraceWriter {
	tw := &TraceWriter{w: w}
	_, tw.err = io.WriteString(w, "{\"traceEvents\":[")
	return tw
}

// completeEvent is a ph:"X" span; dur is always present (a zero-length span
// is still a span).
type completeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// markerEvent covers instant ("i"), counter ("C") and metadata ("M") events.
type markerEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func (tw *TraceWriter) emit(ev any) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.err != nil || tw.closed {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		tw.err = err
		return
	}
	if tw.n > 0 {
		data = append([]byte{',', '\n'}, data...)
	}
	if _, err := tw.w.Write(data); err != nil {
		tw.err = err
		return
	}
	tw.n++
}

// NewProcess allocates the next unused pid (1, 2, ...) and names its process
// track: each runtime sharing the writer gets its own track.
func (tw *TraceWriter) NewProcess(name string) int {
	tw.mu.Lock()
	tw.pids++
	pid := tw.pids
	tw.mu.Unlock()
	tw.Process(pid, name)
	return pid
}

// Process names the process track for pid ("M" metadata event).
func (tw *TraceWriter) Process(pid int, name string) {
	tw.emit(markerEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name}})
}

// Thread names the thread track (pid, tid).
func (tw *TraceWriter) Thread(pid, tid int, name string) {
	tw.emit(markerEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name}})
}

// Span records one complete ("X") event: a runtime span on thread tid from
// start for dur ticks.
func (tw *TraceWriter) Span(pid, tid int, name string, start, dur uint64, args map[string]any) {
	tw.emit(completeEvent{Name: name, Ph: "X", Ts: start, Dur: dur,
		Pid: pid, Tid: tid, Cat: "runtime", Args: args})
}

// Instant records one instant ("i") event, thread-scoped.
func (tw *TraceWriter) Instant(pid, tid int, name string, tick uint64, args map[string]any) {
	tw.emit(markerEvent{Name: name, Ph: "i", Ts: tick, Pid: pid, Tid: tid,
		Cat: "runtime", S: "t", Args: args})
}

// Counter records one counter ("C") sample. Each args key renders as one
// series of the counter track.
func (tw *TraceWriter) Counter(pid, tid int, name string, tick uint64, args map[string]any) {
	tw.emit(markerEvent{Name: name, Ph: "C", Ts: tick, Pid: pid, Tid: tid, Args: args})
}

// Err returns the first write or encode error, if any.
func (tw *TraceWriter) Err() error {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.err
}

// Close terminates the JSON document. It does not close the underlying
// writer. Safe to call once; events after Close are dropped.
func (tw *TraceWriter) Close() error {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.closed {
		return tw.err
	}
	tw.closed = true
	if tw.err != nil {
		return tw.err
	}
	if _, err := io.WriteString(tw.w, "]}\n"); err != nil {
		tw.err = fmt.Errorf("obs: closing trace-event stream: %w", err)
	}
	return tw.err
}
