package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans nest: a pass holds ops, an op holds the layer calls.
type span struct {
	name   string
	id     int
	parent int // index of the enclosing span, -1 for a root
	op     int // id of the op the span belongs to, -1 outside ops
	phase  string
	prog   string
	start  int64  // ns since the recorder started
	end    int64  // ns since the recorder started
	alloc  uint64 // bytes allocated inside the span, when measured
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs call the layers through the same code.
type recorder struct {
	origin time.Time
	spans  []span
	stack  []int
	op     int
	phase  string // tags spans: setup, timed or layers
	ms     runtime.MemStats
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), op: -1} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name, prog string) int {
	if r == nil {
		return -1
	}
	i := r.open(name, prog)
	r.spans[i].start = r.now()
	return i
}

// open appends a span and makes it the innermost one; the caller stamps its
// start. Growing the span slice allocates, so this happens before any
// allocation reading taken for the span.
func (r *recorder) open(name, prog string) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{name: name, id: i, parent: parent, op: r.op,
		phase: r.phase, prog: prog})
	r.stack = append(r.stack, i)
	return i
}

// finish closes span i, which must be the innermost open span.
func (r *recorder) finish(i int) {
	if r == nil {
		return
	}
	r.spans[i].end = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// setOp makes id the op of the spans opened from now on.
func (r *recorder) setOp(id int) {
	if r != nil {
		r.op = id
	}
}

// do runs fn inside a span. With alloc set it also records the bytes fn
// allocated, reading runtime.MemStats outside the span's timed interval.
func (r *recorder) do(name, prog string, alloc bool, fn func()) {
	if r == nil {
		fn()
		return
	}
	i := r.open(name, prog)
	var before uint64
	if alloc {
		runtime.ReadMemStats(&r.ms)
		before = r.ms.TotalAlloc
	}
	r.spans[i].start = r.now()
	fn()
	end := r.now()
	if alloc {
		runtime.ReadMemStats(&r.ms)
		r.spans[i].alloc = r.ms.TotalAlloc - before
	}
	r.spans[i].end = end
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTimes returns each span's duration minus the part of it covered by the
// union of its children (clipped to the span), so that summing self time over
// every span of a tree gives the root's duration exactly once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
		covered, reach := int64(0), s.start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// writeTrace writes the spans as Chrome trace-event JSON through the
// runtime's own trace-event writer. Times are host nanoseconds; the format
// declares no unit, so one nanosecond displays as one microsecond.
func writeTrace(path, process string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	tw := obs.NewTraceWriter(bw)
	tw.Process(1, process)
	tw.Thread(1, 0, "worker")
	for _, s := range spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "op": s.op, "phase": s.phase}
		if s.prog != "" {
			args["prog"] = s.prog
		}
		if s.alloc > 0 {
			args["alloc_bytes"] = s.alloc
		}
		tw.Span(1, 0, s.name, uint64(s.start), uint64(s.end-s.start), args)
	}
	err = tw.Close()
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return nil
}
