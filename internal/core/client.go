package core

import (
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Client is a DynamoRIO client (Section 3 of the paper): an external module
// that is coupled with the runtime to jointly operate on the program. A
// client implements any subset of the optional hook interfaces below, which
// mirror Table 3's client routines.
type Client interface {
	// Name identifies the client in statistics and debug output.
	Name() string
}

// InitHook mirrors dynamorio_init: called once before execution starts.
type InitHook interface {
	Init(r *RIO)
}

// ExitHook mirrors dynamorio_exit: called once after the program finishes.
type ExitHook interface {
	Exit(r *RIO)
}

// ThreadInitHook mirrors dynamorio_thread_init.
type ThreadInitHook interface {
	ThreadInit(ctx *Context)
}

// ThreadExitHook mirrors dynamorio_thread_exit.
type ThreadExitHook interface {
	ThreadExit(ctx *Context)
}

// BasicBlockHook mirrors dynamorio_basic_block: called each time a basic
// block is created, with the block as an InstrList. The block is passed
// before mangling, so the client sees the application's own code, ending
// with its original control-transfer instruction.
type BasicBlockHook interface {
	BasicBlock(ctx *Context, tag machine.Addr, bb *instr.List)
}

// TraceHook mirrors dynamorio_trace: called each time a trace is created,
// just before it is placed in the trace cache. The list has already been
// completely processed by the runtime — the client sees exactly the code
// that will execute in the code cache (with the exception of the exit
// stubs).
type TraceHook interface {
	Trace(ctx *Context, tag machine.Addr, trace *instr.List)
}

// FragmentDeletedHook mirrors dynamorio_fragment_deleted: called when a
// fragment is deleted from the block or trace cache, so clients can keep
// their own data structures consistent.
type FragmentDeletedHook interface {
	FragmentDeleted(ctx *Context, tag machine.Addr)
}

// FragmentEvictedHook is called when a fragment is evicted from a code
// cache under capacity pressure (Section 6's FIFO replacement). The deleted
// event fires too; this one additionally tells capacity-aware clients which
// cache evicted and lets them distinguish eviction from invalidation.
type FragmentEvictedHook interface {
	FragmentEvicted(ctx *Context, tag machine.Addr, kind FragmentKind)
}

// CacheResizedHook is called when a code cache's capacity grows, either
// adaptively (the regeneration ratio exceeded its threshold) or because a
// single fragment outgrew the budget.
type CacheResizedHook interface {
	CacheResized(ctx *Context, kind FragmentKind, oldBytes, newBytes int)
}

// IBLResizedHook is called when the adaptive indirect-branch lookup
// hashtable doubles: live entries exceeded half the capacity, so the table
// grew, every entry was rehashed and the lookup routines were re-emitted
// with the new mask. Entry counts, not bytes — the table is slots.
type IBLResizedHook interface {
	IBLResized(ctx *Context, oldEntries, newEntries int)
}

// ThreadDetachHook is called when a thread detaches from the runtime after
// an unrecoverable internal failure: its native context has been restored
// and it will finish execution under plain interpretation. tag is the
// application PC it resumes at; cause describes the failure.
type ThreadDetachHook interface {
	ThreadDetach(ctx *Context, tag machine.Addr, cause string)
}

// ThreadReattachHook is called when a degraded thread returns to full
// service after a clean native cool-down — the recovery counterpart of
// ThreadDetach: earlier internal failures walked the thread down the
// degradation ladder, a failure-free stretch walked it back up, and it now
// builds fragments again. tag is the application PC whose dispatch
// completed the re-attach.
type ThreadReattachHook interface {
	ThreadReattach(ctx *Context, tag machine.Addr)
}

// WatchdogHook is called when the pathology watchdog (Options.Watchdog)
// fires a detection: eviction thrash, an IBL resize storm, quarantine
// flapping, or dispatch dominance. The callback runs at a dispatcher safe
// point with the machine paused; it may read runtime state and steer policy
// (the adaptive-reaction surface the paper's Section 7 anticipates).
type WatchdogHook interface {
	WatchdogAnomaly(r *RIO, a obs.Anomaly)
}

// EndTraceDecision is a client's answer to dynamorio_end_trace.
type EndTraceDecision int

// End-trace decisions: let the runtime apply its default test, force the
// trace to end before the block, or force it to continue.
const (
	EndTraceDefault EndTraceDecision = iota
	EndTraceEnd
	EndTraceContinue
)

// EndTraceHook mirrors dynamorio_end_trace: while the runtime is in trace
// generation mode it asks the client, before adding each basic block,
// whether to end the current trace.
type EndTraceHook interface {
	EndTrace(ctx *Context, traceTag, nextTag machine.Addr) EndTraceDecision
}
