package core

import (
	"repro/internal/instr"
	"repro/internal/machine"
)

// Client is a DynamoRIO client (Section 3 of the paper): an external module
// that is coupled with the runtime to jointly operate on the program. A
// client implements any subset of the optional hook interfaces below, which
// are Table 3's eight client routines. Evictions, cache and IBL resizes,
// detaches, re-attaches and watchdog anomalies are not client events: they
// are observed through the event ring (RIO.Tracer), the span stream
// (Options.TraceEvents), Stats and RIO.Watchdog.
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
