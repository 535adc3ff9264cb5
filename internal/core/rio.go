package core

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/ia32"
	"repro/internal/image"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Stats counts runtime events. All fields are written with atomic adds and
// may be read directly once a run has finished; concurrent readers must use
// StatsSnapshot (see stats.go for the protocol).
type Stats struct {
	ContextSwitches  uint64
	BlocksBuilt      uint64
	TracesBuilt      uint64
	Links            uint64
	Unlinks          uint64
	IBLMisses        uint64
	CleanCalls       uint64
	Replacements     uint64
	FragmentsDeleted uint64
	StaleFragments   uint64
	TraceHeadBumps   uint64
	EmulatedInstrs   uint64

	// Per-kind splits of FragmentsDeleted, for the conservation
	// invariant: BlocksBuilt == live BB fragments + FragmentsDeletedBB
	// (and likewise for traces) once deletion events have been delivered.
	FragmentsDeletedBB    uint64
	FragmentsDeletedTrace uint64

	// Cache capacity management (Section 6): fragments evicted under
	// capacity pressure, evicted fragments later rebuilt (the signal
	// driving adaptive sizing), and adaptive/forced capacity grows.
	Evictions     uint64
	Regenerations uint64
	CacheResizes  uint64

	// Indirect-branch lookup hashtable behaviour. IBLCollisions counts
	// inserts displaced from their home slot (open addressing) or
	// clobbering a prior entry (direct-mapped); IBLMaxProbe is the longest
	// insert probe distance seen; IBLReplaced counts entries displaced
	// because a fixed-size table hit its load ceiling; IBLResizes counts
	// adaptive table doublings.
	IBLCollisions uint64
	IBLMaxProbe   uint64
	IBLReplaced   uint64
	IBLResizes    uint64

	// Flags-liveness elision: fragments emitted with a flag-save-free IBL
	// target prefix, and trace inline checks whose hit-path popfd was
	// elided.
	FlagsElisions      uint64
	InlineChecksElided uint64

	// Fault transparency (Section 3.3.4): faults whose cache context was
	// rewritten to native application form, and threads that fell back to
	// native execution after an internal runtime failure.
	FaultsTranslated uint64
	Detaches         uint64

	// Robustness ladder (see recover.go). Recoveries counts internal
	// failures rolled back transactionally with a clean post-rollback
	// invariant audit; RecoveryAuditFailures counts rollbacks the audit
	// rejected (each also detaches the thread). Quarantined counts tags
	// permanently barred from the cache, NativeWindows the bounded native
	// cool-down windows executed, Reattaches the threads that returned to
	// full service after a clean cool-down, and DegradeLevel the high-water
	// health level any thread reached (statMax, not a sum).
	Recoveries            uint64
	RecoveryAuditFailures uint64
	Quarantined           uint64
	NativeWindows         uint64
	Reattaches            uint64
	DegradeLevel          uint64

	// Anomalies counts pathology-watchdog detections (Options.Watchdog).
	Anomalies uint64

	// Live-fragment byte gauges. The authoritative gauges live on each
	// cache region; StatsSnapshot aggregates them across regions at
	// snapshot time. These fields are only populated in snapshots — in
	// the RIO's own Stats they stay zero.
	BBCacheLiveBytes    uint64
	TraceCacheLiveBytes uint64
}

// RIO is one instance of the runtime attached to a machine and program.
type RIO struct {
	M       *machine.Machine
	Opts    Options
	Clients []Client

	Img *image.Image

	Stats Stats

	// Out receives client dr_printf output (transparent I/O: the runtime
	// never touches the application's output stream).
	Out io.Writer

	// contexts maps thread ids to runtime contexts; ctxMu guards the map
	// against concurrent StatsSnapshot/profile readers while the running
	// machine spawns threads.
	contexts map[int]*Context
	ctxMu    sync.RWMutex

	// tracer is the runtime event ring (never nil; disabled at size 0).
	tracer *obs.Tracer

	// Live telemetry (see telemetry.go). hists is always on — observation
	// is allocation-free atomics and never charges simulated time. spans
	// is the Chrome trace-event exporter (nil when off). wd is the
	// pathology watchdog (nil when off), pumped from the dispatcher every
	// wd.Interval() ticks; wdNext is the next pump deadline.
	hists   obs.Histograms
	spans   *obs.TraceWriter
	spanPid int
	wd      *obs.Watchdog
	wdNext  uint64

	linkstubs []*Exit

	startTrap     machine.Addr
	exitTrap      machine.Addr
	iblMissTrap   machine.Addr
	cleanCallTrap machine.Addr
	windowTrap    machine.Addr

	// Transactional-recovery state (see recover.go): the undo/repair log
	// of in-flight cache mutations, the dispatch/recovery nesting flags
	// that gate chaos injection, and a suppression counter for wholesale
	// operations that have no incremental repair (detach teardown).
	txnLog        []func()
	inDispatch    int
	inRecovery    bool
	chaosSuppress int

	cleanCalls []func(*Context)

	// sharedFrags, sharedBB and sharedTrace back every context's fragment
	// map and cache regions in the SharedCache ablation.
	sharedFrags map[machine.Addr]*Fragment
	sharedBB    *cacheRegion
	sharedTrace *cacheRegion

	// exiting guards against double exit-event delivery.
	exited bool

	// heapNext is the global transparent-allocation bump pointer.
	heapNext machine.Addr
}

// New attaches a runtime to a machine that will run img under opts with the
// given clients. The machine must be freshly created; New installs traps,
// loads the image, creates the initial thread context and points the thread
// at the dispatcher.
func New(m *machine.Machine, img *image.Image, opts Options, out io.Writer, clients ...Client) *RIO {
	if opts.TraceThreshold <= 0 {
		opts.TraceThreshold = 50
	}
	if opts.IBLTableBits == 0 {
		opts.IBLTableBits = 8
	}
	if opts.IBLTableBits > maxIBLTableBits {
		opts.IBLTableBits = maxIBLTableBits
	}
	r := &RIO{
		M:        m,
		Opts:     opts,
		Clients:  clients,
		Img:      img,
		Out:      out,
		contexts: map[int]*Context{},
		tracer:   obs.NewTracer(opts.EventRing),
	}
	if opts.SharedCache {
		r.sharedFrags = map[machine.Addr]*Fragment{}
		r.sharedBB = newRegion(KindBasicBlock, bbCacheBase, 0)
		r.sharedTrace = newRegion(KindTrace, traceCacheBase, 0)
	}
	r.initSpans()
	if opts.Watchdog {
		r.wd = obs.NewWatchdog()
		r.wdNext = r.wd.Interval()
	}
	if opts.Profile {
		// Must happen before any ticks accrue so the phase breakdown sums
		// exactly to machine.Ticks (the conservation invariant).
		m.EnablePhaseAccounting()
	}

	img.LoadInto(m.Mem)

	r.startTrap = m.AllocTrap(r.onStart)
	r.exitTrap = m.AllocTrap(r.onExit)
	r.iblMissTrap = m.AllocTrap(r.onIBLMiss)
	r.cleanCallTrap = m.AllocTrap(r.onCleanCall)
	r.windowTrap = m.AllocTrap(r.onWindowEnd)

	// Native cool-down windows (degradation ladder) are bounded by an
	// instruction watch; expiry hands the thread back to the dispatcher.
	m.SetWatchHook(r.onWatchExpire)

	// Initial thread.
	t0 := m.Threads[0]
	t0.CPU.SetReg(ia32.ESP, img.StackTop)
	r.setupThread(t0, img.Entry)

	// Threads spawned by the program are routed through the dispatcher
	// too, each with its own context (thread-private caches).
	m.SetSpawnHook(func(t *machine.Thread) {
		r.setupThread(t, t.CPU.EIP)
	})

	// Signals are intercepted: delivery is deferred to the next dispatcher
	// entry so it always happens at a safe point with a clean application
	// context (the queued handler runs with the application's next tag as
	// its interrupted PC).
	m.SetSignalInterceptor(r.interceptSignal)

	// Synchronous faults get their context translated back to native form
	// before they become observable, and registered handlers are re-routed
	// through the dispatcher so they too run under the cache.
	m.SetFaultTranslator(r.translateFault)
	m.SetFaultInterceptor(r.interceptFaultDelivery)

	for _, cl := range r.Clients {
		if h, ok := cl.(InitHook); ok {
			h.Init(r)
		}
	}
	ctx := r.contexts[t0.ID]
	for _, cl := range r.Clients {
		if h, ok := cl.(ThreadInitHook); ok {
			h.ThreadInit(ctx)
		}
	}
	return r
}

// setupThread creates the context for a machine thread and points the
// thread at the dispatcher with startTag as its first target.
func (r *RIO) setupThread(t *machine.Thread, startTag machine.Addr) {
	ctx := &Context{
		rio:         r,
		thread:      t,
		headCounter: map[machine.Addr]int{},
		isHead:      map[machine.Addr]bool{},
	}
	slot := machine.Addr(t.ID)
	if r.Opts.SharedCache {
		slot = 0
		ctx.frags = r.sharedFrags
		ctx.bb, ctx.trace = r.sharedBB, r.sharedTrace
	} else {
		ctx.frags = map[machine.Addr]*Fragment{}
		ctx.bb = newRegion(KindBasicBlock, bbCacheBase+slot*cacheStride, r.Opts.BBCacheSize)
		ctx.trace = newRegion(KindTrace, traceCacheBase+slot*cacheStride, r.Opts.TraceCacheSize)
	}
	ctx.tls = tlsBase + machine.Addr(t.ID)*tlsStride // TLS is always private
	ctx.tableBase = tlsBase + slot*tlsStride + offIBLTable
	ctx.tableBits = r.Opts.IBLTableBits
	ctx.tableMask = 1<<ctx.tableBits - 1

	if r.Opts.Mode == ModeCache && r.Opts.LinkIndirect {
		r.emitIBLRoutines(ctx)
	}

	r.ctxMu.Lock()
	r.contexts[t.ID] = ctx
	r.ctxMu.Unlock()
	t.Local = ctx
	r.spanThreadMeta(t.ID)

	if r.Opts.Mode == ModeEmulate {
		// Pure emulation: run the application code where it lies, with
		// a per-instruction interpretation charge. (The paper's Table 1
		// first row.)
		t.CPU.EIP = startTag
		return
	}
	// Stash the start tag; the start trap dispatches to it.
	ctx.lastExit = nil
	ctx.startTag = startTag
	t.CPU.EIP = r.startTrap

	if t.ID > 0 {
		for _, cl := range r.Clients {
			if h, ok := cl.(ThreadInitHook); ok {
				h.ThreadInit(ctx)
			}
		}
	}
}

// usesIBLPrefix reports whether fragments carry an indirect-branch target
// prefix and the lookup hashtable is the open-address organization (the two
// are coupled: the hashtable's dest field points at the prefix, and the
// lookup routine's hit path relies on the prefix to restore ECX and the
// flags). False under SharedCache — a prefix restores ECX from its own
// emitter's TLS spill slot, which is the wrong slot when the exit that
// spilled was emitted by another thread — and under the IBLDirect
// ablation, both of which keep the legacy routine shape that restores the
// application context inside the routine itself.
func (r *RIO) usesIBLPrefix() bool {
	return r.Opts.Mode == ModeCache && r.Opts.LinkIndirect &&
		!r.Opts.SharedCache && r.Opts.IBL != IBLDirect
}

// ContextOf returns the runtime context of a machine thread, or nil if the
// thread is not managed by this runtime.
func (r *RIO) ContextOf(t *machine.Thread) *Context {
	r.ctxMu.RLock()
	defer r.ctxMu.RUnlock()
	return r.contexts[t.ID]
}

// ctxOf returns the runtime context of a machine thread.
func (r *RIO) ctxOf(t *machine.Thread) *Context {
	ctx, ok := t.Local.(*Context)
	if !ok {
		panic(fmt.Sprintf("core: thread %d has no runtime context", t.ID))
	}
	return ctx
}

// Run executes the program to completion (or the instruction limit) and
// fires thread-exit and exit events.
func (r *RIO) Run(limit uint64) error {
	if r.Opts.Mode == ModeEmulate {
		r.M.PerInstrOverhead = costEmulateDispatch
	}
	err := r.M.Run(limit)
	r.fireExitEvents()
	return err
}

func (r *RIO) fireExitEvents() {
	if r.exited {
		return
	}
	r.exited = true
	for _, t := range r.M.Threads {
		ctx := r.ContextOf(t)
		if ctx == nil {
			continue
		}
		// A thread that halts right after an eviction never reaches another
		// dispatch safe point; its deferred events are still owed. The thread
		// is stopped, so delivery is safe here.
		r.deliverDeleted(ctx)
		// Likewise any signals still queued for the dispatcher's safe point
		// can never be delivered now: account for them so none is lost
		// silently.
		if n := len(ctx.pendingSignals); n > 0 {
			statAdd(&r.M.Stats.SignalsDropped, uint64(n))
			ctx.pendingSignals = nil
		}
		for _, cl := range r.Clients {
			if h, ok := cl.(ThreadExitHook); ok {
				h.ThreadExit(ctx)
			}
		}
	}
	for _, cl := range r.Clients {
		if h, ok := cl.(ExitHook); ok {
			h.Exit(r)
		}
	}
}

// Histograms returns the runtime's distribution metrics. The histograms are
// always recording — reads are safe at any time, including concurrently with
// a running machine.
func (r *RIO) Histograms() *obs.Histograms { return &r.hists }

// Printf writes transparent client output (the paper's dr_printf): it goes
// to the runtime's own stream, never the application's.
func (r *RIO) Printf(format string, args ...any) {
	if r.Out != nil {
		fmt.Fprintf(r.Out, format, args...)
	}
}

// ProcessorFamily identifies the underlying processor for
// architecture-specific optimizations (the paper's proc_get_family).
func (r *RIO) ProcessorFamily() machine.Family { return r.M.Profile.Family }

// globalHeapBase is where AllocGlobal carves transparent runtime memory.
const globalHeapBase machine.Addr = 0xE0000000

// AllocGlobal reserves n bytes of global runtime memory that does not
// interfere with the application (the paper's transparent global
// allocation: a client that used the application's allocator would risk
// corrupting it) and returns the simulated address.
func (r *RIO) AllocGlobal(n int) machine.Addr {
	if r.heapNext == 0 {
		r.heapNext = globalHeapBase
	}
	a := r.heapNext
	r.heapNext += machine.Addr((n + 7) &^ 7)
	if r.heapNext > globalHeapBase+0x01000000 {
		panic("core: global runtime heap exhausted")
	}
	return a
}

// RegisterCleanCall registers fn for insertion into cache code; the
// returned id is used by InsertCleanCall. Callbacks run with the machine
// paused at the call site; they may inspect and modify machine state and
// use the adaptive replacement interface.
func (r *RIO) RegisterCleanCall(fn func(*Context)) uint32 {
	r.cleanCalls = append(r.cleanCalls, fn)
	return uint32(len(r.cleanCalls) - 1)
}

// CleanCallTrap returns the trap address clean calls are routed through.
func (r *RIO) CleanCallTrap() machine.Addr { return r.cleanCallTrap }

// interceptSignal queues the handler to be dispatched at the next safe
// point: the thread's next entry to the dispatcher.
func (r *RIO) interceptSignal(t *machine.Thread, handler machine.Addr) bool {
	if r.Opts.Mode == ModeEmulate {
		return false // default delivery is fine under emulation
	}
	ctx := r.ctxOf(t)
	if ctx.detached {
		return false // detached threads use the machine's native delivery
	}
	ctx.pendingSignals = append(ctx.pendingSignals, handler)
	return true
}
