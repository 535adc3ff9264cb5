// Package core implements the DynamoRIO runtime of the paper over the
// simulated machine: the dispatcher, basic-block builder, thread-private
// code caches, fragment linking, the in-cache indirect-branch lookup
// routine, NET-style trace building with custom-trace hooks, exit stubs
// (including client-customized stubs), and the adaptive fragment-replacement
// interface.
//
// The control flow is exactly Figure 1 of the paper: application code is
// copied a basic block at a time into a code cache living in simulated
// memory and executed there natively by the machine; exits that cannot be
// linked return to the dispatcher (a Go function reached through a machine
// trap — the "context switch"), which finds or builds the next fragment and
// re-enters the cache.
package core

import (
	"repro/internal/chaos"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Mode selects the execution strategy, forming the ladder of the paper's
// Table 1.
type Mode int

const (
	// ModeCache runs application code from the code cache (the normal
	// DynamoRIO mode; linking and traces are controlled separately).
	ModeCache Mode = iota
	// ModeEmulate interprets every instruction, modelling a pure
	// emulator: no code cache, a fixed dispatch overhead per instruction.
	ModeEmulate
)

// IBLOrg selects the organization of the indirect-branch lookup hashtable.
type IBLOrg uint8

const (
	// IBLOpenFixed is a linear-probing open-address table of fixed size
	// 2^IBLTableBits, probed by the emitted lookup routines.
	IBLOpenFixed IBLOrg = iota
	// IBLOpenAdaptive is the open-address table growing itself: when live
	// entries exceed half the capacity, the table doubles, every entry is
	// rehashed and the lookup routines are re-emitted with the new mask
	// (see DESIGN.md).
	IBLOpenAdaptive
	// IBLDirect is the legacy single-probe direct-mapped table (last writer
	// wins on a collision, so a collided target misses to the dispatcher
	// forever), kept as the ablation baseline for the IBL sweep.
	IBLDirect
)

// Mutation is a deliberately injected runtime bug: the mutation-testing
// levers that prove the transparency checks have teeth. The zero value is
// the correct runtime. Never set one outside tests.
type Mutation uint8

const (
	// MutateFlagsDead overrides the flagsDeadFrom liveness analysis to
	// always report the arithmetic flags dead, making flag-save elision
	// unsound: IBL target prefixes and trace inline checks discard the
	// application eflags even when the target reads them. It proves the
	// differential fuzzer's native-vs-runtime oracle detects real
	// transparency violations.
	MutateFlagsDead Mutation = iota + 1
	// MutateRollbackScrub skips the IBL scrub step of emit's registration
	// rollback, leaving a stale hashtable entry behind after an injected
	// emit/registration failure. It proves CheckCacheInvariants catches a
	// broken rollback path: the recovery audit must fail and the thread
	// must detach.
	MutateRollbackScrub
)

// Options configures the runtime: the paper's real choices (execution mode,
// linking, traces, cache and IBL organization) plus the observability and
// testing switches. Everything else is fixed policy — the constants below.
type Options struct {
	Mode Mode

	// LinkDirect links fragments connected by direct branches with a
	// direct jump, avoiding a context switch ("+ Link direct branches").
	LinkDirect bool

	// LinkIndirect installs the in-cache indirect-branch lookup routine
	// and hashtable ("+ Link indirect branches"). Without it every
	// indirect branch exits to the dispatcher.
	LinkIndirect bool

	// EnableTraces turns on hot-path trace building ("+ Traces"); a trace
	// absorbs at most maxTraceBlocks basic blocks.
	EnableTraces bool

	// TraceThreshold is the trace-head execution count that triggers
	// trace creation (Dynamo used 50).
	TraceThreshold int

	// SharedCache places all threads in one shared code cache instead of
	// thread-private caches (an ablation of the paper's Section 2 design
	// choice). Fragment creation then pays costSync for the
	// synchronization the paper argues thread-private caches avoid.
	SharedCache bool

	// IBL selects the lookup hashtable's organization. SharedCache always
	// uses the direct-mapped table.
	IBL IBLOrg

	// IBLTableBits is the log2 size of the indirect-branch lookup
	// hashtable (default 8: 256 entries, hashing the low bits of the
	// target address) — the starting size of an adaptive table. Clamped to
	// 11 (2048 entries), the TLS reservation for the table.
	IBLTableBits uint

	// FlagsElision enables eflags-liveness flag-save elision (Section 4.4):
	// when the target of an indirect branch provably rewrites all six
	// arithmetic flags before reading any — with no intervening fault
	// hazard — the IBL target prefix and the trace inline check skip the
	// popfd on their hit paths, replacing it with a flag-neutral lea that
	// discards the pushed flags word.
	FlagsElision bool

	// BBCacheSize and TraceCacheSize give each thread's basic-block and
	// trace caches byte budgets managed by FIFO eviction (Section 6): when
	// a cache fills, the oldest fragments are evicted one at a time and
	// their space reused. 0 means the whole 2 MiB per-thread reservation,
	// effectively the paper's "unlimited cache space" for these workloads.
	// Ignored under SharedCache, whose one cache never reuses bytes
	// because another thread may be executing the eviction victim.
	BBCacheSize    int
	TraceCacheSize int

	// AdaptiveCache lets a cache grow itself: per epoch of 32 evictions,
	// if more than half of the evicted fragments were regenerations
	// (rebuilds of previously evicted code), the working set does not fit
	// and the cache capacity doubles (Section 6.2's
	// regeneration/replacement ratio).
	AdaptiveCache bool

	// Chaos, when set, drives the named injection sites at every fragile
	// runtime boundary (see internal/chaos): a firing trigger panics at the
	// site, exercising transactional rollback and the degradation ladder.
	// Injection only happens inside dispatcher-owned work (plus fault
	// translation, which has its own retry transaction); setup-time and
	// client-initiated paths are never injected.
	Chaos *chaos.Injector

	// Mutation arms one deliberately injected bug (zero: none). Never set
	// it outside tests.
	Mutation Mutation

	// Profile turns on the observability layer: per-tick phase accounting
	// (every simulated tick attributed to a named execution phase, the
	// paper's Section 4 breakdown) and per-fragment profiles (execution
	// counts, tick attribution, stub traversals, IBL hits/misses).
	// Profiling observes execution from outside the cache — no
	// instrumentation code is emitted — so it changes neither the
	// program's behaviour nor its tick totals.
	Profile bool

	// EventRing sizes the per-thread runtime event trace ring (fragment
	// emit/link/unlink/evict/resize, detach, fault translation, signal
	// delivery). 0 disables tracing at the cost of one branch per event
	// site.
	EventRing int

	// TraceEvents, when set, streams the run as Chrome trace-event JSON
	// (Perfetto-loadable): complete events for the
	// dispatch/block-build/trace-build/evict/fault-translation spans with
	// tick timestamps, instant events for the discrete ring events, one
	// track per simulated thread plus a counter track for live cache
	// bytes. The caller owns the writer and closes it; several runtimes can
	// share one file, each on its own process track (a fresh pid from the
	// writer, named after the image). Span export reads the clock without
	// charging it, so it never perturbs simulated behaviour.
	TraceEvents *obs.TraceWriter

	// Watchdog turns on the pathology monitor (see obs.Watchdog) with its
	// default thresholds: the dispatcher feeds it counter snapshots on a
	// tick budget and it fires typed detections — eviction thrash, IBL
	// resize storms, quarantine flapping, dispatch dominance — surfaced as
	// EvAnomaly ring events, Watchdog().Anomalies() and
	// Stats.Anomalies. Detection never charges simulated time.
	Watchdog bool
}

// maxTraceBlocks caps how many basic blocks one trace may absorb.
const maxTraceBlocks = 32

// The degradation ladder's time constants (recover.go), sized so a short
// benchmark rides a chaos storm down the ladder and back up to full service
// before it finishes. The ladder only engages after an internal failure.
const (
	nativeWindowBudget  uint64 = 500 // instructions in one native cool-down window before returning to the dispatcher
	recoveryRetryBudget        = 2   // consecutive recovery failures a health level tolerates before stepping down
	recoveryBackoff     uint64 = 2   // base per-tag retry delay in dispatch entries, doubled per failure of the tag
	quarantineThreshold        = 3   // per-tag failures that bar the tag from the cache for good
	reattachCooldown    uint64 = 8   // clean dispatch entries before a degraded thread steps back up one level
)

// The modeled overhead constants, in ticks (quarter cycles): runtime work
// that really happens in Go (hashtable lookups in the dispatcher,
// decode/encode during fragment construction, client analysis) but must
// cost simulated time. All cache-resident work — stubs, the indirect-branch
// lookup, inline checks, profiling calls — is real emitted code whose cost
// arises from execution and is NOT modeled here.
//
// They were tuned so the Table 1 ladder lands in the paper's bands (see
// EXPERIMENTS.md); they are deliberately coarse — the paper's own analysis
// attributes the residual overheads to indirect branches and eflags
// handling, which this system reproduces with real instructions.
// Construction costs are scaled to the synthetic workloads' runtime: the
// simulated programs run ~10^6 instructions where the real SPEC binaries ran
// ~10^11, so per-block costs are scaled down to keep the ratio of
// construction time to total runtime in the regime the paper reports
// (negligible for loopy code, significant for the low-reuse gcc/perlbmk
// profile).
const (
	costEmulateDispatch machine.Ticks = 3600  // per ModeEmulate instruction: a pure interpreter's fetch/decode/dispatch, ~900 cycles (the paper's "several hundred times slowdown")
	costDispatch        machine.Ticks = 800   // per context switch into the dispatcher: the rest of the context save, the fragment-lookup hashtable, the return; ~200 cycles
	costBuildBlock      machine.Ticks = 1200  // per basic block built: decoding, mangling, emission, bookkeeping...
	costBuildInstr      machine.Ticks = 80    // ...plus per instruction
	costTraceBlock      machine.Ticks = 2400  // per block of a trace built (full Level 3 decode and re-encode)...
	costTraceInstr      machine.Ticks = 160   // ...plus per instruction
	costClientInstr     machine.Ticks = 100   // per instruction each time a client hook inspects a block or trace
	costCleanCall       machine.Ticks = 160   // per clean call: saving and restoring enough context to run client code, ~40 cycles
	costReplaceFragment machine.Ticks = 8000  // per adaptive fragment replacement, on top of the trace construction costs
	costEvict           machine.Ticks = 200   // per FIFO eviction victim (Section 6): unlinking, lookup-table scrubbing, allocator bookkeeping; ~50 cycles
	costIBLResize       machine.Ticks = 2000  // per IBL table doubling: rehashing every entry and re-emitting the lookup routines; ~500 cycles
	costFaultTranslate  machine.Ticks = 400   // per fault translated back to native form (Section 3.3.4): walking the xl8 table; ~100 cycles
	costSync            machine.Ticks = 20000 // per cache change under SharedCache: coordinating all threads, what makes shared caches lose (Section 2); ~5000 cycles
)

// Default returns the full-featured configuration (the paper's "base
// DynamoRIO"): caching, direct and indirect linking, traces, the adaptive
// open-address IBL hashtable and eflags-liveness flag-save elision.
func Default() Options {
	return Options{
		Mode:           ModeCache,
		LinkDirect:     true,
		LinkIndirect:   true,
		EnableTraces:   true,
		TraceThreshold: 50,
		IBLTableBits:   8,
		IBL:            IBLOpenAdaptive,
		FlagsElision:   true,
	}
}

// TableOneLadder returns the five configurations of the paper's Table 1 in
// order: emulation, +bb cache, +direct links, +indirect links, +traces.
func TableOneLadder() []Options {
	emu := Default()
	emu.Mode = ModeEmulate

	cache := Default()
	cache.LinkDirect, cache.LinkIndirect, cache.EnableTraces = false, false, false

	direct := Default()
	direct.LinkIndirect, direct.EnableTraces = false, false

	indirect := Default()
	indirect.EnableTraces = false

	return []Options{emu, cache, direct, indirect, Default()}
}
