package core

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Transactional recovery and the degradation ladder.
//
// Every fragile boundary in the runtime — block build, mid-emit, trace
// extension, link/unlink, eviction scrub, IBL insert/resize/re-emit, fault
// translation, signal delivery — is a chaos point: under an injection
// schedule (Options.Chaos) it may panic mid-operation. The mutations those
// operations make to the cache data structures are transactional: each
// boundary pushes undo (or roll-forward repair) closures onto the runtime's
// txn log as it goes and commits them away on success. A panic unwinds to
// the dispatcher, which rolls the log back, audits the result with
// CheckCacheInvariants, and — if the audit passes — resumes the thread
// through the degradation ladder instead of detaching it for good:
//
//	HealthFull      everything enabled
//	HealthNoTraces  no new trace creation
//	HealthFixedIBL  no IBL growth, no flag-save elision
//	HealthInterpret no cache entry at all: bounded native windows
//
// Repeated failures walk a thread down the ladder (and quarantine the tags
// involved); a clean cool-down — reattachCooldown dispatch entries without a
// failure — walks it back up, re-attaching it to full service. Only a failed
// audit still detaches: rollback that cannot restore the invariants means
// the structures cannot be trusted.

// HealthLevel is a thread's position on the degradation ladder.
type HealthLevel uint8

// The ladder, least to most degraded.
const (
	HealthFull HealthLevel = iota
	HealthNoTraces
	HealthFixedIBL
	HealthInterpret
)

func (h HealthLevel) String() string {
	switch h {
	case HealthFull:
		return "full"
	case HealthNoTraces:
		return "no-traces"
	case HealthFixedIBL:
		return "fixed-ibl"
	case HealthInterpret:
		return "interpret"
	}
	return fmt.Sprintf("health-%d", uint8(h))
}

// quarRecord tracks one tag's failure history on a thread. Until the
// quarantine threshold a failing tag only backs off (no cache entry until
// the thread's dispatch counter passes until, exponential in the failure
// count); past it the tag is barred from the cache permanently.
type quarRecord struct {
	failures    int
	until       uint64
	quarantined bool
}

// internalFault is the panic payload of a fired chaos point.
type internalFault struct {
	site chaos.Site
	tag  machine.Addr
}

func (e *internalFault) Error() string {
	return fmt.Sprintf("injected internal fault at %s (tag %#x)", e.site, e.tag)
}

// chaosPoint consults the injection schedule at one named site and panics if
// a trigger fires. Injection is suppressed during recovery itself (rollback
// must run to completion), under an explicit suppression bracket (wholesale
// operations with no incremental repair), and outside the dispatcher —
// except fault translation, which the machine invokes directly and which has
// its own snapshot-retry transaction.
func (r *RIO) chaosPoint(site chaos.Site, tag machine.Addr) {
	inj := r.Opts.Chaos
	if inj == nil || r.inRecovery || r.chaosSuppress > 0 {
		return
	}
	if r.inDispatch == 0 && site != chaos.SiteFaultXl8 {
		return
	}
	if inj.Fire(site) {
		panic(&internalFault{site: site, tag: tag})
	}
}

// txnMark opens a transaction scope: the caller commits (or rollback
// truncates) back to the returned position.
func (r *RIO) txnMark() int { return len(r.txnLog) }

// txnPush records one undo/repair closure for the current operation.
func (r *RIO) txnPush(fn func()) { r.txnLog = append(r.txnLog, fn) }

// txnCommit discards the closures pushed since mark: the operation
// completed and its mutations stand.
func (r *RIO) txnCommit(mark int) { r.txnLog = r.txnLog[:mark] }

// txnRollback runs every logged closure in reverse push order and empties
// the log. Each closure runs under its own recover: a repair that itself
// panics is reported as a rollback failure (the caller's audit then
// detaches) instead of tearing down the process.
func (r *RIO) txnRollback() (err error) {
	for i := len(r.txnLog) - 1; i >= 0; i-- {
		fn := r.txnLog[i]
		func() {
			defer func() {
				if p := recover(); p != nil && err == nil {
					err = fmt.Errorf("rollback step %d panicked: %v", i, p)
				}
			}()
			fn()
		}()
	}
	r.txnLog = r.txnLog[:0]
	return err
}

// recoverDispatch is the dispatcher's panic handler: roll back the
// in-flight mutations, audit the cache invariants, and either resume the
// thread through the ladder (clean audit) or detach it (the rollback could
// not restore a trustworthy state).
func (r *RIO) recoverDispatch(ctx *Context, tag machine.Addr, cause any) (machine.TrapAction, error) {
	r.inRecovery = true
	defer func() { r.inRecovery = false }()

	failure := r.txnRollback()

	// Clear the dispatch-transient state a partial pass may have left:
	// restore the trace selector's unlinked fragment and abandon the
	// selection, and forget the exit record (its owner may be mid-death).
	ctx.selecting = false
	ctx.selTags = ctx.selTags[:0]
	ctx.lastExit = nil
	ctx.fromIBLMiss = false
	if f := ctx.selUnlinked; f != nil {
		ctx.selUnlinked = nil
		func() {
			defer func() {
				if p := recover(); p != nil && failure == nil {
					failure = fmt.Errorf("restoring selection links: %v", p)
				}
			}()
			r.restoreLinks(f, ctx.selSnapshot)
		}()
	}

	if failure == nil {
		func() {
			defer func() {
				if p := recover(); p != nil && failure == nil {
					failure = fmt.Errorf("invariant audit panicked: %v", p)
				}
			}()
			failure = ctx.CheckCacheInvariants()
		}()
	}
	if failure != nil {
		statInc(&r.Stats.RecoveryAuditFailures)
		return r.detach(ctx, tag, fmt.Sprintf("%v (rollback audit: %v)", cause, failure))
	}
	statInc(&r.Stats.Recoveries)
	r.event(ctx.thread.ID, obs.Event{
		Type: obs.EvRecover, Tag: uint32(tag), Note: fmt.Sprint(cause),
	})
	r.noteFailure(ctx, tag, fmt.Sprint(cause))
	return r.nativeWindow(ctx, tag)
}

// noteFailure records a recovered failure against tag and the thread:
// backoff (exponential in the tag's failure count) or quarantine for the
// tag, and a ladder step down for the thread once the retry budget for its
// current level is spent.
func (r *RIO) noteFailure(ctx *Context, tag machine.Addr, cause string) {
	if ctx.quar == nil {
		ctx.quar = map[machine.Addr]*quarRecord{}
	}
	q := ctx.quar[tag]
	if q == nil {
		q = &quarRecord{}
		ctx.quar[tag] = q
	}
	q.failures++
	if !q.quarantined && q.failures >= quarantineThreshold {
		q.quarantined = true
		statInc(&r.Stats.Quarantined)
		r.event(ctx.thread.ID, obs.Event{Type: obs.EvQuarantine, Tag: uint32(tag), Note: cause})
	} else if !q.quarantined {
		shift := uint(q.failures - 1)
		if shift > 16 {
			shift = 16
		}
		q.until = ctx.dispatchCount + recoveryBackoff<<shift
	}
	// Every recovered failure bars the tag (backoff or permanent
	// quarantine); the watchdog counts a flap cycle when the bar recurs
	// after a reattach forgave it — the tag keeps being forgiven and
	// re-barred.
	if r.wd != nil {
		r.fireAnomalies(ctx, r.wd.NoteQuarantine(r.M.Now(), uint32(tag)))
	}

	ctx.failStreak++
	ctx.lastFailEntry = ctx.dispatchCount
	if ctx.failStreak >= recoveryRetryBudget && ctx.health < HealthInterpret {
		old := ctx.health
		ctx.health++
		ctx.failStreak = 0
		statMax(&r.Stats.DegradeLevel, uint64(ctx.health))
		r.event(ctx.thread.ID, obs.Event{
			Type: obs.EvDegrade, Tag: uint32(tag),
			Old: int(old), New: int(ctx.health), Note: cause,
		})
	}
}

// maybeStepUp walks the thread one rung back up the ladder after a clean
// cool-down (reattachCooldown dispatch entries without a failure). Reaching
// HealthFull is a re-attach: the thread is back in full service, its
// backed-off (non-quarantined) tags are forgiven, and clients are told.
func (r *RIO) maybeStepUp(ctx *Context, tag machine.Addr) {
	if ctx.health == HealthFull {
		return
	}
	if ctx.dispatchCount-ctx.lastFailEntry < reattachCooldown {
		return
	}
	old := ctx.health
	ctx.health--
	ctx.failStreak = 0
	ctx.lastFailEntry = ctx.dispatchCount // one cool-down per rung
	if ctx.health != HealthFull {
		return
	}
	statInc(&r.Stats.Reattaches)
	r.event(ctx.thread.ID, obs.Event{
		Type: obs.EvReattach, Tag: uint32(tag), Old: int(old), New: int(HealthFull),
	})
	if r.wd != nil {
		r.wd.NoteReattach(r.M.Now(), uint32(tag))
	}
	for t, q := range ctx.quar {
		if !q.quarantined {
			delete(ctx.quar, t)
		}
	}
	for _, cl := range r.Clients {
		if h, ok := cl.(ThreadReattachHook); ok {
			h.ThreadReattach(ctx, tag)
		}
	}
}

// tagBlocked reports whether tag may not enter the cache on this thread:
// permanently quarantined, or still inside its backoff interval.
func (c *Context) tagBlocked(tag machine.Addr) bool {
	if len(c.quar) == 0 {
		return false
	}
	q := c.quar[tag]
	if q == nil {
		return false
	}
	return q.quarantined || c.dispatchCount < q.until
}

// Health returns the thread's current degradation-ladder level.
func (c *Context) Health() HealthLevel { return c.health }

// nativeWindow runs the thread natively (no cache) for a bounded window of
// nativeWindowBudget instructions, after which the watch hook hands it
// back to the dispatcher. The application context is already native at
// every dispatch entry, so the hand-off is a plain EIP assignment.
func (r *RIO) nativeWindow(ctx *Context, tag machine.Addr) (machine.TrapAction, error) {
	statInc(&r.Stats.NativeWindows)
	ctx.selecting = false
	ctx.selTags = ctx.selTags[:0]
	ctx.lastExit = nil
	t := ctx.thread
	t.CPU.EIP = tag
	ctx.windowStartInstret = t.Instret
	ctx.windowActive = true
	t.ArmWatch(nativeWindowBudget)
	return machine.TrapContinue, nil
}

// onWatchExpire is the machine's watch hook: a native window has run its
// course. The thread is at a native application PC (the dispatcher disarms
// the watch on entry, so the watch can never expire inside cache or runtime
// code); stash it and route the thread through the window-end trap, whose
// handler re-enters the dispatcher.
func (r *RIO) onWatchExpire(t *machine.Thread) {
	ctx, ok := t.Local.(*Context)
	if !ok || ctx.detached {
		return
	}
	if t.CPU.EIP >= RuntimeBase {
		return // never redirect out of runtime code (defensive; see above)
	}
	ctx.windowResume = t.CPU.EIP
	t.CPU.EIP = r.windowTrap
}

// onWindowEnd is the trap a native window expires into: dispatch the PC the
// window was interrupted at.
func (r *RIO) onWindowEnd(t *machine.Thread) (machine.TrapAction, error) {
	ctx := r.ctxOf(t)
	ctx.lastExit = nil
	return r.dispatch(ctx, ctx.windowResume)
}

// reclaimDetached tears down a detached thread's cache state: every
// fragment dies (and its deletion event fires now — the thread will never
// reach another dispatcher safe point), the IBL table and region allocators
// are reset, and the translation registry is dropped. Best-effort: a detach
// can follow a failed rollback audit, so the structures may be arbitrarily
// corrupt — the thread runs natively regardless, and cache memory is never
// handed back to the application, so abandoning the teardown midway is
// safe.
func (r *RIO) reclaimDetached(ctx *Context) {
	r.chaosSuppress++
	defer func() { r.chaosSuppress-- }()
	if !r.Opts.SharedCache {
		func() {
			defer func() { recover() }() // see above: best-effort teardown
			for _, f := range ctx.frags {
				for cur := f; cur != nil; cur = cur.shadowedBy {
					ctx.killFragment(cur)
				}
			}
			clear(ctx.frags)
			clear(ctx.headCounter)
			clear(ctx.isHead)
			if r.Opts.LinkIndirect {
				ctx.clearIBLTable()
			}
			ctx.bb.reset()
			ctx.trace.reset()
			ctx.xl8Frags = ctx.xl8Frags[:0]
			ctx.selecting = false
			ctx.selUnlinked = nil
			ctx.lastExit = nil
		}()
	}
	func() {
		defer func() { recover() }()
		r.deliverDeleted(ctx)
	}()
}
