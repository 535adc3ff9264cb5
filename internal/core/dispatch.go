package core

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/ia32"
	"repro/internal/machine"
	"repro/internal/obs"
)

// onStart is the trap entered when a thread first starts under the runtime.
func (r *RIO) onStart(t *machine.Thread) (machine.TrapAction, error) {
	ctx := r.ctxOf(t)
	ctx.lastExit = nil
	return r.dispatch(ctx, ctx.startTag)
}

// onExit is the trap at the end of every exit stub: the context switch back
// to the runtime. The stub has saved EAX to its spill slot and loaded the
// linkstub id into EAX.
func (r *RIO) onExit(t *machine.Thread) (machine.TrapAction, error) {
	ctx := r.ctxOf(t)
	id := t.CPU.Reg(ia32.EAX)
	if id >= uint32(len(r.linkstubs)) {
		return machine.TrapHalt, fmt.Errorf("core: bogus linkstub id %d", id)
	}
	e := r.linkstubs[id]
	// Restore EAX from the stub's spill.
	t.CPU.SetReg(ia32.EAX, r.M.Mem.Read32(ctx.spillAddr(offSpillEAX)))

	var tag machine.Addr
	if e.Kind == ExitDirect {
		tag = e.TargetTag
	} else {
		// Indirect exit through the stub: ECX holds the target and the
		// application's ECX is in the spill slot.
		tag = t.CPU.Reg(ia32.ECX)
		t.CPU.SetReg(ia32.ECX, r.M.Mem.Read32(ctx.spillAddr(offSpillECX)))
	}
	ctx.lastExit = e
	return r.dispatch(ctx, tag)
}

// onIBLMiss is the trap at the miss path of the in-cache indirect-branch
// lookup routine: ECX holds the target, the application ECX is spilled,
// flags and EDX have already been restored.
func (r *RIO) onIBLMiss(t *machine.Thread) (machine.TrapAction, error) {
	ctx := r.ctxOf(t)
	tag := t.CPU.Reg(ia32.ECX)
	t.CPU.SetReg(ia32.ECX, r.M.Mem.Read32(ctx.spillAddr(offSpillECX)))
	ctx.lastExit = nil
	ctx.fromIBLMiss = true
	statInc(&r.Stats.IBLMisses)
	return r.dispatch(ctx, tag)
}

// onCleanCall services a clean call inserted into cache code: EAX holds the
// callback id (application EAX is spilled) and the return address is on the
// stack, pushed by the call instruction.
func (r *RIO) onCleanCall(t *machine.Thread) (machine.TrapAction, error) {
	ctx := r.ctxOf(t)
	id := t.CPU.Reg(ia32.EAX)
	if id >= uint32(len(r.cleanCalls)) {
		return machine.TrapHalt, fmt.Errorf("core: bogus clean call id %d", id)
	}
	// Pop the continuation address.
	sp := t.CPU.Reg(ia32.ESP)
	ret := r.M.Mem.Read32(sp)
	t.CPU.SetReg(ia32.ESP, sp+4)
	// Restore EAX so the callback sees the application context.
	t.CPU.SetReg(ia32.EAX, r.M.Mem.Read32(ctx.spillAddr(offSpillEAX)))

	statInc(&r.Stats.CleanCalls)
	prev := r.M.SetChargePhase(obs.PhaseContextSwitch)
	r.M.Charge(costCleanCall)
	r.cleanCalls[id](ctx)
	r.M.SetChargePhase(prev)

	t.CPU.EIP = ret
	return machine.TrapContinue, nil
}

// dispatch is the runtime's central loop step (Figure 1): given the next
// application target, find or build its fragment, maintain trace state,
// link the exit we came from, and re-enter the code cache.
//
// Any internal failure below — an injected chaos fault, undecodable code
// during fragment construction, an emit or cache-allocator panic, a
// violated invariant — is caught here and handed to the transactional
// recovery path (recover.go): the in-flight mutations are rolled back, the
// cache invariants audited, and the thread resumes through the degradation
// ladder — or detaches for good if the audit fails. The application context
// is already native at every dispatch entry, so either way the thread
// continues instead of crashing the process (graceful degradation, the
// robustness half of the paper's Section 3).
func (r *RIO) dispatch(ctx *Context, tag machine.Addr) (act machine.TrapAction, err error) {
	defer func() {
		if p := recover(); p != nil {
			act, err = r.recoverDispatch(ctx, tag, p)
		}
	}()
	// A dispatch entry cancels any native cool-down window in flight (a
	// fault handler can re-enter the dispatcher mid-window): the watch
	// must never expire while the thread is inside cache or runtime code.
	ctx.thread.DisarmWatch()
	r.noteWindowEnd(ctx)
	ctx.dispatchCount++
	r.inDispatch++
	defer func() { r.inDispatch-- }()
	if r.spans != nil {
		spanStart := r.M.Now()
		defer r.span(ctx.thread.ID, "dispatch", spanStart, nil)
	}
	r.maybeWatchdog(ctx)
	// The modeled dispatch cost is the context switch into the runtime;
	// the rest of the dispatcher's work charges as dispatch proper unless
	// a mechanism below (block build, trace build, eviction, translation)
	// brackets its own phase.
	prevPhase := r.M.SetChargePhase(obs.PhaseContextSwitch)
	defer r.M.SetChargePhase(prevPhase)
	statInc(&r.Stats.ContextSwitches)
	r.M.Charge(costDispatch)
	r.M.SetChargePhase(obs.PhaseDispatch)
	fromIBL := ctx.fromIBLMiss
	ctx.fromIBLMiss = false

	r.chaosPoint(chaos.SiteDispatch, tag)

	// Safe point: deliver deferred deletion events, sideline work and
	// signals.
	r.deliverDeleted(ctx)
	if len(ctx.sideline) > 0 {
		r.runSideline(ctx)
	}
	if len(ctx.pendingSignals) > 0 {
		tag = r.deliverSignal(ctx, tag)
	}

	// Restore the wiring of the fragment we single-stepped during trace
	// selection.
	if ctx.selUnlinked != nil {
		r.restoreLinks(ctx.selUnlinked, ctx.selSnapshot)
		ctx.selUnlinked = nil
	}

	// Degradation ladder: a clean stretch steps health back toward full
	// service; an interpret-only thread — and any quarantined or
	// backed-off tag — runs in bounded native windows instead of the
	// cache.
	r.maybeStepUp(ctx, tag)
	if ctx.health == HealthInterpret || ctx.tagBlocked(tag) {
		return r.nativeWindow(ctx, tag)
	}

	if ctx.selecting {
		if done := r.traceSelectionStep(ctx, tag); done {
			// Trace ended (and was built); fall through to normal
			// dispatch of tag.
		} else {
			// Continue selection: run tag's fragment unlinked.
			f := ctx.lookup(tag)
			if f == nil {
				f = r.buildBB(ctx, tag)
			}
			// Record the fragment before unlinking it so a failure
			// mid-unlink restores the wiring on recovery.
			ctx.selSnapshot = snapshotLinks(f)
			ctx.selUnlinked = f
			r.unlinkOutgoing(f)
			return r.enter(ctx, f)
		}
	}

	f := ctx.lookup(tag)
	if f == nil {
		f = r.buildBB(ctx, tag)
	}
	if fromIBL && f.prof != nil {
		f.prof.iblMisses++
	}

	if r.Opts.EnableTraces && r.Opts.Mode == ModeCache && ctx.health == HealthFull {
		r.noteTraceHead(ctx, tag, f)
		if ctx.isHead[tag] && f.Kind == KindBasicBlock {
			ctx.headCounter[tag]++
			statInc(&r.Stats.TraceHeadBumps)
			if ctx.headCounter[tag] >= r.Opts.TraceThreshold {
				// Hot: enter trace generation mode at this head.
				ctx.selecting = true
				ctx.selTags = ctx.selTags[:0]
				ctx.selTags = append(ctx.selTags, tag)
				ctx.selSnapshot = snapshotLinks(f)
				ctx.selUnlinked = f
				r.unlinkOutgoing(f)
				delete(ctx.headCounter, tag)
				return r.enter(ctx, f)
			}
		}
	}

	// A tag that rebuilt and dispatched cleanly sheds its backoff record.
	if len(ctx.quar) > 0 {
		if q := ctx.quar[tag]; q != nil && !q.quarantined {
			delete(ctx.quar, tag)
		}
	}

	// Link the exit we arrived through, unless the target is a trace head
	// (heads stay unlinked so the dispatcher can count their executions).
	if e := ctx.lastExit; e != nil && e.Kind == ExitDirect && r.Opts.LinkDirect &&
		!(r.Opts.EnableTraces && ctx.isHead[tag] && f.Kind == KindBasicBlock) {
		r.link(e, f)
	}

	return r.enter(ctx, f)
}

// noteTraceHead applies the NET rule: targets of backward direct branches
// and targets of trace exits become trace heads (plus any client-marked
// tags, handled by MarkTraceHead).
func (r *RIO) noteTraceHead(ctx *Context, tag machine.Addr, f *Fragment) {
	if ctx.isHead[tag] || f.Kind == KindTrace {
		return
	}
	e := ctx.lastExit
	if e == nil {
		return
	}
	if e.Kind == ExitDirect && tag <= e.Owner.Tag {
		ctx.isHead[tag] = true // backward branch target
	} else if e.Owner.Kind == KindTrace {
		ctx.isHead[tag] = true // trace exit target
	}
}

// enter re-enters the code cache at fragment f.
func (r *RIO) enter(ctx *Context, f *Fragment) (machine.TrapAction, error) {
	if f.prof != nil {
		// Dispatcher-mediated entry; link- and IBL-mediated ones are
		// observed by the machine as code-region transitions.
		r.M.FragEntered(f.prof.fid)
	}
	ctx.thread.CPU.EIP = f.body()
	ctx.lastExit = nil
	return machine.TrapContinue, nil
}

// deliverDeleted fires deferred fragment-deleted, fragment-evicted and
// cache-resized events (the safe point of the replacement scheme). Evicted
// fragments get both events: deleted keeps client data structures
// consistent, evicted tells capacity-aware clients why.
func (r *RIO) deliverDeleted(ctx *Context) {
	if len(ctx.pendingDeleted) > 0 {
		dead := ctx.pendingDeleted
		ctx.pendingDeleted = nil
		for _, f := range dead {
			statInc(&r.Stats.FragmentsDeleted)
			if f.Kind == KindTrace {
				statInc(&r.Stats.FragmentsDeletedTrace)
			} else {
				statInc(&r.Stats.FragmentsDeletedBB)
			}
			for _, cl := range r.Clients {
				if h, ok := cl.(FragmentDeletedHook); ok {
					h.FragmentDeleted(ctx, f.Tag)
				}
			}
		}
	}
	if len(ctx.pendingEvicted) > 0 {
		ev := ctx.pendingEvicted
		ctx.pendingEvicted = nil
		for _, e := range ev {
			for _, cl := range r.Clients {
				if h, ok := cl.(FragmentEvictedHook); ok {
					h.FragmentEvicted(ctx, e.tag, e.kind)
				}
			}
		}
	}
	if len(ctx.pendingResized) > 0 {
		rs := ctx.pendingResized
		ctx.pendingResized = nil
		for _, e := range rs {
			for _, cl := range r.Clients {
				if h, ok := cl.(CacheResizedHook); ok {
					h.CacheResized(ctx, e.kind, e.oldBytes, e.newBytes)
				}
			}
		}
	}
	if len(ctx.pendingIBLResized) > 0 {
		rs := ctx.pendingIBLResized
		ctx.pendingIBLResized = nil
		for _, e := range rs {
			for _, cl := range r.Clients {
				if h, ok := cl.(IBLResizedHook); ok {
					h.IBLResized(ctx, e.oldEntries, e.newEntries)
				}
			}
		}
	}
}

// deliverSignal arranges for a queued signal handler to run now, at a safe
// point: the interrupted application PC (the tag we were about to dispatch)
// is pushed on the application stack and the handler becomes the dispatch
// target — the application-transparent equivalent of the machine's default
// delivery, but always with a coherent application context.
func (r *RIO) deliverSignal(ctx *Context, tag machine.Addr) machine.Addr {
	// The chaos point precedes the dequeue: a failure injected here rolls
	// back to "signal still queued", and the next dispatch entry delivers
	// it — delayed, never lost.
	r.chaosPoint(chaos.SiteSignal, tag)
	h := ctx.pendingSignals[0]
	ctx.pendingSignals = ctx.pendingSignals[1:]
	cpu := &ctx.thread.CPU
	sp := cpu.Reg(ia32.ESP) - 4
	cpu.SetReg(ia32.ESP, sp)
	r.M.Mem.Write32(sp, tag)
	r.event(ctx.thread.ID, obs.Event{Type: obs.EvSignal, Tag: uint32(tag), Target: uint32(h)})
	return h
}
