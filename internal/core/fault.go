package core

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/ia32"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Fault transparency (the paper's Section 3.3.4): a synchronous fault raised
// while the thread executes inside the code cache must be reported with the
// application's native context. The machine calls translateFault before the
// fault becomes observable; the runtime maps the cache PC back through the
// faulting fragment's translation table and folds any scratched state
// (spilled registers, pushed eflags) back into the CPU context.

// translateFault is installed as the machine's FaultTranslator. It returns
// false when the faulting PC lies in runtime-owned code with no application
// equivalent (IBL routines, client-inserted meta code), in which case the
// machine kills only the faulting thread.
func (r *RIO) translateFault(t *machine.Thread, f *machine.Fault) (ok bool) {
	if r.Opts.Mode == ModeEmulate {
		return true // application code runs in place; context is native
	}
	ctx, isCtx := t.Local.(*Context)
	if !isCtx || ctx.detached {
		return true
	}
	pc := t.CPU.EIP
	if pc < RuntimeBase {
		return true // already at a native application PC
	}
	frag := ctx.fragmentAt(pc)
	if frag == nil {
		return false // IBL routine, TLS, or reclaimed bytes: untranslatable
	}
	prev := r.M.SetChargePhase(obs.PhaseFaultTranslate)
	defer r.M.SetChargePhase(prev)
	if r.spans != nil {
		spanStart := r.M.Now()
		defer r.span(t.ID, "fault-xl8", spanStart, map[string]any{"tag": uint32(frag.Tag), "pc": uint32(pc)})
	}
	r.M.Charge(costFaultTranslate)
	app, scratch, found := frag.translate(pc)
	if !found {
		return false
	}
	// The state fold is transactional: the CPU context is value-snapshotted
	// first, so an injected failure mid-fold restores the snapshot and
	// retries once with injection disarmed — the translated fault context
	// is bit-identical either way. (A nested machine fault stays what it
	// always was: untranslatable, no retry.)
	saved := t.CPU
	err := r.foldScratch(t, frag, app, scratch)
	if _, isInj := err.(*internalFault); isInj {
		t.CPU = saved
		statInc(&r.Stats.Recoveries)
		r.event(t.ID, obs.Event{
			Type: obs.EvRecover, Tag: uint32(frag.Tag), Addr: uint32(pc),
			Note: "fault-translation retry",
		})
		func() {
			r.inRecovery = true
			defer func() { r.inRecovery = false }()
			err = r.foldScratch(t, frag, app, scratch)
		}()
	}
	if err != nil {
		return false
	}
	statInc(&r.Stats.FaultsTranslated)
	r.event(t.ID, obs.Event{
		Type: obs.EvFaultXl8, Tag: uint32(frag.Tag), Addr: uint32(pc),
		Target: uint32(app), Kind: frag.Kind.String(),
	})
	return true
}

// foldScratch folds a faulting fragment's scratch state (spilled registers,
// pushed eflags) back into the thread's CPU context and rewrites EIP to the
// translated application PC. Scratch-state reconstruction can itself touch
// protected memory (the flags word lives on the application stack); a nested
// fault is reported as an error — the caller treats the fault as
// untranslatable rather than recurse.
func (r *RIO) foldScratch(t *machine.Thread, frag *Fragment, app machine.Addr, scratch uint8) (err error) {
	defer func() {
		if p := recover(); p != nil {
			switch pv := p.(type) {
			case *machine.Fault:
				err = fmt.Errorf("nested fault folding scratch state: %v", pv)
			case *internalFault:
				err = pv
			default:
				panic(p)
			}
		}
	}()
	r.chaosPoint(chaos.SiteFaultXl8, frag.Tag)
	cpu := &t.CPU
	// The fragment's own context owns the spill slots its code was emitted
	// against (TLS is always thread-private, even under a shared cache).
	fctx := frag.ctx
	mem := r.M.Mem
	if scratch&instr.Xl8FlagsPushed != 0 {
		sp := cpu.Reg(ia32.ESP)
		cpu.Eflags = mem.Read32(sp)
		cpu.SetReg(ia32.ESP, sp+4)
	}
	if scratch&instr.Xl8RestoreEAX != 0 {
		cpu.SetReg(ia32.EAX, mem.Read32(fctx.spillAddr(offSpillEAX)))
	}
	if scratch&instr.Xl8RestoreECX != 0 {
		cpu.SetReg(ia32.ECX, mem.Read32(fctx.spillAddr(offSpillECX)))
	}
	cpu.EIP = app
	return nil
}

// interceptFaultDelivery is installed as the machine's FaultInterceptor: once
// a fault's handler frame is built and EIP points at the registered handler,
// the runtime re-routes execution through the dispatcher so the handler runs
// under the cache like any other application code. A detached thread keeps
// the machine's native transfer.
func (r *RIO) interceptFaultDelivery(t *machine.Thread, f *machine.Fault, handler machine.Addr) bool {
	if r.Opts.Mode == ModeEmulate {
		return false
	}
	ctx, isCtx := t.Local.(*Context)
	if !isCtx || ctx.detached {
		return false
	}
	ctx.lastExit = nil
	r.dispatch(ctx, handler)
	return true
}

// detach is the graceful-degradation path: an internal runtime failure
// (undecodable code during fragment construction, an emit or allocator
// panic, a violated cache invariant) must not take the application down.
// The thread's context is already native at every dispatch entry — the exit
// and IBL paths restore spilled registers before trapping — so recovery is
// simply to point EIP at the pending application tag and stop intercepting:
// the thread finishes under plain interpretation. Queued signals are handed
// back to the machine's default delivery so none is lost.
func (r *RIO) detach(ctx *Context, tag machine.Addr, cause any) (machine.TrapAction, error) {
	ctx.detached = true
	statInc(&r.Stats.Detaches)
	t := ctx.thread
	t.DisarmWatch() // no native-window bookkeeping for a detached thread
	reason := fmt.Sprint(cause)
	r.event(t.ID, obs.Event{Type: obs.EvDetach, Tag: uint32(tag), Note: reason})
	t.CPU.EIP = tag
	pending := ctx.pendingSignals
	ctx.pendingSignals = nil
	for _, h := range pending {
		r.M.QueueSignal(t, h)
	}
	// The thread never returns to the cache: reclaim its cache state now —
	// fragments die, deferred deletion events fire (there will be no later
	// safe point), the allocators and IBL table reset.
	r.reclaimDetached(ctx)
	for _, cl := range r.Clients {
		if h, hok := cl.(ThreadDetachHook); hok {
			h.ThreadDetach(ctx, tag, reason)
		}
	}
	return machine.TrapContinue, nil
}
