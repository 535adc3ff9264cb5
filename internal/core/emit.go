package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/ia32"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/obs"
)

// stubTailLen is the size of a stub's unlinked tail:
//
//	mov [spillEAX], eax   ; 5 bytes (A3 moffs form)
//	mov eax, <linkstub>   ; 5 bytes
//	jmp exitTrap          ; 5 bytes
const stubTailLen = 15

// popfdByte is the stub prefix of a flags-pushed exit: popfd, restoring the
// application eflags the inline target check pushed.
const popfdByte = 0x9D

// exitInfo is the per-exit working state during emission. Offsets are
// from the fragment start.
type exitInfo struct {
	cti       *instr.Instr
	stub      *instr.List // copy of the client's custom stub code, or nil
	stubOff   int         // the stub
	codeOff   int         // the client code, after any popfd
	prefixLen int         // popfd and client code ahead of the tail
}

// iblTargetPrefix is one form of the IBL target prefix, encoded once per
// thread (see buildIBLPrefixes): its bytes depend only on the thread's ECX
// spill slot.
type iblTargetPrefix struct {
	code   []byte
	movOff uint32 // offset of the final mov ecx, [spillECX]
}

// isExitCTI reports whether an instruction in a mangled fragment list is a
// fragment exit. Control transfers with intra-list targets and CTIs the
// runtime marked internal (or that target trap addresses, e.g. clean calls)
// stay inside the fragment.
func isExitCTI(i *instr.Instr) bool {
	if i.IsBundle() || !i.IsCTI() {
		return false
	}
	if i.TargetInstr() != nil || i.ExitClass() == ClassInternal {
		return false
	}
	if i.Opcode().IsIndirect() {
		// Raw indirect CTIs must have been mangled away before
		// emission.
		panic("core: unmangled indirect CTI at emission: " + i.String())
	}
	if tgt, ok := i.Target(); ok && tgt >= machine.TrapBase {
		return false // clean-call and other trap transfers
	}
	return true
}

// emit lays out a mangled fragment list plus its exit stubs in the code
// cache, creates the bookkeeping records, and registers the fragment. The
// bytes are built in one pass over per-thread scratch (see DESIGN.md,
// "Fragment emission") and written to the cache at once.
func (r *RIO) emit(ctx *Context, kind FragmentKind, tag machine.Addr, list *instr.List) *Fragment {
	// The scratch is off the context for the build, so a build that
	// panics leaves nothing reachable from it.
	code, exits := ctx.emitCode[:0], ctx.emitExits[:0]
	ctx.emitCode, ctx.emitExits = nil, nil

	// Collect exits in list order.
	for i := list.First(); i != nil; i = i.Next() {
		if !isExitCTI(i) {
			continue
		}
		ei := exitInfo{cti: i}
		if custom := i.ExitStub(); custom != nil {
			ei.stub = instr.NewList()
			custom.Instrs(func(ci *instr.Instr) bool {
				ei.stub.Append(ci.Copy())
				return true
			})
		}
		exits = append(exits, ei)
	}

	// The IBL target prefix: the open-address lookup routine's hit path
	// jumps here with the application eflags still pushed and ECX still
	// spilled. A head that provably rewrites all six arithmetic flags gets
	// the elided form — a flag-neutral lea discards the pushed eflags word
	// instead of a popfd (the paper's Section 4.4).
	var prefix *iblTargetPrefix
	if r.usesIBLPrefix() {
		// Elision is a HealthFull/NoTraces privilege: a thread degraded to
		// HealthFixedIBL has had optimization implicated in its failures
		// and emits the conservative popfd form until it re-attaches.
		elide := r.Opts.FlagsElision && ctx.health < HealthFixedIBL &&
			(r.Opts.Mutation == MutateFlagsDead || flagsDeadFrom(list.First(), nil))
		prefix = &ctx.iblPrefix[0]
		if elide {
			prefix = &ctx.iblPrefix[1]
			statInc(&r.Stats.FlagsElisions)
		}
		code = append(code, prefix.code...)
	}
	prefixLen := len(code)

	// The body follows the prefix, and the stubs follow the body: each
	// stub's prefix (popfd, then client stub code) ahead of a tail filled
	// in once the addresses are known.
	code, err := list.Layout(code)
	if err != nil {
		panic(fmt.Sprintf("core: encoding fragment %#x: %v", tag, err))
	}
	bodyLen := len(code) - prefixLen
	for n := range exits {
		ei := &exits[n]
		ei.stubOff = len(code)
		if ei.cti.ExitClass()&ClassFlagsPushedBit != 0 {
			code = append(code, popfdByte)
		}
		ei.codeOff = len(code)
		if ei.stub != nil {
			if code, err = ei.stub.Layout(code); err != nil {
				panic(fmt.Sprintf("core: encoding stub prefix: %v", err))
			}
		}
		ei.prefixLen = len(code) - ei.stubOff
		code = append(code, make([]byte, stubTailLen)...)
	}
	total := len(code)

	// Everything from the allocation to the registration is one
	// transaction: a failure anywhere inside rolls the reserved bytes back
	// to the allocator and the records back out of the lookup structures.
	txn := r.txnMark()
	stubMark := len(r.linkstubs)
	base := ctx.allocCache(kind, total)
	reg := ctx.region(kind)
	allocEnd := reg.next
	r.txnPush(func() {
		// Return the just-reserved bytes if they are still on top of the
		// bump allocator, and discard the exit records created below.
		if reg.next == allocEnd {
			reg.next = base
		}
		r.linkstubs = r.linkstubs[:stubMark]
	})

	f := &Fragment{
		Tag:       tag,
		Kind:      kind,
		Entry:     base,
		Size:      total,
		BodyLen:   bodyLen,
		PrefixLen: prefixLen,
		ctx:       ctx,
	}

	bodyAt := base + machine.Addr(prefixLen)
	if err := list.Relocate(code[prefixLen:prefixLen+bodyLen], uint32(bodyAt)); err != nil {
		panic(fmt.Sprintf("core: encoding fragment %#x: %v", tag, err))
	}

	// Build the Exit records, wire each exit CTI's initial target and
	// write each stub.
	if len(exits) > 0 {
		recs := make([]Exit, len(exits))
		f.Exits = make([]*Exit, len(exits))
		for n := range exits {
			ei, e := &exits[n], &recs[n]
			class := ei.cti.ExitClass()
			*e = Exit{
				Owner: f,
				Index: n,
				// An exit routes through its stub even when linked only
				// if the client asked for it or the runtime needs the
				// stub's popfd (flags-pushed indirect exits). Plain
				// custom stub code runs only while the exit is unlinked,
				// per the paper's Section 3.2.
				viaStub:      ei.cti.AlwaysViaStub() || class&ClassFlagsPushedBit != 0,
				stubAddr:     base + machine.Addr(ei.stubOff),
				class:        class,
				clientStub:   ei.cti.ExitStub(),
				clientAlways: ei.cti.AlwaysViaStub(),
				id:           uint32(len(r.linkstubs)),
			}
			e.stubTailAddr = e.stubAddr + machine.Addr(ei.prefixLen)
			if bt, ind := ClassBranchType(class); ind {
				e.Kind = ExitIndirect
				e.BranchType = bt
			} else {
				e.Kind = ExitDirect
				tgt, ok := ei.cti.Target()
				if !ok {
					panic("core: direct exit without target: " + ei.cti.String())
				}
				e.TargetTag = machine.Addr(tgt)
			}
			r.linkstubs = append(r.linkstubs, e)
			f.Exits[n] = e

			// Initial CTI target: through the stub, except that
			// non-via-stub indirect exits start wired to the lookup
			// routine when indirect linking is on. The layout put the
			// branch's rel32 displacement at its end.
			ctiOff, ctiLen := ei.cti.Extent()
			e.ctiAddr = bodyAt + machine.Addr(ctiOff)
			e.ctiLen = int(ctiLen)
			ctiTarget := e.stubAddr
			if e.Kind == ExitIndirect && !e.viaStub && r.Opts.LinkIndirect {
				ctiTarget = ctx.iblEntry[e.BranchType]
				e.state = stateLinkedIBL
			}
			end := prefixLen + int(ctiOff+ctiLen)
			binary.LittleEndian.PutUint32(code[end-4:end], uint32(ctiTarget-e.ctiAddr-machine.Addr(ctiLen)))

			// The stub: its client code relocated after the popfd, then
			// the unlinked tail, or the tail jump of a via-stub indirect
			// exit linked to the lookup routine.
			if ei.stub != nil {
				at := uint32(base) + uint32(ei.codeOff)
				if err := ei.stub.Relocate(code[ei.codeOff:ei.stubOff+ei.prefixLen], at); err != nil {
					panic(fmt.Sprintf("core: encoding stub prefix: %v", err))
				}
			}
			tail := code[ei.stubOff+ei.prefixLen:][:stubTailLen]
			r.putTailUnlinked(tail, e)
			if e.Kind == ExitIndirect && e.viaStub && r.Opts.LinkIndirect {
				putJmp(tail, e.stubTailAddr, ctx.iblEntry[e.BranchType])
				e.state = stateLinkedIBL
			}
		}
	}
	r.M.Mem.WriteBytes(base, code)
	f.xl8 = buildXl8(list, exits, f, prefix, prefixLen)

	clear(exits) // keep no pointer into this build
	ctx.emitCode, ctx.emitExits = code[:0], exits[:0]

	// Mid-emit chaos point: cache bytes allocated and fully written,
	// nothing registered yet.
	r.chaosPoint(chaos.SiteEmit, tag)

	r.chargeShared()
	prev := ctx.frags[tag]
	r.txnPush(func() {
		// Undo noteFragment, then register; removeResident finds nothing
		// when the failure came before noteFragment.
		if reg.removeResident(f) {
			reg.addLive(-f.alignedSize())
		}
		ctx.undoRegister(f, prev)
	})
	ctx.register(f)
	ctx.noteFragment(f)
	r.noteEmitProfile(ctx, f)
	r.event(ctx.thread.ID, obs.Event{
		Type: obs.EvEmit, Tag: uint32(tag), Addr: uint32(base),
		Kind: kind.String(), Size: total,
	})
	r.spanCacheCounter(ctx)
	r.txnCommit(txn)
	return f
}

// buildXl8 assembles the fault-translation table for a freshly encoded
// fragment from the per-instruction layout offsets and the annotations the
// manglers attached:
//
//   - the IBL target prefix translates to the fragment's tag, with ECX
//     spilled throughout and the eflags pushed until its popfd/lea has run;
//   - a Level 0 bundle is an identity run: copied application bytes
//     translate to their own PC plus the in-run delta;
//   - a synthetic instruction carries an explicit SetXl8 annotation naming
//     the control transfer it stands in for and the scratch state in play;
//   - a decoded application instruction translates to its own PC;
//   - anything else (client-inserted meta code) is untranslatable — a fault
//     there has no application equivalent and kills the thread.
//
// Stub regions are covered too: a direct exit's stub corresponds to the
// branch-target tag (the branch has, in application terms, already
// happened); an indirect exit's stub inherits the exit CTI's annotation.
// The stub tail spills EAX in its first instruction, so the rest of the
// tail adds Xl8RestoreEAX, and a flags-restoring prefix keeps the
// Xl8FlagsPushed bit until its popfd has run.
func buildXl8(list *instr.List, exits []exitInfo, f *Fragment, prefix *iblTargetPrefix, prefixLen int) []xl8Entry {
	table := make([]xl8Entry, 0, 2+list.Len()+3*len(exits))
	if prefix != nil {
		table = append(table,
			xl8Entry{off: 0, app: f.Tag, scratch: instr.Xl8RestoreECX | instr.Xl8FlagsPushed},
			xl8Entry{off: prefix.movOff, app: f.Tag, scratch: instr.Xl8RestoreECX})
	}
	for i := list.First(); i != nil; i = i.Next() {
		off, _ := i.Extent()
		off += uint32(prefixLen) // offsets are list-relative; the body follows the prefix
		switch {
		case i.IsBundle():
			table = append(table, xl8Entry{off: off, app: i.PC(), ident: true})
		default:
			if pc, scr := i.Xl8(); pc != 0 {
				table = append(table, xl8Entry{off: off, app: machine.Addr(pc), scratch: scr})
			} else if i.PC() != 0 {
				table = append(table, xl8Entry{off: off, app: i.PC()})
			} else {
				table = append(table, xl8Entry{off: off}) // untranslatable
			}
		}
	}

	for n := range exits {
		ei := &exits[n]
		e := f.Exits[n]
		var app machine.Addr
		var scr uint8
		if e.Kind == ExitDirect {
			app = e.TargetTag
		} else if pc, s := ei.cti.Xl8(); pc != 0 {
			app, scr = machine.Addr(pc), s
		}
		off := uint32(ei.stubOff)
		if ei.prefixLen > 0 {
			// Prefix (popfd and/or client stub code): scratch state is
			// still that of the exit branch itself.
			table = append(table, xl8Entry{off: off, app: app, scratch: scr})
			off += uint32(ei.prefixLen)
			scr &^= instr.Xl8FlagsPushed // popfd has restored the eflags
		}
		table = append(table, xl8Entry{off: off, app: app, scratch: scr})
		table = append(table, xl8Entry{off: off + 5, app: app, scratch: scr | instr.Xl8RestoreEAX})
	}
	return table
}

// buildIBLPrefixes encodes the two forms of the IBL target prefix for the
// thread: the code the open-address lookup routine's hit path jumps to,
// completing the restore the routine left unfinished (eflags pushed, ECX
// spilled).
//
//	popfd | lea esp, [esp+4]   ; restore or discard the pushed eflags
//	mov   ecx, [spillECX]      ; restore the application ECX
//	<body>
//
// The elided form (index 1) uses lea — which reads and writes no flags —
// for a fragment whose head has been proven to rewrite all six arithmetic
// flags before reading any (flagsDeadFrom), so the application values are
// dead. Neither form has a PC-relative operand, so every fragment copies
// the same bytes.
func buildIBLPrefixes(ctx *Context) {
	esp := ia32.RegOp(ia32.ESP)
	restores := [2]*instr.Instr{
		instr.CreatePopfd(),
		instr.CreateLea(esp, ia32.MemOp(ia32.ESP, ia32.RegNone, 0, 4, 4)),
	}
	for n, restore := range restores {
		mov := instr.CreateMov(ia32.RegOp(ia32.ECX), ctx.spillOp(offSpillECX))
		code, err := instr.NewList(restore, mov).Encode(0)
		if err != nil {
			panic(fmt.Sprintf("core: encoding IBL prefix: %v", err))
		}
		off, _ := mov.Extent()
		ctx.iblPrefix[n] = iblTargetPrefix{code: code, movOff: off}
	}
}

// putTailUnlinked fills b (stubTailLen bytes) with the spill/identify/trap
// tail of e's stub.
func (r *RIO) putTailUnlinked(b []byte, e *Exit) {
	b[0] = 0xA3 // mov [spillEAX], eax
	binary.LittleEndian.PutUint32(b[1:], uint32(e.Owner.ctx.spillAddr(offSpillEAX)))
	b[5] = 0xB8 // mov eax, id
	binary.LittleEndian.PutUint32(b[6:], e.id)
	putJmp(b[10:], e.stubTailAddr+10, r.exitTrap) // jmp exitTrap
}

// putJmp fills b with a direct jump, placed at address at, to target.
func putJmp(b []byte, at, target machine.Addr) {
	b[0] = 0xE9
	binary.LittleEndian.PutUint32(b[1:5], uint32(target-at-5))
}

// writeTailUnlinked writes the spill/identify/trap tail of e's stub.
func (r *RIO) writeTailUnlinked(e *Exit) {
	var b [stubTailLen]byte
	r.putTailUnlinked(b[:], e)
	r.M.Mem.WriteBytes(e.stubTailAddr, b[:])
}

// writeTailJmp overwrites the stub tail with a direct jump to target (the
// linked form of a via-stub exit).
func (r *RIO) writeTailJmp(e *Exit, target machine.Addr) {
	var b [5]byte
	putJmp(b[:], e.stubTailAddr, target)
	r.M.Mem.WriteBytes(e.stubTailAddr, b[:])
}

// patchCTI repoints e's exit branch at an absolute cache address.
func (r *RIO) patchCTI(e *Exit, target machine.Addr) {
	rel := int32(target) - int32(e.ctiAddr) - int32(e.ctiLen)
	r.M.Mem.Write32(e.ctiAddr+machine.Addr(e.ctiLen)-4, uint32(rel))
}

// chargeShared pays the cross-thread synchronization cost of changing a
// shared code cache (no cost with thread-private caches).
func (r *RIO) chargeShared() {
	if r.Opts.SharedCache {
		r.M.Charge(costSync)
	}
}

// link wires exit e straight to fragment f, bypassing the dispatcher.
func (r *RIO) link(e *Exit, f *Fragment) {
	r.chaosPoint(chaos.SiteLink, e.Owner.Tag)
	if f.dead {
		// The target was invalidated (e.g. stale source code detected
		// while this exit was temporarily unlinked for trace
		// selection): leave the exit on its dispatcher path.
		r.unlink(e)
		return
	}
	if e.state == stateLinkedFrag && e.linkedTo == f {
		return
	}
	r.chargeShared()
	if e.state != stateUnlinked {
		r.unlink(e)
	}
	if e.viaStub {
		r.writeTailJmp(e, f.body())
	} else {
		r.patchCTI(e, f.body())
	}
	e.state = stateLinkedFrag
	e.linkedTo = f
	f.addInLink(e)
	statInc(&r.Stats.Links)
	r.event(e.Owner.ctx.thread.ID, obs.Event{
		Type: obs.EvLink, Tag: uint32(e.Owner.Tag), Addr: uint32(e.ctiAddr),
		Target: uint32(f.Tag), Kind: f.Kind.String(),
	})
}

// linkIBL wires an indirect exit to the thread's lookup routine.
func (r *RIO) linkIBL(e *Exit) {
	if e.state == stateLinkedIBL {
		return
	}
	if e.state != stateUnlinked {
		r.unlink(e)
	}
	entry := e.Owner.ctx.iblEntry[e.BranchType]
	if e.viaStub {
		r.writeTailJmp(e, entry)
	} else {
		r.patchCTI(e, entry)
	}
	e.state = stateLinkedIBL
}

// unlink restores exit e to its dispatcher-bound stub path.
func (r *RIO) unlink(e *Exit) {
	r.chaosPoint(chaos.SiteUnlink, e.Owner.Tag)
	if e.state != stateUnlinked {
		r.chargeShared()
	}
	switch e.state {
	case stateUnlinked:
		return
	case stateLinkedFrag:
		delete(e.linkedTo.inLinks, e)
		e.linkedTo = nil
	}
	if e.viaStub {
		r.writeTailUnlinked(e)
	} else {
		r.patchCTI(e, e.stubAddr)
	}
	e.state = stateUnlinked
	statInc(&r.Stats.Unlinks)
	r.event(e.Owner.ctx.thread.ID, obs.Event{
		Type: obs.EvUnlink, Tag: uint32(e.Owner.Tag), Addr: uint32(e.ctiAddr),
	})
}

// unlinkOutgoing unlinks every exit of f, remembering nothing; callers that
// need to restore the previous wiring should capture it first with
// linkSnapshot.
func (r *RIO) unlinkOutgoing(f *Fragment) {
	for _, e := range f.Exits {
		r.unlink(e)
	}
}

// linkSnapshot captures the current wiring of f's exits.
type linkSnapshot struct {
	states  []linkState
	targets []*Fragment
}

func snapshotLinks(f *Fragment) linkSnapshot {
	s := linkSnapshot{
		states:  make([]linkState, len(f.Exits)),
		targets: make([]*Fragment, len(f.Exits)),
	}
	for i, e := range f.Exits {
		s.states[i] = e.state
		s.targets[i] = e.linkedTo
	}
	return s
}

// restoreLinks rewires f's exits to a previously captured snapshot.
func (r *RIO) restoreLinks(f *Fragment, s linkSnapshot) {
	for i, e := range f.Exits {
		switch s.states[i] {
		case stateLinkedFrag:
			r.link(e, s.targets[i])
		case stateLinkedIBL:
			r.linkIBL(e)
		default:
			r.unlink(e)
		}
	}
}

// redirectInLinks moves every incoming link of old to point at nu.
func (r *RIO) redirectInLinks(old, nu *Fragment) {
	for e := range old.inLinks {
		delete(old.inLinks, e)
		e.linkedTo = nil
		e.state = stateUnlinked // bookkeeping only; bytes patched next
		if e.viaStub {
			r.writeTailJmp(e, nu.body())
		} else {
			r.patchCTI(e, nu.body())
		}
		e.state = stateLinkedFrag
		e.linkedTo = nu
		nu.addInLink(e)
	}
}
