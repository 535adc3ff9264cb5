package core

import (
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

// exitInfo is the per-exit working state during emission.
type exitInfo struct {
	cti       *instr.Instr
	class     uint8
	prefix    *instr.List // stub prefix: runtime popfd and/or client stub code
	viaStub   bool
	stubOff   int // offset of the stub from the fragment start
	prefixLen int
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
// cache, creates the bookkeeping records, and registers the fragment.
func (r *RIO) emit(ctx *Context, kind FragmentKind, tag machine.Addr, list *instr.List) *Fragment {
	// Collect exits in list order.
	var exits []*exitInfo
	list.Instrs(func(i *instr.Instr) bool {
		if !isExitCTI(i) {
			return true
		}
		ei := &exitInfo{cti: i, class: i.ExitClass()}
		if i.ExitClass()&ClassFlagsPushedBit != 0 {
			ei.prefix = instr.NewList(instr.CreatePopfd())
		}
		if custom := i.ExitStub(); custom != nil {
			if ei.prefix == nil {
				ei.prefix = instr.NewList()
			}
			custom.Instrs(func(ci *instr.Instr) bool {
				ei.prefix.Append(ci.Copy())
				return true
			})
		}
		// An exit routes through its stub even when linked only if the
		// client asked for it or the runtime needs the stub's popfd
		// (flags-pushed indirect exits). Plain custom stub code runs
		// only while the exit is unlinked, per the paper's Section 3.2.
		ei.viaStub = i.AlwaysViaStub() || i.ExitClass()&ClassFlagsPushedBit != 0
		exits = append(exits, ei)
		return true
	})

	bodyLen, err := list.EncodedLen()
	if err != nil {
		panic(fmt.Sprintf("core: sizing fragment %#x: %v", tag, err))
	}

	// Build the IBL target prefix: the open-address lookup routine's hit
	// path jumps here with the application eflags still pushed and ECX
	// still spilled. A head that provably rewrites all six arithmetic
	// flags gets the elided form — a flag-neutral lea discards the pushed
	// eflags word instead of a popfd (the paper's Section 4.4).
	var iblPrefix *instr.List
	prefixLen := 0
	if r.usesIBLPrefix() {
		// Elision is a HealthFull/NoTraces privilege: a thread degraded to
		// HealthFixedIBL has had optimization implicated in its failures
		// and emits the conservative popfd form until it re-attaches.
		elide := r.Opts.FlagsElision && ctx.health < HealthFixedIBL &&
			(r.Opts.Mutation == MutateFlagsDead || flagsDeadFrom(list.First(), nil))
		iblPrefix = buildIBLPrefix(ctx, tag, elide)
		n, err := iblPrefix.EncodedLen()
		if err != nil {
			panic(fmt.Sprintf("core: sizing IBL prefix: %v", err))
		}
		prefixLen = n
		if elide {
			statInc(&r.Stats.FlagsElisions)
		}
	}

	// Assign stub offsets after the prefix and body.
	off := prefixLen + bodyLen
	for _, ei := range exits {
		ei.stubOff = off
		if ei.prefix != nil {
			n, err := ei.prefix.EncodedLen()
			if err != nil {
				panic(fmt.Sprintf("core: sizing stub prefix: %v", err))
			}
			ei.prefixLen = n
		}
		off += ei.prefixLen + stubTailLen
	}
	total := off

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
		inLinks:   map[*Exit]struct{}{},
		ctx:       ctx,
	}

	// Wire each exit CTI's initial target and build Exit records.
	for _, ei := range exits {
		e := &Exit{
			Owner:        f,
			Index:        len(f.Exits),
			viaStub:      ei.viaStub,
			stubAddr:     base + machine.Addr(ei.stubOff),
			class:        ei.class,
			clientStub:   ei.cti.ExitStub(),
			clientAlways: ei.cti.AlwaysViaStub(),
			id:           uint32(len(r.linkstubs)),
		}
		e.stubTailAddr = e.stubAddr + machine.Addr(ei.prefixLen)
		if bt, ind := ClassBranchType(ei.class); ind {
			e.Kind = ExitIndirect
			e.BranchType = bt
		} else {
			e.Kind = ExitDirect
			tgt, ok := ei.cti.Target()
			if !ok {
				panic("core: direct exit without target: " + ei.cti.String())
			}
			e.TargetTag = tgt
		}
		r.linkstubs = append(r.linkstubs, e)
		f.Exits = append(f.Exits, e)

		// Initial CTI target: through the stub, except that
		// non-via-stub indirect exits start wired to the lookup routine
		// when indirect linking is on.
		ctiTarget := e.stubAddr
		if e.Kind == ExitIndirect && !e.viaStub && r.Opts.LinkIndirect {
			ctiTarget = ctx.iblEntry[e.BranchType]
			e.state = stateLinkedIBL
		}
		ei.cti.SetTarget(ctiTarget)
	}

	// Encode the IBL prefix at the fragment base.
	var prefixXl8 []xl8Entry
	if iblPrefix != nil {
		pb, poffs, err := iblPrefix.EncodeWithOffsets(base)
		if err != nil {
			panic(fmt.Sprintf("core: encoding IBL prefix: %v", err))
		}
		if len(pb) != prefixLen {
			panic("core: IBL prefix size changed between sizing and encoding")
		}
		r.M.Mem.WriteBytes(base, pb)
		// A fault inside the prefix reports the branch-target tag with the
		// scratch state each prefix instruction annotated (eflags pushed
		// until the popfd/lea runs, ECX spilled until the final mov).
		iblPrefix.Instrs(func(i *instr.Instr) bool {
			pc, scr := i.Xl8()
			prefixXl8 = append(prefixXl8,
				xl8Entry{off: poffs[i], app: machine.Addr(pc), scratch: scr})
			return true
		})
	}

	// Encode the body after the prefix.
	body, offs, err := list.EncodeWithOffsets(base + machine.Addr(prefixLen))
	if err != nil {
		panic(fmt.Sprintf("core: encoding fragment %#x: %v", tag, err))
	}
	if len(body) != bodyLen {
		panic("core: body size changed between sizing and encoding")
	}
	r.M.Mem.WriteBytes(base+machine.Addr(prefixLen), body)

	// Locate each exit CTI for future patching.
	for n, ei := range exits {
		e := f.Exits[n]
		ctiOff, ok := offs[ei.cti]
		if !ok {
			panic("core: exit CTI not in layout")
		}
		e.ctiAddr = base + machine.Addr(prefixLen) + ctiOff
		e.ctiLen = ei.cti.Len()
	}

	f.xl8 = append(prefixXl8, buildXl8(list, offs, exits, f, prefixLen)...)

	// Emit the stubs.
	for n, ei := range exits {
		e := f.Exits[n]
		at := e.stubAddr
		if ei.prefix != nil {
			pb, err := ei.prefix.Encode(uint32(at))
			if err != nil {
				panic(fmt.Sprintf("core: encoding stub prefix: %v", err))
			}
			if len(pb) != ei.prefixLen {
				panic("core: stub prefix size changed")
			}
			r.M.Mem.WriteBytes(at, pb)
		}
		r.writeTailUnlinked(e)
		// Via-stub indirect exits still reach the lookup routine when
		// indirect linking is on: their linked form is a tail jump.
		if e.Kind == ExitIndirect && e.viaStub && r.Opts.LinkIndirect {
			r.writeTailJmp(e, ctx.iblEntry[e.BranchType])
			e.state = stateLinkedIBL
		}
	}

	// Mid-emit chaos point: cache bytes allocated and fully written,
	// nothing registered yet.
	r.chaosPoint(chaos.SiteEmit, tag)

	r.chargeShared()
	prev := ctx.frags[tag]
	r.txnPush(func() { ctx.undoRegister(f, prev) })
	ctx.register(f)
	r.txnPush(func() {
		if reg.removeResident(f) {
			reg.addLive(-f.alignedSize())
		}
	})
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
func buildXl8(list *instr.List, offs map[*instr.Instr]uint32, exits []*exitInfo, f *Fragment, prefixLen int) []xl8Entry {
	var table []xl8Entry
	list.Instrs(func(i *instr.Instr) bool {
		off, ok := offs[i]
		if !ok {
			return true
		}
		off += uint32(prefixLen) // offsets are fragment-relative; body follows the prefix
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
		return true
	})

	for n, ei := range exits {
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

// buildIBLPrefix returns the IBL target prefix for a fragment with tag:
// the code the open-address lookup routine's hit path jumps to, completing
// the restore the routine left unfinished (eflags pushed, ECX spilled).
//
//	popfd | lea esp, [esp+4]   ; restore or discard the pushed eflags
//	mov   ecx, [spillECX]      ; restore the application ECX
//	<body>
//
// The elided form uses lea — which reads and writes no flags — because the
// fragment head has been proven to rewrite all six arithmetic flags before
// reading any (flagsDeadFrom), so the application values are dead.
func buildIBLPrefix(ctx *Context, tag machine.Addr, elide bool) *instr.List {
	esp := ia32.RegOp(ia32.ESP)
	l := instr.NewList()
	if elide {
		l.Append(instr.CreateLea(esp, ia32.MemOp(ia32.ESP, ia32.RegNone, 0, 4, 4)).
			SetXl8(uint32(tag), instr.Xl8RestoreECX|instr.Xl8FlagsPushed))
	} else {
		l.Append(instr.CreatePopfd().
			SetXl8(uint32(tag), instr.Xl8RestoreECX|instr.Xl8FlagsPushed))
	}
	l.Append(instr.CreateMov(ia32.RegOp(ia32.ECX), ctx.spillOp(offSpillECX)).
		SetXl8(uint32(tag), instr.Xl8RestoreECX))
	return l
}

// writeTailUnlinked writes the spill/identify/trap tail of e's stub.
func (r *RIO) writeTailUnlinked(e *Exit) {
	ctx := e.Owner.ctx
	var buf [stubTailLen]byte
	b := buf[:0]
	b = append(b, 0xA3) // mov [spillEAX], eax
	b = append32(b, uint32(ctx.spillAddr(offSpillEAX)))
	b = append(b, 0xB8) // mov eax, id
	b = append32(b, e.id)
	b = append(b, 0xE9) // jmp exitTrap
	rel := int32(r.exitTrap) - int32(e.stubTailAddr) - stubTailLen
	b = append32(b, uint32(rel))
	r.M.Mem.WriteBytes(e.stubTailAddr, b)
}

// writeTailJmp overwrites the stub tail with a direct jump to target (the
// linked form of a via-stub exit).
func (r *RIO) writeTailJmp(e *Exit, target machine.Addr) {
	var buf [5]byte
	buf[0] = 0xE9
	rel := int32(target) - int32(e.stubTailAddr) - 5
	buf[1], buf[2], buf[3], buf[4] = byte(rel), byte(rel>>8), byte(rel>>16), byte(rel>>24)
	r.M.Mem.WriteBytes(e.stubTailAddr, buf[:])
}

func append32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
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
	f.inLinks[e] = struct{}{}
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
		nu.inLinks[e] = struct{}{}
	}
}
