package core

import (
	"repro/internal/chaos"
	"repro/internal/ia32"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/obs"
)

// traceSelectionStep decides, in trace generation mode, whether the trace
// ends before adding the block at tag. It consults the client end-trace
// hooks first (Section 3.5), then applies the default test: stop when the
// path cycles back (a backward transition), reaches an existing trace or
// another trace head, or hits the size cap. When the trace ends it is built
// and installed, and true is returned.
func (r *RIO) traceSelectionStep(ctx *Context, tag machine.Addr) bool {
	r.chaosPoint(chaos.SiteTraceExtend, tag)
	end := false
	decision := EndTraceDefault
	for _, cl := range r.Clients {
		if h, ok := cl.(EndTraceHook); ok {
			if d := h.EndTrace(ctx, ctx.selTags[0], tag); d != EndTraceDefault {
				decision = d
			}
		}
	}
	switch decision {
	case EndTraceEnd:
		end = true
	case EndTraceContinue:
		end = len(ctx.selTags) >= maxTraceBlocks
	default:
		last := ctx.selTags[len(ctx.selTags)-1]
		existing := ctx.lookup(tag)
		end = tag <= last || // backward transition (loop closing)
			(existing != nil && existing.Kind == KindTrace) ||
			ctx.isHead[tag] ||
			len(ctx.selTags) >= maxTraceBlocks
	}
	if !end {
		ctx.selTags = append(ctx.selTags, tag)
		return false
	}
	r.buildTrace(ctx)
	ctx.selecting = false
	return true
}

// buildTrace stitches the recorded basic-block sequence into a trace
// fragment: blocks are re-decoded from application code at full detail
// (Level 3, raw bytes kept valid — the paper's Section 3.1), connecting
// branches are inverted or elided so the hot path falls through linearly,
// calls are inlined by pushing their original return addresses, and inlined
// indirect branches get an in-line target check that exits to the lookup
// machinery when the assumption fails.
func (r *RIO) buildTrace(ctx *Context) {
	prev := r.M.SetChargePhase(obs.PhaseTraceBuild)
	defer r.M.SetChargePhase(prev)
	if r.spans != nil {
		spanStart := r.M.Now()
		defer r.span(ctx.thread.ID, "trace-build", spanStart, map[string]any{"tag": uint32(ctx.selTags[0]), "blocks": len(ctx.selTags)})
	}
	tags := ctx.selTags
	r.hists.Observe(obs.MetricTraceBlocks, uint64(len(tags)))
	trace := instr.NewList()
	statInc(&r.Stats.TracesBuilt)
	ctx.inlineRestores = ctx.inlineRestores[:0]

	total := 0
	var spans []srcSpan
	for i, tag := range tags {
		block, count, end, err := r.decodeBlock(tag)
		if err != nil {
			panic(err)
		}
		spans = append(spans, r.spansFor(tag, end)...)
		block.DecodeAll(instr.Level3)
		total += count

		// Client basic-block hooks run again for each block as it is
		// incorporated into the trace, so per-block instrumentation
		// survives trace creation.
		for _, cl := range r.Clients {
			if h, ok := cl.(BasicBlockHook); ok {
				r.M.Charge(machine.Ticks(count) * costClientInstr)
				h.BasicBlock(ctx, tag, block)
			}
		}

		if i == len(tags)-1 {
			r.mangleBlockEnd(ctx, block, tag)
			trace.AppendList(block)
			break
		}
		if !r.stitchBlock(ctx, block, tags[i+1]) {
			// The recorded continuation no longer matches the code
			// (e.g. self-modifying application): end the trace here.
			r.mangleBlockEnd(ctx, block, tag)
			trace.AppendList(block)
			break
		}
		trace.AppendList(block)
	}
	r.M.Charge(costTraceBlock*machine.Ticks(len(tags)) + costTraceInstr*machine.Ticks(total))

	headTag := tags[0]
	for _, cl := range r.Clients {
		if h, ok := cl.(TraceHook); ok {
			r.M.Charge(machine.Ticks(total) * costClientInstr)
			h.Trace(ctx, headTag, trace)
		}
	}

	r.elideInlineFlagRestores(ctx, trace)

	f := r.emit(ctx, KindTrace, headTag, trace)
	f.spans = spans

	// The trace shadows the head's basic block: lookups now find the
	// trace, and existing direct links into the block are redirected.
	if bb := ctx.frags[headTag]; bb != nil && bb.Kind == KindBasicBlock {
		r.redirectInLinks(bb, f)
	}
}

// stitchBlock rewrites block's ending CTI so that execution continues
// inline to next (the recorded on-trace successor). It reports false if the
// block cannot continue to next.
func (r *RIO) stitchBlock(ctx *Context, block *instr.List, next machine.Addr) bool {
	last := block.Last()
	if last == nil {
		return false
	}
	if !last.IsCTI() {
		// Size-capped block: the successor must be the next address.
		return last.PC()+machine.Addr(last.Len()) == next
	}

	op := last.Opcode()
	ctiPC := last.PC()
	fallthru := ctiPC + machine.Addr(last.Len())
	ecx := ia32.RegOp(ia32.ECX)
	spillECX := ctx.spillOp(offSpillECX)

	// As in mangleBlockEnd, every synthetic instruction carries a fault
	// translation annotation back to the control transfer it replaces.
	switch {
	case op == ia32.OpJmp:
		target, _ := last.Target()
		if target != next {
			return false
		}
		block.Remove(last) // elided: superior code layout, no taken branch

	case op.IsCond():
		target, _ := last.Target()
		switch next {
		case target:
			// Invert the branch so the hot path falls through; the
			// cold direction becomes the exit.
			negOp, _ := ia32.NegateCond(op)
			inv := instr.CreateJcc(negOp, fallthru)
			inv.SetExitClass(ClassDirect)
			inv.SetXl8(ctiPC, 0)
			block.Replace(last, inv)
		case fallthru:
			last.SetExitClass(ClassDirect) // keep: taken direction exits
		default:
			return false
		}

	case op == ia32.OpCall:
		target, _ := last.Target()
		if target != next {
			return false
		}
		// Inline the call: push the original return address (keeping
		// the application's view of its stack fully transparent) and
		// fall through into the callee.
		block.Replace(last,
			instr.CreatePush(ia32.Imm32(int64(fallthru))).SetXl8(ctiPC, 0))

	case op == ia32.OpRet:
		hasImm := last.Src(0).Kind == ia32.OperandImm
		var imm int64
		if hasImm {
			imm = last.Src(0).Imm
		}
		block.Remove(last)
		block.Append(instr.CreateMov(spillECX, ecx).SetXl8(ctiPC, 0))
		block.Append(instr.CreatePop(ecx).SetXl8(ctiPC, instr.Xl8RestoreECX))
		if hasImm {
			block.Append(instr.CreateLea(ia32.RegOp(ia32.ESP),
				ia32.MemOp(ia32.ESP, ia32.RegNone, 0, int32(imm), 4)).
				SetXl8(ctiPC, instr.Xl8RestoreECX))
		}
		r.appendInlineCheck(ctx, block, BranchRet, next, ctiPC)

	case op == ia32.OpJmpInd:
		rm := last.Src(0)
		block.Remove(last)
		block.Append(instr.CreateMov(spillECX, ecx).SetXl8(ctiPC, 0))
		block.Append(instr.CreateMov(ecx, rm).SetXl8(ctiPC, instr.Xl8RestoreECX))
		r.appendInlineCheck(ctx, block, BranchJmpInd, next, ctiPC)

	case op == ia32.OpCallInd:
		rm := last.Src(0)
		block.Remove(last)
		block.Append(instr.CreateMov(spillECX, ecx).SetXl8(ctiPC, 0))
		block.Append(instr.CreateMov(ecx, rm).SetXl8(ctiPC, instr.Xl8RestoreECX))
		block.Append(instr.CreatePush(ia32.Imm32(int64(fallthru))).
			SetXl8(ctiPC, instr.Xl8RestoreECX))
		r.appendInlineCheck(ctx, block, BranchCallInd, next, ctiPC)

	default:
		return false
	}
	return true
}

// appendInlineCheck emits the trace's inlined indirect-branch target check
// (Section 2): a compare against the recorded target with a conditional
// exit to the lookup machinery, much cheaper than the full hashtable lookup
// when the check succeeds. On entry to the sequence ECX holds the actual
// target and the application's ECX is spilled.
//
//	pushfd
//	cmp  ecx, <expected>
//	jnz  <indirect exit, flags pushed>   ; assumption violated
//	popfd
//	mov  ecx, [spillECX]
//	...falls through into the inlined target block...
func (r *RIO) appendInlineCheck(ctx *Context, block *instr.List, bt BranchType, expected, ctiPC machine.Addr) {
	// On entry ECX is already spilled; between the pushfd and the popfd the
	// application eflags additionally live on the stack, so the scratch
	// annotations widen and then narrow again across the sequence.
	block.Append(instr.CreatePushfd().SetXl8(ctiPC, instr.Xl8RestoreECX))
	block.Append(instr.CreateCmp(ia32.RegOp(ia32.ECX), ia32.Imm32(int64(int32(expected)))).
		SetXl8(ctiPC, instr.Xl8RestoreECX|instr.Xl8FlagsPushed))
	miss := instr.CreateJcc(ia32.OpJnz, 0)
	miss.SetExitClass(1 + uint8(bt) | ClassFlagsPushedBit)
	miss.SetXl8(ctiPC, instr.Xl8RestoreECX|instr.Xl8FlagsPushed)
	block.Append(miss)
	popfd := block.Append(instr.CreatePopfd().SetXl8(ctiPC, instr.Xl8RestoreECX|instr.Xl8FlagsPushed))
	mov := block.Append(instr.CreateMov(ia32.RegOp(ia32.ECX), ctx.spillOp(offSpillECX)).
		SetXl8(ctiPC, instr.Xl8RestoreECX))
	ctx.inlineRestores = append(ctx.inlineRestores, inlineRestore{popfd: popfd, mov: mov})
}

// inlineRestore records an inline target check's hit-path restore pair for
// the flags-elision pass: the popfd and the following ECX reload.
type inlineRestore struct {
	popfd *instr.Instr
	mov   *instr.Instr
}

// elideInlineFlagRestores rewrites trace inline-check hit paths whose
// continuation provably rewrites all six arithmetic flags before reading
// any: the popfd becomes a flag-neutral lea that discards the pushed eflags
// word (Section 4.4 applied to traces). The pushfd stays — the inline cmp
// clobbers flags before the check resolves, and the miss path's stub still
// restores them with its own popfd. Pairs whose popfd a client hook removed
// or replaced are skipped.
func (r *RIO) elideInlineFlagRestores(ctx *Context, trace *instr.List) {
	defer func() { ctx.inlineRestores = ctx.inlineRestores[:0] }()
	if !r.Opts.FlagsElision || !r.usesIBLPrefix() {
		return
	}
	esp := ia32.RegOp(ia32.ESP)
	for _, p := range ctx.inlineRestores {
		if !p.popfd.InList(trace) || !p.mov.InList(trace) {
			continue
		}
		// The walk starts after the popfd and skips the known-safe ECX
		// reload (its TLS read would otherwise end the analysis as a
		// potential fault site).
		if r.Opts.Mutation != MutateFlagsDead && !flagsDeadFrom(p.popfd.Next(), p.mov) {
			continue
		}
		pc, scr := p.popfd.Xl8()
		trace.Replace(p.popfd, instr.CreateLea(esp,
			ia32.MemOp(ia32.ESP, ia32.RegNone, 0, 4, 4)).SetXl8(pc, scr))
		statInc(&r.Stats.InlineChecksElided)
	}
}

// MarkTraceHead marks tag as a custom trace head (the paper's
// dr_mark_trace_head): its execution counts are tracked and a trace is
// built from it when it becomes hot.
func (c *Context) MarkTraceHead(tag machine.Addr) {
	if !c.rio.Opts.EnableTraces {
		return
	}
	if f := c.lookup(tag); f != nil && f.Kind == KindTrace {
		return
	}
	c.isHead[tag] = true
}
