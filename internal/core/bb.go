package core

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/ia32"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Basic-block construction limits.
const (
	maxBlockInstrs = 256
	maxBlockBytes  = 1536
)

// decodeBlock builds the InstrList for the basic block starting at tag,
// using the paper's canonical two-node form wherever possible: a single
// Level 0 bundle holding the raw bytes of the straight-line body, followed
// by a fully decoded (Level 3) block-ending control transfer. It returns the
// list and the number of machine instructions in it.
func (r *RIO) decodeBlock(tag machine.Addr) (list *instr.List, count int, end machine.Addr, err error) {
	mem := r.M.Mem
	list = instr.NewList()
	var scratch [16]byte

	pc := tag
	bodyStart := tag
	flush := func(end machine.Addr) {
		if end > bodyStart {
			raw := mem.ReadBytes(bodyStart, int(end-bodyStart))
			list.Append(instr.FromRawBundle(raw, bodyStart))
		}
	}
	for {
		bytes := mem.Fetch(pc, scratch[:])
		op, n, _, err := ia32.DecodeOpcode(bytes)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("core: block at %#x: undecodable instruction at %#x: %w", tag, pc, err)
		}
		count++
		if op.IsCTI() {
			flush(pc)
			cti, err := instr.FromDecode(mem.ReadBytes(pc, n), pc)
			if err != nil {
				return nil, 0, 0, err
			}
			list.Append(cti)
			return list, count, pc + machine.Addr(n), nil
		}
		pc += machine.Addr(n)
		// Blocks also end after a system call or hlt (as in DynamoRIO,
		// which must regain control around kernel transitions), and at
		// the size caps. The caller appends a synthetic exit to the next
		// address.
		if op == ia32.OpInt || op == ia32.OpHlt ||
			count >= maxBlockInstrs || pc-tag >= maxBlockBytes {
			flush(pc)
			return list, count, pc, nil
		}
	}
}

// spansFor returns the source pages of [start, end) with their current
// write-generations, for fragment staleness validation.
func (r *RIO) spansFor(start, end machine.Addr) []srcSpan {
	var out []srcSpan
	for page := start &^ (machine.PageSize - 1); page < end; page += machine.PageSize {
		out = append(out, srcSpan{page: page, gen: r.M.Mem.Gen(page)})
	}
	return out
}

// BlockEndInfo decodes just enough of the basic block at tag (in
// application code) to report its ending control transfer's opcode and, for
// direct CTIs, the target. ok is false if the block has no CTI within the
// block-size cap or the code is undecodable. Clients use this to recognize
// call and return boundaries when shaping custom traces.
func (r *RIO) BlockEndInfo(tag machine.Addr) (op ia32.Opcode, target machine.Addr, ok bool) {
	mem := r.M.Mem
	var scratch [16]byte
	pc := tag
	for count := 0; count < maxBlockInstrs && pc-tag < maxBlockBytes; count++ {
		bytes := mem.Fetch(pc, scratch[:])
		op, n, _, err := ia32.DecodeOpcode(bytes)
		if err != nil {
			return ia32.OpInvalid, 0, false
		}
		if op.IsCTI() {
			if op.IsIndirect() {
				return op, 0, true
			}
			in, err := ia32.Decode(mem.ReadBytes(pc, n), pc)
			if err != nil {
				return ia32.OpInvalid, 0, false
			}
			t, _ := in.Target()
			return op, t, true
		}
		pc += machine.Addr(n)
	}
	return ia32.OpInvalid, 0, false
}

// buildBB constructs, processes and emits the basic-block fragment for tag:
// decode, client hooks, mangling, emission. This is the "start building
// basic block" box of the paper's Figure 1.
func (r *RIO) buildBB(ctx *Context, tag machine.Addr) *Fragment {
	prev := r.M.SetChargePhase(obs.PhaseBlockBuild)
	defer r.M.SetChargePhase(prev)
	if r.spans != nil {
		spanStart := r.M.Now()
		defer r.span(ctx.thread.ID, "block-build", spanStart, map[string]any{"tag": uint32(tag)})
	}
	list, count, end, err := r.decodeBlock(tag)
	if err != nil {
		panic(err)
	}
	r.chaosPoint(chaos.SiteBlockBuild, tag)
	spans := r.spansFor(tag, end)
	statInc(&r.Stats.BlocksBuilt)
	buildTicks := costBuildBlock + machine.Ticks(count)*costBuildInstr
	r.hists.Observe(obs.MetricBlockBuildTicks, uint64(buildTicks))
	r.M.Charge(buildTicks)

	// Client basic-block hooks see the application's own code, before
	// mangling.
	for _, cl := range r.Clients {
		if h, ok := cl.(BasicBlockHook); ok {
			r.M.Charge(machine.Ticks(count) * costClientInstr)
			h.BasicBlock(ctx, tag, list)
		}
	}

	r.mangleBlockEnd(ctx, list, tag)
	f := r.emit(ctx, KindBasicBlock, tag, list)
	f.spans = spans
	return f
}

// mangleBlockEnd rewrites the block-ending control transfer into the code
// cache's exit forms:
//
//   - direct jmp: kept as a direct exit (linkable)
//   - conditional branch: kept as the taken exit; a jump to the fall-through
//     tag is appended as a second direct exit
//   - direct call: replaced by a push of the original return address
//     (transparency: the application sees only original addresses) plus a
//     direct exit to the callee
//   - return / indirect jump / indirect call: the target is moved into ECX
//     (after saving ECX to a TLS spill slot) and the exit routes to the
//     indirect-branch machinery
//   - no CTI (size-capped or hlt-ended block): a synthetic direct exit to
//     the next address is appended
func (r *RIO) mangleBlockEnd(ctx *Context, list *instr.List, tag machine.Addr) {
	last := list.Last()
	if last == nil {
		panic("core: empty block")
	}
	if last.IsBundle() || !last.IsCTI() {
		// Size-capped or hlt-terminated block: fall through to the next
		// application address.
		var next machine.Addr
		if last.IsBundle() {
			next = last.PC() + machine.Addr(len(last.Raw()))
		} else {
			next = last.PC() + machine.Addr(last.Len())
		}
		list.Append(exitJmp(next).SetXl8(next, 0))
		return
	}

	op := last.Opcode()
	ctiPC := last.PC()
	fallthru := ctiPC + machine.Addr(last.Len())
	ecx := ia32.RegOp(ia32.ECX)
	spillECX := ctx.spillOp(offSpillECX)

	// Every synthetic instruction below is annotated with the application
	// PC of the control transfer it stands in for, plus the scratch state a
	// fault-time translator must restore to reach the native context of
	// that boundary (emit records the annotations in the fragment's
	// translation table).
	switch {
	case op == ia32.OpJmp:
		// Already a direct exit.
		last.SetExitClass(ClassDirect)

	case op.IsCond():
		last.SetExitClass(ClassDirect)
		list.Append(exitJmp(fallthru).SetXl8(fallthru, 0))

	case op == ia32.OpCall:
		target, _ := last.Target()
		list.Remove(last)
		// The push of the return address may fault (#PF on the stack);
		// the native equivalent is the call itself faulting on its own
		// push, with no scratch state yet.
		list.Append(instr.CreatePush(ia32.Imm32(int64(fallthru))).SetXl8(ctiPC, 0))
		list.Append(exitJmp(target).SetXl8(ctiPC, 0))

	case op == ia32.OpRet:
		hasImm := last.Src(0).Kind == ia32.OperandImm
		var imm int64
		if hasImm {
			imm = last.Src(0).Imm
		}
		list.Remove(last)
		list.Append(instr.CreateMov(spillECX, ecx).SetXl8(ctiPC, 0))
		// The pop reads the stack and may fault, like the native ret
		// would; by then the application ECX lives in the spill slot.
		list.Append(instr.CreatePop(ecx).SetXl8(ctiPC, instr.Xl8RestoreECX))
		if hasImm {
			list.Append(instr.CreateLea(ia32.RegOp(ia32.ESP),
				ia32.MemOp(ia32.ESP, ia32.RegNone, 0, int32(imm), 4)).
				SetXl8(ctiPC, instr.Xl8RestoreECX))
		}
		list.Append(exitIndirect(BranchRet, 0).SetXl8(ctiPC, instr.Xl8RestoreECX))

	case op == ia32.OpJmpInd:
		rm := last.Src(0)
		list.Remove(last)
		list.Append(instr.CreateMov(spillECX, ecx).SetXl8(ctiPC, 0))
		// Reading the branch-target operand may fault, exactly as the
		// native indirect jump would on its own operand read.
		list.Append(instr.CreateMov(ecx, rm).SetXl8(ctiPC, instr.Xl8RestoreECX))
		list.Append(exitIndirect(BranchJmpInd, 0).SetXl8(ctiPC, instr.Xl8RestoreECX))

	case op == ia32.OpCallInd:
		rm := last.Src(0)
		list.Remove(last)
		list.Append(instr.CreateMov(spillECX, ecx).SetXl8(ctiPC, 0))
		// Compute the target before pushing: the operand may reference
		// ESP (or ECX, whose application value we just saved but which
		// still holds it).
		list.Append(instr.CreateMov(ecx, rm).SetXl8(ctiPC, instr.Xl8RestoreECX))
		list.Append(instr.CreatePush(ia32.Imm32(int64(fallthru))).
			SetXl8(ctiPC, instr.Xl8RestoreECX))
		list.Append(exitIndirect(BranchCallInd, 0).SetXl8(ctiPC, instr.Xl8RestoreECX))

	default:
		panic("core: unexpected block-ending CTI " + op.String())
	}
}

// exitJmp creates a direct exit jump to an application tag.
func exitJmp(tag machine.Addr) *instr.Instr {
	j := instr.CreateJmp(tag)
	j.SetExitClass(ClassDirect)
	return j
}

// exitIndirect creates an indirect exit jump (target in ECX by the mangling
// convention). extraClass ORs in ClassFlagsPushedBit for trace inline-check
// misses.
func exitIndirect(bt BranchType, extraClass uint8) *instr.Instr {
	j := instr.CreateJmp(0) // target wired at emission (stub or lookup routine)
	j.SetExitClass(1 + uint8(bt) | extraClass)
	return j
}
