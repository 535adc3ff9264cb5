package core

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/ia32"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/obs"
)

// emitIBLRoutines builds the thread's in-cache indirect-branch lookup
// routines: the fast hashtable lookup of Section 2 that replaces a full
// context switch for indirect branches. One copy per branch type (return,
// indirect jump, indirect call), as in DynamoRIO, so each gets its own
// last-target predictor slot.
//
// Calling convention (established by basic-block mangling): the application
// value of ECX has been saved in the spill slot and ECX holds the target
// application address; the application eflags are live and must be
// preserved.
//
// The default (open-address) routine walks a linear probe chain and, on a
// hit, jumps to the fragment's IBL target prefix with the eflags word still
// pushed and ECX still spilled — the prefix finishes the restore, so a
// fragment whose head provably rewrites all six arithmetic flags can elide
// the popfd entirely (Section 4.4's flag-save optimization):
//
//	pushfd                      ; save application flags (scratch below ESP)
//	mov   [spillEDX], edx
//	mov   edx, ecx
//	and   edx, mask             ; hash = target & (entries-1)
//	head:
//	cmp   ecx, [table+edx*8]    ; tag check
//	jnz   next
//	mov   edx, [table+edx*8+4]  ; fragment prefix address
//	mov   [iblDest], edx
//	mov   edx, [spillEDX]
//	jmp   [iblDest]             ; into the prefix (popfd|lea; mov ecx,...)
//	next:
//	cmp   dword [table+edx*8], -1
//	jz    miss                  ; empty slot terminates the chain
//	add   edx, 1
//	and   edx, mask             ; wrap
//	jmp   head
//	miss:
//	mov   edx, [spillEDX]
//	popfd
//	jmp   missTrap              ; context switch back to the dispatcher
//
// The legacy direct-mapped form (IBLDirect, and SharedCache — see
// RIO.usesIBLPrefix) probes one slot and restores eflags and ECX inside the
// routine before jumping straight to the fragment body.
//
// On a miss ECX still holds the target and the dispatcher restores it from
// the spill slot — identical in both forms.
func (r *RIO) emitIBLRoutines(ctx *Context) {
	// Mark every hashtable slot empty. Simulated memory zeroes by default,
	// and a zero tag would false-hit a lookup of application address 0.
	ctx.clearIBLTable()
	r.writeIBLRoutines(ctx)
	if r.usesIBLPrefix() {
		buildIBLPrefixes(ctx)
	}
}

// writeIBLRoutines (re-)emits the three lookup routines at their fixed
// addresses. Each routine owns iblRoutineStride bytes, so an adaptive-table
// doubling can re-emit with the new mask in place without moving any entry
// point — no linked exit needs re-patching.
func (r *RIO) writeIBLRoutines(ctx *Context) {
	// Only fires when re-emission happens from inside the dispatcher (an
	// adaptive resize); thread-setup emission is not a chaos boundary.
	r.chaosPoint(chaos.SiteIBLReemit, 0)
	addr := ctx.tls + offIBLCode
	for bt := BranchType(0); bt < numBranchTypes; bt++ {
		ctx.iblEntry[bt] = addr
		bytes := r.buildIBL(ctx, addr)
		if len(bytes) > iblRoutineStride {
			panic(fmt.Sprintf("core: IBL routine %d bytes exceeds stride %d",
				len(bytes), iblRoutineStride))
		}
		r.M.Mem.WriteBytes(addr, bytes)
		r.M.MapCodeRange(addr, addr+machine.Addr(len(bytes)), obs.PhaseIBLLookup, 0, false)
		addr += iblRoutineStride
	}
}

func (r *RIO) buildIBL(ctx *Context, at machine.Addr) []byte {
	edx := ia32.RegOp(ia32.EDX)
	ecx := ia32.RegOp(ia32.ECX)
	table := func(extra int32) ia32.Operand {
		return ia32.MemOp(ia32.RegNone, ia32.EDX, 8, int32(ctx.tableBase)+extra, 4)
	}
	mask := ia32.Imm32(int64(ctx.tableMask))

	l := instr.NewList()
	l.Append(instr.CreatePushfd())
	l.Append(instr.CreateMov(ctx.spillOp(offSpillEDX), edx))
	l.Append(instr.CreateMov(edx, ecx))
	l.Append(instr.CreateAnd(edx, mask))

	if !r.usesIBLPrefix() {
		// Legacy single-probe direct-mapped lookup; full restore in-routine.
		l.Append(instr.CreateCmp(ecx, table(0)))
		jnzMiss := l.Append(instr.CreateJcc(ia32.OpJnz, 0))
		l.Append(instr.CreateMov(edx, table(4)))
		l.Append(instr.CreateMov(ctx.spillOp(offIBLDest), edx))
		l.Append(instr.CreateMov(edx, ctx.spillOp(offSpillEDX)))
		l.Append(instr.CreatePopfd())
		l.Append(instr.CreateMov(ecx, ctx.spillOp(offSpillECX)))
		l.Append(instr.CreateJmpInd(ctx.spillOp(offIBLDest)))
		miss := l.Append(instr.CreateMov(edx, ctx.spillOp(offSpillEDX)))
		jnzMiss.SetTargetInstr(miss)
		l.Append(instr.CreatePopfd())
		l.Append(instr.CreateJmp(r.iblMissTrap))
	} else {
		// Open-address probe walk. The hit path leaves eflags pushed and
		// ECX spilled: the fragment's IBL target prefix finishes the
		// restore (and may skip the popfd under flags elision).
		head := l.Append(instr.CreateCmp(ecx, table(0)))
		jnzNext := l.Append(instr.CreateJcc(ia32.OpJnz, 0))
		l.Append(instr.CreateMov(edx, table(4)))
		l.Append(instr.CreateMov(ctx.spillOp(offIBLDest), edx))
		l.Append(instr.CreateMov(edx, ctx.spillOp(offSpillEDX)))
		l.Append(instr.CreateJmpInd(ctx.spillOp(offIBLDest)))
		next := l.Append(instr.CreateCmp(table(0), ia32.Imm8(-1)))
		jnzNext.SetTargetInstr(next)
		jzMiss := l.Append(instr.CreateJcc(ia32.OpJz, 0))
		l.Append(instr.CreateAdd(edx, ia32.Imm8(1)))
		l.Append(instr.CreateAnd(edx, mask))
		l.Append(instr.CreateJmpInstr(head))
		miss := l.Append(instr.CreateMov(edx, ctx.spillOp(offSpillEDX)))
		jzMiss.SetTargetInstr(miss)
		l.Append(instr.CreatePopfd())
		l.Append(instr.CreateJmp(r.iblMissTrap))
	}

	// Encode at the routine's real address: the jump to the miss trap is
	// PC-relative.
	bytes, err := l.Encode(at)
	if err != nil {
		panic(err)
	}
	return bytes
}
