// Package api is the client-facing surface of the system: the Go rendering
// of the paper's DynamoRIO client API (Section 3). It re-exports the client
// type and per-thread context of the runtime; a client implements any of
// core's eight hook interfaces, which are Table 3's client routines (init,
// exit, thread init, thread exit, basic block, trace, fragment deleted and
// end trace). It adds the helpers a client needs to build custom runtime
// code transformations:
//
//   - instruction inspection and creation come from internal/instr
//     (one constructor per instruction, implicit operands filled in);
//   - register spill slots, thread-local storage, transparent output and
//     processor identification live on Context/RIO;
//   - exit-branch creation, custom exit stubs, clean calls, and the
//     inline-check pattern helpers for adaptive indirect-branch work are
//     provided here.
package api

import (
	"repro/internal/core"
	"repro/internal/ia32"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Re-exported runtime types: a client imports only this package and
// internal/instr + internal/ia32 for instruction work.
type (
	RIO     = core.RIO
	Context = core.Context
	Client  = core.Client

	EndTraceDecision = core.EndTraceDecision

	// FragmentKind distinguishes basic blocks from traces (Context.CacheUsage,
	// Fragment.Kind).
	FragmentKind = core.FragmentKind

	// Observability surface (where-the-cycles-go accounting): phase tick
	// breakdowns, per-fragment execution profiles and the runtime event
	// trace. Clients reach them through RIO.PhaseTicks, RIO.FragmentProfiles,
	// RIO.TopFragments, RIO.StatsSnapshot and RIO.Tracer.
	Phase           = obs.Phase
	PhaseTicks      = obs.PhaseTicks
	FragmentProfile = obs.FragmentProfile
	FragCounts      = obs.FragCounts
	TraceEvent      = obs.Event
	EventTracer     = obs.Tracer
)

// Fragment kinds.
const (
	KindBasicBlock = core.KindBasicBlock
	KindTrace      = core.KindTrace
)

// End-trace decisions (Section 3.5).
const (
	EndTraceDefault  = core.EndTraceDefault
	EndTraceEnd      = core.EndTraceEnd
	EndTraceContinue = core.EndTraceContinue
)

// Addr is a simulated application address.
type Addr = machine.Addr

// IndirectTargetReg is the register that holds the application branch
// target inside the runtime's indirect-branch sequences (the mangling
// convention clients rely on when extending those sequences).
const IndirectTargetReg = ia32.ECX

// NewDirectExit creates a direct exit branch to an application tag,
// suitable for insertion into a block or trace list by a client. If stub is
// non-nil its instructions are prepended to the exit's stub, and the exit
// routes through the stub even when linked (the custom exit stubs of
// Section 3.2).
func NewDirectExit(op ia32.Opcode, target Addr, stub *instr.List, alwaysViaStub bool) *instr.Instr {
	var e *instr.Instr
	if op == ia32.OpJmp {
		e = instr.CreateJmp(target)
	} else {
		e = instr.CreateJcc(op, target)
	}
	e.SetExitClass(core.ClassDirect)
	if stub != nil || alwaysViaStub {
		e.SetExitStub(stub, alwaysViaStub)
	}
	return e
}

// IsIndirectExit reports whether an instruction in a processed trace is an
// exit to the indirect-branch lookup machinery, and whether the
// application's eflags are pushed on the stack at that point (true for the
// miss exits of inlined target checks).
func IsIndirectExit(i *instr.Instr) (flagsPushed bool, ok bool) {
	c := i.ExitClass()
	if c == core.ClassInternal || c == core.ClassDirect {
		return false, false
	}
	if _, ind := core.ClassBranchType(c); !ind {
		return false, false
	}
	return c&core.ClassFlagsPushedBit != 0, true
}

// IndirectExitBranchType returns the branch type (return, indirect jump,
// indirect call) of an indirect exit instruction.
func IndirectExitBranchType(i *instr.Instr) (core.BranchType, bool) {
	return core.ClassBranchType(i.ExitClass())
}

// InsertCleanCall inserts a call to the registered callback id before
// `where` in list: the application EAX is spilled to the context's clean
// call slot, the callback id is loaded, and a call transfers to the
// runtime. The callback runs with the full application context visible
// (EAX restored) and execution resumes after the insertion point.
//
// Flags: the inserted mov/call do not modify eflags, but the callback runs
// under the runtime, so surrounding code need not preserve anything beyond
// what it already preserves.
func InsertCleanCall(ctx *Context, list *instr.List, where *instr.Instr, id uint32) {
	eax := ia32.RegOp(ia32.EAX)
	list.InsertBefore(where, instr.CreateMov(ctx.CleanCallSpillOp(), eax))
	list.InsertBefore(where, instr.CreateMov(eax, ia32.Imm32(int64(id))))
	call := instr.CreateCall(ctx.RIO().CleanCallTrap())
	list.InsertBefore(where, call)
}

// InlineCheck describes one inlined indirect-branch target check found in a
// processed trace (the sequence built by the runtime when it inlines
// through a return or indirect jump/call):
//
//	mov  [spillECX], ecx
//	(pop ecx | mov ecx, <rm>)  [+ lea esp / push for ret-imm and calls]
//	pushfd
//	cmp  ecx, <expected>
//	jnz  <indirect exit, flags pushed>   <- Miss
//	popfd
//	mov  ecx, [spillECX]
type InlineCheck struct {
	// First is the initial ECX spill; Miss is the conditional exit; End
	// is the final ECX restore.
	First, Cmp, Miss, End *instr.Instr
	Type                  core.BranchType
	// Expected is the on-trace target the check compares against.
	Expected Addr
}

// FindInlineChecks locates every inlined target check in a processed trace
// list. Clients use the Miss instruction as the insertion point for
// additional dispatch (Section 4.3) and the surrounding instructions to
// reshape the check (Section 4.4).
func FindInlineChecks(list *instr.List) []InlineCheck {
	var out []InlineCheck
	for i := list.First(); i != nil; i = i.Next() {
		flagsPushed, ok := IsIndirectExit(i)
		if !ok || !flagsPushed {
			continue
		}
		ic := InlineCheck{Miss: i}
		ic.Type, _ = IndirectExitBranchType(i)
		// Walk back: cmp, pushfd, target computation, spill.
		cmp := i.Prev()
		if cmp == nil || cmp.Opcode() != ia32.OpCmp {
			continue
		}
		ic.Cmp = cmp
		ic.Expected = Addr(cmp.Src(1).Imm)
		first := cmp
		for p := cmp.Prev(); p != nil; p = p.Prev() {
			if !p.Meta() {
				break
			}
			first = p
			if p.Opcode() == ia32.OpMov && p.NumDsts() > 0 &&
				p.Dst(0).IsMem() && p.NumSrcs() > 0 && p.Src(0).IsReg(ia32.ECX) {
				break // the initial spill of ECX
			}
		}
		ic.First = first
		// Walk forward: popfd then the ECX restore.
		if pf := i.Next(); pf != nil && pf.Opcode() == ia32.OpPopfd {
			if re := pf.Next(); re != nil && re.Opcode() == ia32.OpMov {
				ic.End = re
			}
		}
		if ic.End == nil {
			continue
		}
		out = append(out, ic)
	}
	return out
}

// RemoveInlineCheck deletes an inlined target check entirely, assuming the
// branch always goes to the inlined target. For returns this is the
// paper's Section 4.4 assumption that the calling convention holds: the
// check (including the pop of the return address) is replaced by a
// flags-neutral stack adjustment. The caller takes responsibility for the
// assumption's validity.
func RemoveInlineCheck(list *instr.List, ic InlineCheck) {
	// Collect the instructions of the sequence.
	var seq []*instr.Instr
	for i := ic.First; ; i = i.Next() {
		seq = append(seq, i)
		if i == ic.End {
			break
		}
	}
	// A return consumed the return address with its pop; removing the
	// pop requires an explicit stack adjustment (lea preserves flags).
	if ic.Type == core.BranchRet {
		adjust := 4
		for _, i := range seq {
			// ret imm16 mangles to an extra lea esp, [esp+imm].
			if i.Opcode() == ia32.OpLea && i.Dst(0).IsReg(ia32.ESP) {
				adjust += int(i.Src(0).Disp)
			}
		}
		list.InsertBefore(ic.First, instr.CreateLea(ia32.RegOp(ia32.ESP),
			ia32.MemOp(ia32.ESP, ia32.RegNone, 0, int32(adjust), 4)))
	}
	for _, i := range seq {
		list.Remove(i)
	}
}

// BlockEndsInReturn reports whether the basic block at tag in application
// code ends with a return. Clients implementing custom trace shapes use it
// to recognize call/return boundaries (Section 4.4).
func BlockEndsInReturn(r *RIO, tag Addr) bool {
	op, _, ok := r.BlockEndInfo(tag)
	return ok && op == ia32.OpRet
}

// DirectCallTarget returns the callee of a basic block ending in a direct
// call, for marking call targets as custom trace heads.
func DirectCallTarget(bb *instr.List) (Addr, bool) {
	last := bb.Last()
	if last == nil || last.IsBundle() || !last.IsCTI() {
		return 0, false
	}
	if last.Opcode() != ia32.OpCall {
		return 0, false
	}
	t, ok := last.Target()
	return t, ok
}
