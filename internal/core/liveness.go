package core

import (
	"repro/internal/ia32"
	"repro/internal/instr"
)

// Eflags liveness for flag-save elision (Section 4.4 of the paper: saving
// and restoring the overflow and arithmetic flags is the most expensive part
// of any inserted IA-32 code sequence, and the Level-2 eflags information
// exists precisely to make "must we preserve the flags here?" cheap).
//
// flagsDeadFrom walks forward from a resume point and reports whether every
// one of the six arithmetic flags is written before anything can observe its
// current value. When it returns true, the runtime's indirect-branch
// machinery may skip restoring the application eflags at that point: the
// IBL target prefix uses a flag-neutral lea to discard the pushed flags word
// instead of a popfd, and a trace's inline target check does the same on its
// hit path.
//
// The analysis is deliberately stricter than pure flag liveness, because the
// stale-flags window must also be invisible to precise fault translation
// (Section 3.3.4): between the elision point and the instruction that
// completes the rewrite of all six flags, no instruction may
//
//   - read a flag that has not been rewritten yet (the ordinary liveness
//     condition),
//   - be able to fault (any memory operand, the implicit stack accesses of
//     push/pop-family instructions, or division's #DE) — a fault there would
//     expose the stale flags in the translated native context,
//   - leave the straight-line window (any CTI, int, hlt) or fail to decode.
//
// With that window restriction, stale flags are never observable at any
// fault or system-call boundary, so elision is bit-transparent.

// flagsLivenessBudget caps the walk: a head that takes longer than this to
// settle all six flags is treated conservatively.
const flagsLivenessBudget = 32

// flagsDeadFrom walks the instruction list forward from start (nil = nothing
// to prove, conservative false), skipping the single node skip if non-nil
// (used by the trace inline check to step over its own known-safe ECX
// restore). It returns true once all six arithmetic flags have been written
// with no prior read, fault hazard, or control transfer.
func flagsDeadFrom(start, skip *instr.Instr) bool {
	var written ia32.Eflags // read-bit space: the flags proven dead so far
	budget := flagsLivenessBudget
	for i := start; i != nil; i = i.Next() {
		if i == skip {
			continue
		}
		if i.IsBundle() {
			done, dead := flagsDeadBundle(i.Raw(), &written, &budget)
			if done {
				return dead
			}
			continue
		}
		op := i.Opcode()
		var faultable bool
		for n := 0; n < i.NumDsts(); n++ {
			if i.Dst(n).Kind == ia32.OperandMem {
				faultable = true
			}
		}
		for n := 0; n < i.NumSrcs(); n++ {
			if i.Src(n).Kind == ia32.OperandMem {
				faultable = true
			}
		}
		done, dead := stepFlagsDead(op, i.Eflags(), faultable, &written)
		if done {
			return dead
		}
		if budget--; budget <= 0 {
			return false
		}
	}
	return written == ia32.EflagsReadAll
}

// flagsDeadBundle runs the walk over the machine instructions inside a Level
// 0 bundle (copied application bytes, decoded on the fly into a stack
// array, without allocating).
func flagsDeadBundle(raw []byte, written *ia32.Eflags, budget *int) (done, dead bool) {
	var ops [ia32.MaxOperands]ia32.Operand
	off := 0
	for off < len(raw) {
		op, n, nd, ns, err := ia32.DecodeOperands(raw[off:], 0, &ops)
		if err != nil {
			return true, false // undecodable: conservative
		}
		faultable := false
		for _, o := range ops[:nd+ns] {
			if o.Kind == ia32.OperandMem {
				faultable = true
			}
		}
		if d, dd := stepFlagsDead(op, op.Eflags(), faultable, written); d {
			return true, dd
		}
		if *budget--; *budget <= 0 {
			return true, false
		}
		off += n
	}
	return false, false
}

// stepFlagsDead advances the walk by one machine instruction. done reports
// that the answer is decided (dead gives it); otherwise the written set has
// been extended and the walk continues.
func stepFlagsDead(op ia32.Opcode, ef ia32.Eflags, faultable bool, written *ia32.Eflags) (done, dead bool) {
	if *written == ia32.EflagsReadAll {
		return true, true
	}
	if ef.ReadSet()&^*written != 0 {
		return true, false // reads a flag that is still the application's
	}
	if op.IsCTI() || op == ia32.OpInt || op == ia32.OpHlt {
		return true, false // window ends at any control transfer
	}
	if faultable || op == ia32.OpDiv {
		return true, false // a fault here would expose the stale flags
	}
	switch op {
	case ia32.OpPush, ia32.OpPop, ia32.OpPushfd, ia32.OpPopfd:
		// Implicit stack access: faultable even without an explicit
		// memory operand in the operand lists.
		return true, false
	}
	*written |= ef.WritesToReads()
	if *written == ia32.EflagsReadAll {
		return true, true
	}
	return false, false
}
