package instr

import "repro/internal/ia32"

// This file provides the instruction-creation macros of the paper's API
// (Section 3.2): one constructor per instruction, taking only the explicit
// operands and filling in the implicit ones automatically. All constructors
// return Level 4 instructions marked meta (runtime/client-inserted); call
// ClearMeta via the returned instruction if application semantics are
// intended.

// Create builds an instruction from an explicit opcode and complete operand
// lists, bypassing the per-instruction abstraction (the paper's low-level
// escape hatch).
func Create(op ia32.Opcode, dsts, srcs []ia32.Operand) *Instr {
	in := FromInst(ia32.Inst{Op: op, Dsts: dsts, Srcs: srcs})
	in.meta = true
	return in
}

// createOps is Create with both operand lists in one allocation: the first
// nd operands are the destinations, the rest the sources.
func createOps(op ia32.Opcode, nd int, ops ...ia32.Operand) *Instr {
	var dsts, srcs []ia32.Operand
	if nd > 0 {
		dsts = ops[:nd:nd]
	}
	if len(ops) > nd {
		srcs = ops[nd:]
	}
	return Create(op, dsts, srcs)
}

// binary builds a standard read-modify-write two-operand instruction: the
// destination is also an implicit source.
func binary(op ia32.Opcode, dst, src ia32.Operand) *Instr {
	return createOps(op, 1, dst, src, dst)
}

// unary builds a one-operand read-modify-write instruction.
func unary(op ia32.Opcode, dst ia32.Operand) *Instr {
	return createOps(op, 1, dst, dst)
}

// CreateAdd returns add dst, src.
func CreateAdd(dst, src ia32.Operand) *Instr { return binary(ia32.OpAdd, dst, src) }

// CreateAdc returns adc dst, src.
func CreateAdc(dst, src ia32.Operand) *Instr { return binary(ia32.OpAdc, dst, src) }

// CreateSub returns sub dst, src.
func CreateSub(dst, src ia32.Operand) *Instr { return binary(ia32.OpSub, dst, src) }

// CreateSbb returns sbb dst, src.
func CreateSbb(dst, src ia32.Operand) *Instr { return binary(ia32.OpSbb, dst, src) }

// CreateAnd returns and dst, src.
func CreateAnd(dst, src ia32.Operand) *Instr { return binary(ia32.OpAnd, dst, src) }

// CreateOr returns or dst, src.
func CreateOr(dst, src ia32.Operand) *Instr { return binary(ia32.OpOr, dst, src) }

// CreateXor returns xor dst, src.
func CreateXor(dst, src ia32.Operand) *Instr { return binary(ia32.OpXor, dst, src) }

// CreateCmp returns cmp a, b (no destinations).
func CreateCmp(a, b ia32.Operand) *Instr {
	return Create(ia32.OpCmp, nil, []ia32.Operand{a, b})
}

// CreateTest returns test a, b (no destinations).
func CreateTest(a, b ia32.Operand) *Instr {
	return Create(ia32.OpTest, nil, []ia32.Operand{a, b})
}

// CreateMov returns mov dst, src.
func CreateMov(dst, src ia32.Operand) *Instr {
	return createOps(ia32.OpMov, 1, dst, src)
}

// CreateMovzx returns movzx dst, src.
func CreateMovzx(dst, src ia32.Operand) *Instr {
	return createOps(ia32.OpMovzx, 1, dst, src)
}

// CreateMovsx returns movsx dst, src.
func CreateMovsx(dst, src ia32.Operand) *Instr {
	return createOps(ia32.OpMovsx, 1, dst, src)
}

// CreateLea returns lea dst, [mem].
func CreateLea(dst, mem ia32.Operand) *Instr {
	return createOps(ia32.OpLea, 1, dst, mem)
}

// CreateXchg returns xchg a, b.
func CreateXchg(a, b ia32.Operand) *Instr {
	return createOps(ia32.OpXchg, 2, a, b, a, b)
}

// CreateInc returns inc dst.
func CreateInc(dst ia32.Operand) *Instr { return unary(ia32.OpInc, dst) }

// CreateDec returns dec dst.
func CreateDec(dst ia32.Operand) *Instr { return unary(ia32.OpDec, dst) }

// CreateNeg returns neg dst.
func CreateNeg(dst ia32.Operand) *Instr { return unary(ia32.OpNeg, dst) }

// CreateNot returns not dst.
func CreateNot(dst ia32.Operand) *Instr { return unary(ia32.OpNot, dst) }

// CreateShl returns shl dst, amount (an imm8 or %cl).
func CreateShl(dst, amount ia32.Operand) *Instr { return binary(ia32.OpShl, dst, amount) }

// CreateShr returns shr dst, amount.
func CreateShr(dst, amount ia32.Operand) *Instr { return binary(ia32.OpShr, dst, amount) }

// CreateSar returns sar dst, amount.
func CreateSar(dst, amount ia32.Operand) *Instr { return binary(ia32.OpSar, dst, amount) }

// CreateImul returns imul dst, src (two-operand form).
func CreateImul(dst, src ia32.Operand) *Instr { return binary(ia32.OpImul, dst, src) }

// CreateImulImm returns imul dst, src, imm (three-operand form).
func CreateImulImm(dst, src, imm ia32.Operand) *Instr {
	return createOps(ia32.OpImul, 1, dst, src, imm)
}

// Implicit stack operands.
func stackPushOp() ia32.Operand { return ia32.MemOp(ia32.ESP, ia32.RegNone, 0, -4, 4) }
func stackPopOp() ia32.Operand  { return ia32.MemOp(ia32.ESP, ia32.RegNone, 0, 0, 4) }
func espOp() ia32.Operand       { return ia32.RegOp(ia32.ESP) }

// CreatePush returns push src, with the implicit stack write and ESP update
// filled in.
func CreatePush(src ia32.Operand) *Instr {
	return createOps(ia32.OpPush, 2, stackPushOp(), espOp(), src, espOp())
}

// CreatePop returns pop dst.
func CreatePop(dst ia32.Operand) *Instr {
	return createOps(ia32.OpPop, 2, dst, espOp(), stackPopOp(), espOp())
}

// CreatePushfd returns pushfd.
func CreatePushfd() *Instr {
	return createOps(ia32.OpPushfd, 2, stackPushOp(), espOp(), espOp())
}

// CreatePopfd returns popfd.
func CreatePopfd() *Instr {
	return createOps(ia32.OpPopfd, 1, espOp(), stackPopOp(), espOp())
}

// CreateJmp returns a direct jump to the absolute address target.
func CreateJmp(target uint32) *Instr {
	return Create(ia32.OpJmp, nil, []ia32.Operand{ia32.PCOp(target)})
}

// CreateJmpInstr returns a direct jump to another instruction in the same
// list; the address is resolved at encode time.
func CreateJmpInstr(target *Instr) *Instr {
	i := CreateJmp(0)
	i.SetTargetInstr(target)
	return i
}

// CreateJmpInd returns an indirect jump through src (a register or memory
// operand).
func CreateJmpInd(src ia32.Operand) *Instr {
	return Create(ia32.OpJmpInd, nil, []ia32.Operand{src})
}

// CreateJcc returns a conditional branch with the given opcode (OpJz etc.)
// to the absolute address target.
func CreateJcc(op ia32.Opcode, target uint32) *Instr {
	if _, ok := op.CondCode(); !ok {
		panic("instr: CreateJcc with non-conditional opcode " + op.String())
	}
	return Create(op, nil, []ia32.Operand{ia32.PCOp(target)})
}

// CreateJccInstr returns a conditional branch targeting another instruction
// in the same list.
func CreateJccInstr(op ia32.Opcode, target *Instr) *Instr {
	i := CreateJcc(op, 0)
	i.SetTargetInstr(target)
	return i
}

// CreateCall returns a direct call to the absolute address target.
func CreateCall(target uint32) *Instr {
	return createOps(ia32.OpCall, 2, stackPushOp(), espOp(), ia32.PCOp(target), espOp())
}

// CreateCallInd returns an indirect call through src.
func CreateCallInd(src ia32.Operand) *Instr {
	return createOps(ia32.OpCallInd, 2, stackPushOp(), espOp(), src, espOp())
}

// CreateRet returns a near return.
func CreateRet() *Instr {
	return createOps(ia32.OpRet, 1, espOp(), stackPopOp(), espOp())
}

// CreateSetcc returns setcc dst for the given setcc opcode (OpSetz etc.);
// dst must be an 8-bit register or byte memory operand.
func CreateSetcc(op ia32.Opcode, dst ia32.Operand) *Instr {
	if _, ok := ia32.SetCondCode(op); !ok {
		panic("instr: CreateSetcc with non-setcc opcode " + op.String())
	}
	return Create(op, []ia32.Operand{dst}, nil)
}

// CreateCmovcc returns cmovcc dst, src for the given cmovcc opcode.
func CreateCmovcc(op ia32.Opcode, dst, src ia32.Operand) *Instr {
	if _, ok := ia32.CmovCondCode(op); !ok {
		panic("instr: CreateCmovcc with non-cmovcc opcode " + op.String())
	}
	return createOps(op, 1, dst, src, dst)
}

// CreateNop returns a nop.
func CreateNop() *Instr { return Create(ia32.OpNop, nil, nil) }

// CreateHlt returns a hlt (used by the runtime for trap padding).
func CreateHlt() *Instr { return Create(ia32.OpHlt, nil, nil) }

// CreateInt returns int n (the simulated system-call gate). The vector is
// stored sign-wrapped to fit the signed imm8 operand; consumers read it back
// with a uint8 conversion.
func CreateInt(n int64) *Instr {
	return Create(ia32.OpInt, nil, []ia32.Operand{ia32.Imm8(int64(int8(n)))})
}
