package machine

import (
	"fmt"
	"math/bits"

	"repro/internal/ia32"
)

// iESP is the register-file index of ESP, resolved once.
var iESP = ia32.ESP.Enc()

// ea computes the effective address of a memory operand.
func (m *Machine) ea(c *CPU, o *ia32.Operand) Addr {
	a := uint32(o.Disp)
	if o.Base != ia32.RegNone {
		a += c.R[regDescs[o.Base].idx]
	}
	if o.Index != ia32.RegNone {
		a += c.R[regDescs[o.Index].idx] * uint32(o.Scale)
	}
	return a
}

// readOp reads the value of a source operand (not PC operands).
func (m *Machine) readOp(t *Thread, o *ia32.Operand) uint32 {
	switch o.Kind {
	case ia32.OperandReg:
		return t.CPU.Reg(o.Reg)
	case ia32.OperandImm:
		return uint32(o.Imm)
	case ia32.OperandMem:
		a := m.ea(&t.CPU, o)
		m.Stats.Loads++
		m.Ticks += m.Profile.LoadExtra
		switch o.Size {
		case 1:
			return uint32(m.Mem.Read8(a))
		case 2:
			return uint32(m.Mem.Read16(a))
		default:
			return m.Mem.Read32(a)
		}
	}
	panic(fmt.Sprintf("machine: read of operand kind %d", o.Kind))
}

// writeOp writes v to a destination operand.
func (m *Machine) writeOp(t *Thread, o *ia32.Operand, v uint32) {
	switch o.Kind {
	case ia32.OperandReg:
		t.CPU.SetReg(o.Reg, v)
		return
	case ia32.OperandMem:
		a := m.ea(&t.CPU, o)
		m.Stats.Stores++
		m.Ticks += m.Profile.StoreExtra
		switch o.Size {
		case 1:
			m.Mem.Write8(a, uint8(v))
		case 2:
			m.Mem.Write16(a, uint16(v))
		default:
			m.Mem.Write32(a, v)
		}
		return
	}
	panic(fmt.Sprintf("machine: write of operand kind %d", o.Kind))
}

// signBits and sizeMasks index by operand size in bytes (1, 2 or 4; any
// other value behaves as 32-bit, matching the historical switch defaults).
var signBits = [8]uint32{
	0x80000000, 0x80, 0x8000, 0x80000000,
	0x80000000, 0x80000000, 0x80000000, 0x80000000,
}

var sizeMasks = [8]uint32{
	0xffffffff, 0xff, 0xffff, 0xffffffff,
	0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff,
}

func signBit(size uint8) uint32 { return signBits[size&7] }

func sizeMask(size uint8) uint32 { return sizeMasks[size&7] }

// parity returns the IA-32 parity flag value (set if the low byte has an
// even number of set bits).
func parity(v uint32) bool {
	return bits.OnesCount8(uint8(v))&1 == 0
}

// setSZP sets SF, ZF and PF from result r of the given size, clearing the
// old values.
func (c *CPU) setSZP(r uint32, size uint8) {
	c.Eflags &^= ia32.FlagSF | ia32.FlagZF | ia32.FlagPF
	mask := sizeMask(size)
	if r&mask == 0 {
		c.Eflags |= ia32.FlagZF
	}
	if r&signBit(size) != 0 {
		c.Eflags |= ia32.FlagSF
	}
	if parity(r) {
		c.Eflags |= ia32.FlagPF
	}
}

// condHolds evaluates an IA-32 condition code against the flags.
func condHolds(cc uint8, f uint32) bool {
	var v bool
	switch cc >> 1 {
	case 0: // O
		v = f&ia32.FlagOF != 0
	case 1: // B
		v = f&ia32.FlagCF != 0
	case 2: // Z
		v = f&ia32.FlagZF != 0
	case 3: // BE
		v = f&(ia32.FlagCF|ia32.FlagZF) != 0
	case 4: // S
		v = f&ia32.FlagSF != 0
	case 5: // P
		v = f&ia32.FlagPF != 0
	case 6: // L
		v = (f&ia32.FlagSF != 0) != (f&ia32.FlagOF != 0)
	case 7: // LE
		v = f&ia32.FlagZF != 0 || (f&ia32.FlagSF != 0) != (f&ia32.FlagOF != 0)
	}
	if cc&1 != 0 {
		return !v
	}
	return v
}

// opSizeOf returns the operation size of an instruction from its first
// explicit operand.
func opSizeOf(in *ia32.Inst) uint8 {
	if len(in.Dsts) > 0 {
		if s := opndSize(&in.Dsts[0]); s != 0 {
			return s
		}
	}
	if len(in.Srcs) > 0 {
		if s := opndSize(&in.Srcs[0]); s != 0 {
			return s
		}
	}
	return 4
}

func opndSize(o *ia32.Operand) uint8 {
	switch o.Kind {
	case ia32.OperandReg:
		return o.Reg.Size()
	case ia32.OperandMem:
		return o.Size
	}
	return 0
}

// execThunk executes one decoded-and-resolved instruction. Thunks are chosen
// once at decode time (see resolve), replacing the per-step opcode switch;
// each thunk updates architectural state, the cycle count, predictors and
// statistics, and leaves EIP at the next instruction to execute.
type execThunk func(m *Machine, t *Thread, ci *cachedInst) error

// thunks maps each opcode to its execution thunk. Conditional branches,
// setcc and cmovcc share one thunk per class; the condition code is
// pre-extracted into the cachedInst at decode time.
var thunks [ia32.NumOpcodes]execThunk

func init() {
	thunks[ia32.OpNop] = execNop
	thunks[ia32.OpMov] = execMov
	thunks[ia32.OpMovzx] = execMovzx
	thunks[ia32.OpMovsx] = execMovsx
	thunks[ia32.OpLea] = execLea
	thunks[ia32.OpXchg] = execXchg
	thunks[ia32.OpAdd] = execAdd
	thunks[ia32.OpAdc] = execAdc
	thunks[ia32.OpSub] = execSub
	thunks[ia32.OpSbb] = execSbb
	thunks[ia32.OpCmp] = execCmp
	thunks[ia32.OpInc] = execInc
	thunks[ia32.OpDec] = execDec
	thunks[ia32.OpNeg] = execNeg
	thunks[ia32.OpNot] = execNot
	thunks[ia32.OpAnd] = execAnd
	thunks[ia32.OpTest] = execTest
	thunks[ia32.OpOr] = execOr
	thunks[ia32.OpXor] = execXor
	thunks[ia32.OpImul] = execImul
	thunks[ia32.OpDiv] = execDiv
	thunks[ia32.OpShl] = execShl
	thunks[ia32.OpShr] = execShr
	thunks[ia32.OpSar] = execSar
	thunks[ia32.OpRol] = execRol
	thunks[ia32.OpRor] = execRor
	thunks[ia32.OpBswap] = execBswap
	thunks[ia32.OpXadd] = execXadd
	thunks[ia32.OpPush] = execPush
	thunks[ia32.OpPop] = execPop
	thunks[ia32.OpPushfd] = execPushfd
	thunks[ia32.OpPopfd] = execPopfd
	thunks[ia32.OpJmp] = execJmp
	thunks[ia32.OpJmpInd] = execJmpInd
	thunks[ia32.OpCall] = execCall
	thunks[ia32.OpCallInd] = execCallInd
	thunks[ia32.OpRet] = execRet
	thunks[ia32.OpHlt] = execHlt
	thunks[ia32.OpInt] = execInt
	for cc := uint8(0); cc < 16; cc++ {
		thunks[ia32.OpJo+ia32.Opcode(cc)] = execJcc
		thunks[ia32.Setcc(cc)] = execSetcc
		thunks[ia32.Cmovcc(cc)] = execCmovcc
	}
}

// resolve fills in the pre-computed execution state of a freshly decoded
// instruction: the thunk, the fall-through EIP, the profile's base cost, and
// whatever the thunk would otherwise re-derive every step (operation size,
// condition code, direct branch target).
func (m *Machine) resolve(ci *cachedInst, pc Addr) {
	in := &ci.inst
	ci.next = pc + Addr(in.Len)
	ci.cost = m.Profile.OpCost(in.Op)
	ci.fn = thunks[in.Op]
	if ci.fn == nil {
		ci.fn = execUnknown
	}
	switch in.Op {
	case ia32.OpAdd, ia32.OpAdc, ia32.OpSub, ia32.OpSbb, ia32.OpInc, ia32.OpDec,
		ia32.OpNeg, ia32.OpAnd, ia32.OpOr, ia32.OpXor, ia32.OpShl, ia32.OpShr,
		ia32.OpSar, ia32.OpRol, ia32.OpRor, ia32.OpXadd:
		ci.size = opSizeOf(in)
	case ia32.OpCmp, ia32.OpTest:
		ci.size = 4
		if s := opndSize(&in.Srcs[0]); s != 0 {
			ci.size = s
		}
	case ia32.OpMovzx:
		ci.size = in.Srcs[0].Size
	case ia32.OpMovsx:
		ci.size = opndSize(&in.Srcs[0])
	case ia32.OpJmp, ia32.OpCall:
		ci.target, _ = in.Target()
	case ia32.OpRet:
		if in.Srcs[0].Kind == ia32.OperandImm { // ret imm16: extra stack pop
			ci.target = uint32(in.Srcs[0].Imm) & 0xffff
		}
	case ia32.OpInt:
		ci.cc = uint8(in.Srcs[0].Imm)
	default:
		if cc, ok := ia32.SetCondCode(in.Op); ok {
			ci.cc = cc
		} else if cc, ok := ia32.CmovCondCode(in.Op); ok {
			ci.cc = cc
		} else if cc, ok := in.Op.CondCode(); ok {
			ci.cc = cc
			ci.target, _ = in.Target()
		}
	}
	specialize(ci)
}

// isR32 reports whether o is a 32-bit register operand, returning its
// register-file index.
func isR32(o *ia32.Operand) (uint8, bool) {
	if o.Kind == ia32.OperandReg && o.Reg.Is32() {
		return regDescs[o.Reg].idx, true
	}
	return 0, false
}

// specialize replaces the generic thunk with a form-specific one for the
// dominant 32-bit register/immediate/memory shapes, bypassing the operand
// interpreters (readOp/writeOp) entirely. Specialized thunks charge exactly
// the same ticks and bump exactly the same statistics as the generic path —
// simulation results are bit-identical, only host time changes.
func specialize(ci *cachedInst) {
	in := &ci.inst
	switch in.Op {
	case ia32.OpMov:
		d, s := &in.Dsts[0], &in.Srcs[0]
		if r, ok := isR32(d); ok {
			ci.r1 = r
			if r2, ok := isR32(s); ok {
				ci.r2 = r2
				ci.fn = execMovRR32
			} else if s.Kind == ia32.OperandImm {
				ci.imm = uint32(s.Imm)
				ci.fn = execMovRI32
			} else if s.Kind == ia32.OperandMem && s.Size == 4 {
				ci.fn = execMovRM32
			}
		} else if d.Kind == ia32.OperandMem && d.Size == 4 {
			if r, ok := isR32(s); ok {
				ci.r1 = r
				ci.fn = execMovMR32
			}
		}
	case ia32.OpAdd, ia32.OpSub, ia32.OpAnd, ia32.OpOr, ia32.OpXor:
		d, s := &in.Dsts[0], &in.Srcs[0]
		r, ok := isR32(d)
		if !ok {
			return
		}
		ci.r1 = r
		if r2, ok := isR32(s); ok {
			ci.r2 = r2
			switch in.Op {
			case ia32.OpAdd:
				ci.fn = execAddRR32
			case ia32.OpSub:
				ci.fn = execSubRR32
			case ia32.OpAnd:
				ci.fn = execAndRR32
			case ia32.OpOr:
				ci.fn = execOrRR32
			case ia32.OpXor:
				ci.fn = execXorRR32
			}
		} else if s.Kind == ia32.OperandImm {
			ci.imm = uint32(s.Imm)
			switch in.Op {
			case ia32.OpAdd:
				ci.fn = execAddRI32
			case ia32.OpSub:
				ci.fn = execSubRI32
			case ia32.OpAnd:
				ci.fn = execAndRI32
			case ia32.OpOr:
				ci.fn = execOrRI32
			case ia32.OpXor:
				ci.fn = execXorRI32
			}
		}
	case ia32.OpCmp, ia32.OpTest:
		a, b := &in.Srcs[0], &in.Srcs[1]
		r, ok := isR32(a)
		if !ok {
			return
		}
		ci.r1 = r
		if r2, ok := isR32(b); ok {
			ci.r2 = r2
			if in.Op == ia32.OpCmp {
				ci.fn = execCmpRR32
			} else {
				ci.fn = execTestRR32
			}
		} else if b.Kind == ia32.OperandImm {
			ci.imm = uint32(b.Imm)
			if in.Op == ia32.OpCmp {
				ci.fn = execCmpRI32
			} else {
				ci.fn = execTestRI32
			}
		}
	case ia32.OpInc, ia32.OpDec:
		if r, ok := isR32(&in.Dsts[0]); ok {
			ci.r1 = r
			if in.Op == ia32.OpInc {
				ci.fn = execIncR32
			} else {
				ci.fn = execDecR32
			}
		}
	}
}

func execMovRR32(m *Machine, t *Thread, ci *cachedInst) error {
	t.CPU.R[ci.r1&7] = t.CPU.R[ci.r2&7]
	t.CPU.EIP = ci.next
	return nil
}

func execMovRI32(m *Machine, t *Thread, ci *cachedInst) error {
	t.CPU.R[ci.r1&7] = ci.imm
	t.CPU.EIP = ci.next
	return nil
}

func execMovRM32(m *Machine, t *Thread, ci *cachedInst) error {
	a := m.ea(&t.CPU, &ci.inst.Srcs[0])
	m.Stats.Loads++
	m.Ticks += m.Profile.LoadExtra
	t.CPU.R[ci.r1&7] = m.Mem.Read32(a)
	t.CPU.EIP = ci.next
	return nil
}

func execMovMR32(m *Machine, t *Thread, ci *cachedInst) error {
	a := m.ea(&t.CPU, &ci.inst.Dsts[0])
	m.Stats.Stores++
	m.Ticks += m.Profile.StoreExtra
	m.Mem.Write32(a, t.CPU.R[ci.r1&7])
	t.CPU.EIP = ci.next
	return nil
}

func execAddRR32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.R[ci.r1&7] = c.flagsAdd(c.R[ci.r1&7], c.R[ci.r2&7], 0, 4)
	c.EIP = ci.next
	return nil
}

func execAddRI32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.R[ci.r1&7] = c.flagsAdd(c.R[ci.r1&7], ci.imm, 0, 4)
	c.EIP = ci.next
	return nil
}

func execSubRR32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.R[ci.r1&7] = c.flagsSub(c.R[ci.r1&7], c.R[ci.r2&7], 0, 4)
	c.EIP = ci.next
	return nil
}

func execSubRI32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.R[ci.r1&7] = c.flagsSub(c.R[ci.r1&7], ci.imm, 0, 4)
	c.EIP = ci.next
	return nil
}

func execAndRR32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.R[ci.r1&7] = c.flagsLogic(c.R[ci.r1&7]&c.R[ci.r2&7], 4)
	c.EIP = ci.next
	return nil
}

func execAndRI32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.R[ci.r1&7] = c.flagsLogic(c.R[ci.r1&7]&ci.imm, 4)
	c.EIP = ci.next
	return nil
}

func execOrRR32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.R[ci.r1&7] = c.flagsLogic(c.R[ci.r1&7]|c.R[ci.r2&7], 4)
	c.EIP = ci.next
	return nil
}

func execOrRI32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.R[ci.r1&7] = c.flagsLogic(c.R[ci.r1&7]|ci.imm, 4)
	c.EIP = ci.next
	return nil
}

func execXorRR32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.R[ci.r1&7] = c.flagsLogic(c.R[ci.r1&7]^c.R[ci.r2&7], 4)
	c.EIP = ci.next
	return nil
}

func execXorRI32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.R[ci.r1&7] = c.flagsLogic(c.R[ci.r1&7]^ci.imm, 4)
	c.EIP = ci.next
	return nil
}

func execCmpRR32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.flagsSub(c.R[ci.r1&7], c.R[ci.r2&7], 0, 4)
	c.EIP = ci.next
	return nil
}

func execCmpRI32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.flagsSub(c.R[ci.r1&7], ci.imm, 0, 4)
	c.EIP = ci.next
	return nil
}

func execTestRR32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.flagsLogic(c.R[ci.r1&7]&c.R[ci.r2&7], 4)
	c.EIP = ci.next
	return nil
}

func execTestRI32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.flagsLogic(c.R[ci.r1&7]&ci.imm, 4)
	c.EIP = ci.next
	return nil
}

func execIncR32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.R[ci.r1&7] = c.flagsInc(c.R[ci.r1&7], 4)
	c.EIP = ci.next
	return nil
}

func execDecR32(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	c.R[ci.r1&7] = c.flagsDec(c.R[ci.r1&7], 4)
	c.EIP = ci.next
	return nil
}

func execUnknown(m *Machine, t *Thread, ci *cachedInst) error {
	// Decodable but unimplemented is an architectural #UD on this thread
	// alone; one bad instruction must not abort a whole multi-thread run.
	return &Fault{Kind: FaultUD}
}

func execNop(m *Machine, t *Thread, ci *cachedInst) error {
	t.CPU.EIP = ci.next
	return nil
}

func execMov(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	m.writeOp(t, &in.Dsts[0], m.readOp(t, &in.Srcs[0]))
	t.CPU.EIP = ci.next
	return nil
}

func execMovzx(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	v := m.readOp(t, &in.Srcs[0]) & sizeMask(ci.size)
	m.writeOp(t, &in.Dsts[0], v)
	t.CPU.EIP = ci.next
	return nil
}

func execMovsx(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	v := m.readOp(t, &in.Srcs[0])
	if ci.size == 1 {
		v = uint32(int32(int8(v)))
	} else {
		v = uint32(int32(int16(v)))
	}
	m.writeOp(t, &in.Dsts[0], v)
	t.CPU.EIP = ci.next
	return nil
}

func execLea(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	m.writeOp(t, &in.Dsts[0], m.ea(&t.CPU, &in.Srcs[0]))
	t.CPU.EIP = ci.next
	return nil
}

func execXchg(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	a := m.readOp(t, &in.Dsts[0])
	b := m.readOp(t, &in.Dsts[1])
	m.writeOp(t, &in.Dsts[0], b)
	m.writeOp(t, &in.Dsts[1], a)
	t.CPU.EIP = ci.next
	return nil
}

func execAdd(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	a := m.readOp(t, &in.Dsts[0])
	b := m.readOp(t, &in.Srcs[0])
	m.writeOp(t, &in.Dsts[0], t.CPU.flagsAdd(a, b, 0, ci.size))
	t.CPU.EIP = ci.next
	return nil
}

func execAdc(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	carry := t.CPU.carry()
	a := m.readOp(t, &in.Dsts[0])
	b := m.readOp(t, &in.Srcs[0])
	m.writeOp(t, &in.Dsts[0], t.CPU.flagsAdd(a, b, carry, ci.size))
	t.CPU.EIP = ci.next
	return nil
}

func execSub(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	a := m.readOp(t, &in.Dsts[0])
	b := m.readOp(t, &in.Srcs[0])
	m.writeOp(t, &in.Dsts[0], t.CPU.flagsSub(a, b, 0, ci.size))
	t.CPU.EIP = ci.next
	return nil
}

func execSbb(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	borrow := t.CPU.carry()
	a := m.readOp(t, &in.Dsts[0])
	b := m.readOp(t, &in.Srcs[0])
	m.writeOp(t, &in.Dsts[0], t.CPU.flagsSub(a, b, borrow, ci.size))
	t.CPU.EIP = ci.next
	return nil
}

func execCmp(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	a := m.readOp(t, &in.Srcs[0])
	b := m.readOp(t, &in.Srcs[1])
	t.CPU.flagsSub(a, b, 0, ci.size)
	t.CPU.EIP = ci.next
	return nil
}

func execInc(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	c := &t.CPU
	a := m.readOp(t, &in.Dsts[0])
	r := c.flagsInc(a, ci.size)
	m.writeOp(t, &in.Dsts[0], r)
	c.EIP = ci.next
	return nil
}

func execDec(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	c := &t.CPU
	a := m.readOp(t, &in.Dsts[0])
	r := c.flagsDec(a, ci.size)
	m.writeOp(t, &in.Dsts[0], r)
	c.EIP = ci.next
	return nil
}

func execNeg(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	a := m.readOp(t, &in.Dsts[0])
	m.writeOp(t, &in.Dsts[0], t.CPU.flagsSub(0, a, 0, ci.size))
	t.CPU.EIP = ci.next
	return nil
}

func execNot(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	a := m.readOp(t, &in.Dsts[0])
	m.writeOp(t, &in.Dsts[0], ^a)
	t.CPU.EIP = ci.next
	return nil
}

func execAnd(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	a := m.readOp(t, &in.Dsts[0])
	b := m.readOp(t, &in.Srcs[0])
	m.writeOp(t, &in.Dsts[0], t.CPU.flagsLogic(a&b, ci.size))
	t.CPU.EIP = ci.next
	return nil
}

func execTest(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	a := m.readOp(t, &in.Srcs[0])
	b := m.readOp(t, &in.Srcs[1])
	t.CPU.flagsLogic(a&b, ci.size)
	t.CPU.EIP = ci.next
	return nil
}

func execOr(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	a := m.readOp(t, &in.Dsts[0])
	b := m.readOp(t, &in.Srcs[0])
	m.writeOp(t, &in.Dsts[0], t.CPU.flagsLogic(a|b, ci.size))
	t.CPU.EIP = ci.next
	return nil
}

func execXor(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	a := m.readOp(t, &in.Dsts[0])
	b := m.readOp(t, &in.Srcs[0])
	m.writeOp(t, &in.Dsts[0], t.CPU.flagsLogic(a^b, ci.size))
	t.CPU.EIP = ci.next
	return nil
}

func execImul(m *Machine, t *Thread, ci *cachedInst) error {
	// Two-operand: dst *= src0. Three-operand: dst = src0 * imm.
	in := &ci.inst
	c := &t.CPU
	a := int64(int32(m.readOp(t, &in.Srcs[0])))
	var b int64
	if in.Srcs[1].Kind == ia32.OperandImm {
		b = in.Srcs[1].Imm
	} else {
		b = int64(int32(m.readOp(t, &in.Dsts[0])))
	}
	wide := a * b
	r := uint32(wide)
	c.lazy.op = lazyNone // all six flags are written here
	c.Eflags &^= ia32.FlagsAll
	if wide != int64(int32(r)) {
		c.Eflags |= ia32.FlagCF | ia32.FlagOF
	}
	c.setSZP(r, 4)
	m.writeOp(t, &in.Dsts[0], r)
	c.EIP = ci.next
	return nil
}

func execDiv(m *Machine, t *Thread, ci *cachedInst) error {
	// Unsigned edx:eax / src -> eax quotient, edx remainder. A zero
	// divisor or a quotient that does not fit 32 bits raises #DE before
	// any state changes, keeping the instruction boundary precise.
	c := &t.CPU
	d := m.readOp(t, &ci.inst.Srcs[0])
	if d == 0 {
		return &Fault{Kind: FaultDivide}
	}
	n := uint64(c.R[2])<<32 | uint64(c.R[0]) // edx:eax
	q := n / uint64(d)
	if q > 0xFFFFFFFF {
		return &Fault{Kind: FaultDivide}
	}
	c.R[0] = uint32(q)
	c.R[2] = uint32(n % uint64(d))
	// The real instruction leaves all six flags undefined; clearing them
	// is the deterministic choice.
	c.lazy.op = lazyNone
	c.Eflags &^= ia32.FlagsAll
	c.EIP = ci.next
	return nil
}

// finishShift applies the shared flag semantics of shl/shr/sar and stores
// the (unmasked) result r, with cf the shifted-out bit and a the original
// value.
func (m *Machine) finishShift(t *Thread, ci *cachedInst, a, r, cf uint32) {
	c := &t.CPU
	r &= sizeMask(ci.size)
	c.lazy.op = lazyNone // all six flags are written here
	c.Eflags &^= ia32.FlagsAll
	if cf != 0 {
		c.Eflags |= ia32.FlagCF
	}
	if (a^r)&signBit(ci.size) != 0 {
		c.Eflags |= ia32.FlagOF
	}
	c.setSZP(r, ci.size)
	m.writeOp(t, &ci.inst.Dsts[0], r)
	c.EIP = ci.next
}

func execShl(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	amt := m.readOp(t, &in.Srcs[0]) & 31
	a := m.readOp(t, &in.Dsts[0]) & sizeMask(ci.size)
	if amt == 0 {
		m.writeOp(t, &in.Dsts[0], a)
		t.CPU.EIP = ci.next
		return nil
	}
	r := a << amt
	cf := (a >> (uint32(ci.size)*8 - amt)) & 1
	m.finishShift(t, ci, a, r, cf)
	return nil
}

func execShr(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	amt := m.readOp(t, &in.Srcs[0]) & 31
	a := m.readOp(t, &in.Dsts[0]) & sizeMask(ci.size)
	if amt == 0 {
		m.writeOp(t, &in.Dsts[0], a)
		t.CPU.EIP = ci.next
		return nil
	}
	r := a >> amt
	cf := (a >> (amt - 1)) & 1
	m.finishShift(t, ci, a, r, cf)
	return nil
}

func execSar(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	amt := m.readOp(t, &in.Srcs[0]) & 31
	a := m.readOp(t, &in.Dsts[0]) & sizeMask(ci.size)
	if amt == 0 {
		m.writeOp(t, &in.Dsts[0], a)
		t.CPU.EIP = ci.next
		return nil
	}
	bits := uint32(ci.size) * 8
	sa := int32(a<<(32-bits)) >> (32 - bits) // sign-extend to 32 bits
	r := uint32(sa >> amt)
	cf := uint32(sa>>(amt-1)) & 1
	m.finishShift(t, ci, a, r, cf)
	return nil
}

func execRol(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	c := &t.CPU
	bits := uint32(ci.size) * 8
	amt := m.readOp(t, &in.Srcs[0]) & 31 % bits
	a := m.readOp(t, &in.Dsts[0]) & sizeMask(ci.size)
	if amt == 0 {
		m.writeOp(t, &in.Dsts[0], a)
		c.EIP = ci.next
		return nil
	}
	r := (a<<amt | a>>(bits-amt)) & sizeMask(ci.size)
	cf := r & 1
	c.materialize() // rol writes only CF and OF
	c.Eflags &^= ia32.FlagCF | ia32.FlagOF
	if cf != 0 {
		c.Eflags |= ia32.FlagCF
	}
	if (a^r)&signBit(ci.size) != 0 {
		c.Eflags |= ia32.FlagOF
	}
	m.writeOp(t, &in.Dsts[0], r)
	c.EIP = ci.next
	return nil
}

func execRor(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	c := &t.CPU
	bits := uint32(ci.size) * 8
	amt := m.readOp(t, &in.Srcs[0]) & 31 % bits
	a := m.readOp(t, &in.Dsts[0]) & sizeMask(ci.size)
	if amt == 0 {
		m.writeOp(t, &in.Dsts[0], a)
		c.EIP = ci.next
		return nil
	}
	r := (a>>amt | a<<(bits-amt)) & sizeMask(ci.size)
	cf := r >> (bits - 1) & 1
	c.materialize() // ror writes only CF and OF
	c.Eflags &^= ia32.FlagCF | ia32.FlagOF
	if cf != 0 {
		c.Eflags |= ia32.FlagCF
	}
	if (a^r)&signBit(ci.size) != 0 {
		c.Eflags |= ia32.FlagOF
	}
	m.writeOp(t, &in.Dsts[0], r)
	c.EIP = ci.next
	return nil
}

func execBswap(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	a := m.readOp(t, &in.Dsts[0])
	m.writeOp(t, &in.Dsts[0],
		a<<24|a>>24|(a&0xff00)<<8|(a>>8)&0xff00)
	t.CPU.EIP = ci.next
	return nil
}

func execXadd(m *Machine, t *Thread, ci *cachedInst) error {
	// xadd rm, r: r gets the old rm value, rm gets the sum.
	in := &ci.inst
	a := m.readOp(t, &in.Dsts[0])
	b := m.readOp(t, &in.Dsts[1])
	sum := t.CPU.flagsAdd(a, b, 0, ci.size)
	m.writeOp(t, &in.Dsts[1], a)
	m.writeOp(t, &in.Dsts[0], sum)
	t.CPU.EIP = ci.next
	return nil
}

func execPush(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	c := &t.CPU
	v := m.readOp(t, &in.Srcs[0])
	sp := c.R[iESP] - 4
	c.R[iESP] = sp
	m.Stats.Stores++
	m.Ticks += m.Profile.StoreExtra
	m.Mem.Write32(sp, v)
	c.EIP = ci.next
	return nil
}

func execPop(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	c := &t.CPU
	sp := c.R[iESP]
	m.Stats.Loads++
	m.Ticks += m.Profile.LoadExtra
	v := m.Mem.Read32(sp)
	c.R[iESP] = sp + 4
	m.writeOp(t, &in.Dsts[0], v)
	c.EIP = ci.next
	return nil
}

func execPushfd(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	sp := c.R[iESP] - 4
	c.R[iESP] = sp
	m.Stats.Stores++
	m.Ticks += m.Profile.StoreExtra
	c.materialize()
	m.Mem.Write32(sp, c.Eflags|0x2) // bit 1 always set on IA-32
	c.EIP = ci.next
	return nil
}

func execPopfd(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	sp := c.R[iESP]
	m.Stats.Loads++
	m.Ticks += m.Profile.LoadExtra
	c.lazy.op = lazyNone
	c.Eflags = m.Mem.Read32(sp) & ia32.FlagsAll
	c.R[iESP] = sp + 4
	c.EIP = ci.next
	return nil
}

func execJmp(m *Machine, t *Thread, ci *cachedInst) error {
	m.Stats.TakenBranches++
	m.Ticks += m.Profile.TakenBranchExtra
	t.CPU.EIP = ci.target
	return nil
}

func execJmpInd(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	pc := t.CPU.EIP
	target := m.readOp(t, &in.Srcs[0])
	m.Stats.IndBranches++
	m.Stats.TakenBranches++
	m.Ticks += m.Profile.TakenBranchExtra
	if !t.pred.predictIndirect(pc, target) {
		m.Stats.IndMispred++
		m.Ticks += m.Profile.MispredictPenalty
	}
	t.CPU.EIP = target
	return nil
}

func execCall(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	sp := c.R[iESP] - 4
	c.R[iESP] = sp
	m.Stats.Stores++
	m.Ticks += m.Profile.StoreExtra
	m.Mem.Write32(sp, ci.next)
	t.pred.pushRAS(ci.next)
	m.Stats.TakenBranches++
	m.Ticks += m.Profile.TakenBranchExtra
	c.EIP = ci.target
	return nil
}

func execCallInd(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	c := &t.CPU
	pc := c.EIP
	target := m.readOp(t, &in.Srcs[0])
	sp := c.R[iESP] - 4
	c.R[iESP] = sp
	m.Stats.Stores++
	m.Ticks += m.Profile.StoreExtra
	m.Mem.Write32(sp, ci.next)
	t.pred.pushRAS(ci.next)
	m.Stats.IndBranches++
	m.Stats.TakenBranches++
	m.Ticks += m.Profile.TakenBranchExtra
	if !t.pred.predictIndirect(pc, target) {
		m.Stats.IndMispred++
		m.Ticks += m.Profile.MispredictPenalty
	}
	c.EIP = target
	return nil
}

func execRet(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	sp := c.R[iESP]
	m.Stats.Loads++
	m.Ticks += m.Profile.LoadExtra
	target := m.Mem.Read32(sp)
	sp += 4 + ci.target // ci.target holds the ret imm16 stack adjustment
	c.R[iESP] = sp
	m.Stats.Rets++
	m.Stats.TakenBranches++
	m.Ticks += m.Profile.TakenBranchExtra
	if !t.pred.predictRet(target) {
		m.Stats.RetMispred++
		m.Ticks += m.Profile.MispredictPenalty
	}
	c.EIP = target
	return nil
}

func execHlt(m *Machine, t *Thread, ci *cachedInst) error {
	m.haltThread(t)
	return nil
}

func execInt(m *Machine, t *Thread, ci *cachedInst) error {
	m.Stats.Syscalls++
	t.CPU.materialize() // the syscall and the hooks it runs see exact flags
	t.CPU.EIP = ci.next
	return m.syscall(t, ci.cc) // ci.cc holds the interrupt vector
}

func execSetcc(m *Machine, t *Thread, ci *cachedInst) error {
	v := uint32(0)
	t.CPU.materialize()
	if condHolds(ci.cc, t.CPU.Eflags) {
		v = 1
	}
	m.writeOp(t, &ci.inst.Dsts[0], v)
	t.CPU.EIP = ci.next
	return nil
}

func execCmovcc(m *Machine, t *Thread, ci *cachedInst) error {
	in := &ci.inst
	v := m.readOp(t, &in.Srcs[0])
	t.CPU.materialize()
	if condHolds(ci.cc, t.CPU.Eflags) {
		m.writeOp(t, &in.Dsts[0], v)
	}
	t.CPU.EIP = ci.next
	return nil
}

func execJcc(m *Machine, t *Thread, ci *cachedInst) error {
	c := &t.CPU
	pc := c.EIP
	c.materialize()
	taken := condHolds(ci.cc, c.Eflags)
	m.Stats.CondBranches++
	if !t.pred.predictCond(pc, taken) {
		m.Stats.CondMispred++
		m.Ticks += m.Profile.MispredictPenalty
	}
	if taken {
		m.Stats.TakenBranches++
		m.Ticks += m.Profile.TakenBranchExtra
		c.EIP = ci.target
	} else {
		c.EIP = ci.next
	}
	return nil
}
