// Package ia32 defines the IA-32 subset instruction set architecture used by
// the whole system: registers, condition flags, operands, opcodes, and the
// binary instruction format (variable-length encoding with ModRM/SIB bytes,
// displacement and immediate fields, and instruction prefixes).
//
// The package provides three decoding strategies of increasing cost,
// mirroring the adaptive level-of-detail representation of the paper:
//
//   - BoundaryLen: find the instruction length only (Levels 0 and 1)
//   - DecodeOpcode: length, opcode and eflags effects (Level 2)
//   - Decode: full decode of all operands, explicit and implicit (Level 3),
//     on top of DecodeOperands, which writes them into caller storage
//     without allocating
//
// and a template-matching encoder (Encode) that walks the operand lists of an
// instruction and searches the opcode's encoding templates for one that
// matches, exactly as the paper describes for Level 4 encoding.
package ia32

import "fmt"

// Reg names a machine register. The zero value RegNone means "no register";
// it is used for absent base/index registers in memory operands.
//
// The 32-bit general-purpose registers are declared in IA-32 encoding order
// (EAX=0 ... EDI=7 after subtracting regGPRBase), so converting between a Reg
// and its 3-bit encoding is arithmetic.
type Reg uint8

const (
	RegNone Reg = iota

	// 32-bit general-purpose registers, in hardware encoding order.
	EAX
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI

	// 8-bit registers, in hardware encoding order (AL=0 ... BH=7).
	AL
	CL
	DL
	BL
	AH
	CH
	DH
	BH

	// 16-bit registers, in hardware encoding order (AX=0 ... DI=7).
	AX
	CX
	DX
	BX
	SP
	BP
	SI
	DI

	regLast
)

// NumGPR is the number of 32-bit general-purpose registers.
const NumGPR = 8

const (
	regGPRBase  = EAX
	reg8Base    = AL
	reg16Base   = AX
	regGPRCount = 8
)

var regNames = [...]string{
	RegNone: "<none>",
	EAX:     "eax", ECX: "ecx", EDX: "edx", EBX: "ebx",
	ESP: "esp", EBP: "ebp", ESI: "esi", EDI: "edi",
	AL: "al", CL: "cl", DL: "dl", BL: "bl",
	AH: "ah", CH: "ch", DH: "dh", BH: "bh",
	AX: "ax", CX: "cx", DX: "dx", BX: "bx",
	SP: "sp", BP: "bp", SI: "si", DI: "di",
}

// String returns the conventional lower-case name of the register.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("Reg(%d)", uint8(r))
}

// Valid reports whether r names an actual register (not RegNone).
func (r Reg) Valid() bool { return r > RegNone && r < regLast }

// Is32 reports whether r is a 32-bit general-purpose register.
func (r Reg) Is32() bool { return r >= regGPRBase && r < regGPRBase+regGPRCount }

// Is16 reports whether r is a 16-bit register.
func (r Reg) Is16() bool { return r >= reg16Base && r < reg16Base+regGPRCount }

// Is8 reports whether r is an 8-bit register.
func (r Reg) Is8() bool { return r >= reg8Base && r < reg8Base+regGPRCount }

// Size returns the width of the register in bytes (4, 2 or 1), or 0 for
// RegNone.
func (r Reg) Size() uint8 {
	switch {
	case r.Is32():
		return 4
	case r.Is16():
		return 2
	case r.Is8():
		return 1
	default:
		return 0
	}
}

// Enc returns the 3-bit hardware encoding of the register within its width
// class. It panics if r is RegNone.
func (r Reg) Enc() uint8 {
	switch {
	case r.Is32():
		return uint8(r - regGPRBase)
	case r.Is8():
		return uint8(r - reg8Base)
	case r.Is16():
		return uint8(r - reg16Base)
	}
	panic("ia32: Enc of invalid register " + r.String())
}

// Full returns the 32-bit register that contains r. For example, AH.Full()
// and AX.Full() are both EAX. For a 32-bit register it returns r itself.
func (r Reg) Full() Reg {
	switch {
	case r.Is32():
		return r
	case r.Is8():
		// AL..BL overlay EAX..EBX low bytes; AH..BH overlay the same
		// four registers' second bytes.
		e := r - reg8Base
		if e >= 4 {
			e -= 4
		}
		return regGPRBase + e
	case r.Is16():
		return regGPRBase + (r - reg16Base)
	}
	return RegNone
}

// IsHigh8 reports whether r is one of the high-byte registers AH, CH, DH, BH.
func (r Reg) IsHigh8() bool { return r >= AH && r <= BH }

// Reg32 returns the 32-bit register with hardware encoding enc (0-7).
func Reg32(enc uint8) Reg { return regGPRBase + Reg(enc&7) }

// Reg8 returns the 8-bit register with hardware encoding enc (0-7).
func Reg8(enc uint8) Reg { return reg8Base + Reg(enc&7) }

// Reg16 returns the 16-bit register with hardware encoding enc (0-7).
func Reg16(enc uint8) Reg { return reg16Base + Reg(enc&7) }

// RegBySize returns the register with hardware encoding enc of the given
// width in bytes.
func RegBySize(enc uint8, size uint8) Reg {
	switch size {
	case 4:
		return Reg32(enc)
	case 2:
		return Reg16(enc)
	case 1:
		return Reg8(enc)
	}
	panic(fmt.Sprintf("ia32: RegBySize with size %d", size))
}

// RegByName returns the register with the given lower-case name, or RegNone
// if the name is unknown.
func RegByName(name string) Reg {
	for r, n := range regNames {
		if Reg(r) != RegNone && n == name {
			return Reg(r)
		}
	}
	return RegNone
}
