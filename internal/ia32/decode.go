package ia32

import (
	"errors"
	"fmt"
)

// Decode errors.
var (
	ErrTruncated     = errors.New("ia32: truncated instruction")
	ErrInvalidOpcode = errors.New("ia32: invalid opcode")
)

// Inst is a fully decoded instruction: opcode, prefixes, and complete source
// and destination operand lists including implicit operands (a push lists
// its stack write and its ESP update, an add lists the re-read of its
// destination, and so on), as the paper's Level 3 requires.
type Inst struct {
	Op       Opcode
	Prefixes uint8
	Tmpl     *Template // encoding this instruction was decoded from or matched to
	Dsts     []Operand
	Srcs     []Operand
	Len      uint8 // encoded length in bytes
}

// Eflags returns the instruction's effect on the arithmetic flags.
func (in *Inst) Eflags() Eflags { return in.Op.Eflags() }

// Target returns the absolute target address of a direct control-transfer
// instruction, and whether the instruction has one.
func (in *Inst) Target() (uint32, bool) {
	if !in.Op.IsCTI() || in.Op.IsIndirect() {
		return 0, false
	}
	for _, o := range in.Srcs {
		if o.Kind == OperandPC {
			return o.PC, true
		}
	}
	return 0, false
}

// parsed holds the fields extracted by the shared parsing pass.
type parsed struct {
	tmpl      *Template
	prefixes  uint8
	opByte    byte // last opcode byte (for PlusReg)
	regField  uint8
	mod       uint8
	rmOperand Operand // populated only on full parse
	imm       int64
	immSize   uint8
	rel       int32
	hasRel    bool
	moffs     uint32
	length    int
}

// parse is the single shared front end for all three decode strategies.
// full=false skips operand materialization work that boundary and Level-2
// decoding do not need (it still must walk ModRM/SIB/displacement bytes,
// because on IA-32 even finding instruction boundaries requires that).
func parse(mem []byte, full bool) (parsed, error) {
	var p parsed
	i := 0
	// Prefixes.
	for i < len(mem) {
		bit := prefixBit(mem[i])
		if bit == 0 {
			break
		}
		if i >= 4 {
			return p, ErrInvalidOpcode
		}
		p.prefixes |= bit
		i++
	}
	if i >= len(mem) {
		return p, ErrTruncated
	}
	// Opcode bytes.
	key := int(mem[i])
	p.opByte = mem[i]
	i++
	if key == 0x0F {
		if i >= len(mem) {
			return p, ErrTruncated
		}
		key = 0x0F00 | int(mem[i])
		p.opByte = mem[i]
		i++
	}
	cands := decodeTable[key]
	if len(cands) == 0 {
		return p, fmt.Errorf("%w: byte %#02x at offset %d", ErrInvalidOpcode, key, i-1)
	}
	// ModRM (all candidates for one key agree on its presence; checked in
	// verifyTables).
	if cands[0].ModRM {
		var err error
		i, err = p.parseModRM(mem, i, full)
		if err != nil {
			return p, err
		}
	}
	// Select the template: by /digit for extension-encoded opcodes.
	for _, c := range cands {
		if c.ModRM && c.Ext >= 0 && uint8(c.Ext) != p.regField {
			continue
		}
		p.tmpl = c
		break
	}
	if p.tmpl == nil {
		return p, fmt.Errorf("%w: no encoding for byte %#02x /%d", ErrInvalidOpcode, key, p.regField)
	}
	// Memory-only r/m slots (lea) reject register forms, as hardware does
	// (#UD).
	if p.mod == 3 {
		for _, sp := range p.tmpl.Srcs {
			if sp.Kind == specM {
				return p, fmt.Errorf("%w: register operand where memory is required", ErrInvalidOpcode)
			}
		}
		for _, sp := range p.tmpl.Dsts {
			if sp.Kind == specM {
				return p, fmt.Errorf("%w: register operand where memory is required", ErrInvalidOpcode)
			}
		}
	}
	// Immediate / relative / moffs bytes, in destination-then-source spec
	// order (which matches the byte order of every template in the table).
	for _, list := range [2][]Spec{p.tmpl.Dsts, p.tmpl.Srcs} {
		for _, sp := range list {
			switch sp.Kind {
			case specImm:
				v, n, err := readImm(mem, i, sp.Size)
				if err != nil {
					return p, err
				}
				p.imm, p.immSize = v, sp.Size
				i = n
			case specRel:
				v, n, err := readImm(mem, i, sp.Size)
				if err != nil {
					return p, err
				}
				p.rel, p.hasRel = int32(v), true
				i = n
			case specMoffs:
				v, n, err := readImm(mem, i, 4)
				if err != nil {
					return p, err
				}
				p.moffs = uint32(v)
				i = n
			}
		}
	}
	p.length = i
	return p, nil
}

// parseModRM consumes the ModRM byte and any SIB/displacement bytes,
// returning the new offset. When full is set it also materializes the r/m
// operand (without a size; the caller sizes it from the template spec).
func (p *parsed) parseModRM(mem []byte, i int, full bool) (int, error) {
	if i >= len(mem) {
		return i, ErrTruncated
	}
	modrm := mem[i]
	i++
	p.mod = modrm >> 6
	p.regField = (modrm >> 3) & 7
	rm := modrm & 7

	if p.mod == 3 {
		if full {
			p.rmOperand = Operand{Kind: OperandReg, Reg: Reg(rm)} // re-sized by caller
		}
		return i, nil
	}

	var base, index Reg
	var scale uint8
	if rm == 4 { // SIB byte
		if i >= len(mem) {
			return i, ErrTruncated
		}
		sib := mem[i]
		i++
		scale = 1 << (sib >> 6)
		idx := (sib >> 3) & 7
		if idx != 4 {
			index = Reg32(idx)
		} else {
			scale = 0
		}
		sbase := sib & 7
		if sbase == 5 && p.mod == 0 {
			base = RegNone // disp32 with no base
		} else {
			base = Reg32(sbase)
		}
	} else if rm == 5 && p.mod == 0 {
		base = RegNone // absolute disp32
	} else {
		base = Reg32(rm)
	}

	var disp int32
	switch {
	case p.mod == 1:
		if i >= len(mem) {
			return i, ErrTruncated
		}
		disp = int32(int8(mem[i]))
		i++
	case p.mod == 2 || (p.mod == 0 && base == RegNone):
		v, n, err := readImm(mem, i, 4)
		if err != nil {
			return i, err
		}
		disp = int32(v)
		i = n
	}
	if full {
		p.rmOperand = Operand{Kind: OperandMem, Base: base, Index: index, Scale: scale, Disp: disp}
	}
	return i, nil
}

// readImm reads a little-endian sign-extended immediate of size bytes.
func readImm(mem []byte, i int, size uint8) (int64, int, error) {
	if i+int(size) > len(mem) {
		return 0, i, ErrTruncated
	}
	switch size {
	case 1:
		return int64(int8(mem[i])), i + 1, nil
	case 2:
		return int64(int16(uint16(mem[i]) | uint16(mem[i+1])<<8)), i + 2, nil
	case 4:
		v := uint32(mem[i]) | uint32(mem[i+1])<<8 | uint32(mem[i+2])<<16 | uint32(mem[i+3])<<24
		return int64(int32(v)), i + 4, nil
	}
	return 0, i, fmt.Errorf("ia32: bad immediate size %d", size)
}

// BoundaryLen returns the length in bytes of the instruction starting at
// mem[0]. This is the cheapest decode strategy (Levels 0 and 1): it walks
// prefixes, opcode, ModRM/SIB and immediate fields but materializes nothing.
func BoundaryLen(mem []byte) (int, error) {
	p, err := parse(mem, false)
	if err != nil {
		return 0, err
	}
	return p.length, nil
}

// DecodeOpcode decodes just enough to learn the instruction's length, opcode
// and eflags effects (Level 2).
func DecodeOpcode(mem []byte) (op Opcode, length int, eflags Eflags, err error) {
	p, err := parse(mem, false)
	if err != nil {
		return OpInvalid, 0, 0, err
	}
	return p.tmpl.Op, p.length, p.tmpl.Op.Eflags(), nil
}

// MaxOperands bounds the destination plus source operands of any template
// (div: eax and edx written, r/m32, eax and edx read); verifyTables checks
// it.
const MaxOperands = 5

// DecodeOperands fully decodes the instruction at mem[0], located at
// absolute address pc, without allocating: it writes the destinations to
// ops[:nd] and the sources to ops[nd:nd+ns], in the order Decode lists them,
// and returns the opcode and length in bytes. It is the one operand path of
// the decoder; Decode copies its result into an Inst.
func DecodeOperands(mem []byte, pc uint32, ops *[MaxOperands]Operand) (op Opcode, length, nd, ns int, err error) {
	p, err := decodeOperands(mem, pc, ops)
	if err != nil {
		return OpInvalid, 0, 0, 0, err
	}
	return p.tmpl.Op, p.length, len(p.tmpl.Dsts), len(p.tmpl.Srcs), nil
}

// decodeOperands is DecodeOperands returning the parse itself, whose
// template and prefixes Decode also records.
func decodeOperands(mem []byte, pc uint32, ops *[MaxOperands]Operand) (parsed, error) {
	p, err := parse(mem, true)
	if err != nil {
		return p, err
	}
	nd := len(p.tmpl.Dsts)
	for j, sp := range p.tmpl.Dsts {
		ops[j] = p.operandFor(sp, ops[:nd], pc)
	}
	for j, sp := range p.tmpl.Srcs {
		ops[nd+j] = p.operandFor(sp, ops[:nd], pc)
	}
	return p, nil
}

// Decode fully decodes the instruction at mem[0], which is located at
// absolute address pc (needed to resolve PC-relative branch targets into the
// absolute form the rest of the system uses).
func Decode(mem []byte, pc uint32) (Inst, error) {
	var buf [MaxOperands]Operand
	p, err := decodeOperands(mem, pc, &buf)
	if err != nil {
		return Inst{}, err
	}
	tm := p.tmpl
	in := Inst{
		Op:       tm.Op,
		Prefixes: p.prefixes,
		Tmpl:     tm,
		Len:      uint8(p.length),
	}
	// One backing array holds both operand lists; Dsts is capped so that
	// appending to it cannot overwrite Srcs.
	nd, ns := len(tm.Dsts), len(tm.Srcs)
	ops := make([]Operand, nd+ns)
	copy(ops, buf[:])
	if nd > 0 {
		in.Dsts = ops[:nd:nd]
	}
	if ns > 0 {
		in.Srcs = ops[nd:]
	}
	return in, nil
}

// operandFor materializes the operand described by sp using the parsed
// fields. dsts is the (already materialized) destination list, used to
// resolve tied operands.
func (p *parsed) operandFor(sp Spec, dsts []Operand, pc uint32) Operand {
	switch sp.Kind {
	case specRM, specM:
		o := p.rmOperand
		o.Size = sp.Size
		if o.Kind == OperandReg {
			o.Reg = RegBySize(uint8(o.Reg), sp.Size)
		}
		return o
	case specR:
		return RegOp(RegBySize(p.regField, sp.Size))
	case specRPlus:
		return RegOp(RegBySize(p.opByte&7, sp.Size))
	case specImm:
		return ImmOp(p.imm, sp.Size)
	case specImm1:
		return ImmOp(1, 1)
	case specRel:
		return PCOp(pc + uint32(p.length) + uint32(p.rel))
	case specMoffs:
		return MemOp(RegNone, RegNone, 0, int32(p.moffs), sp.Size)
	case specFixedReg:
		return RegOp(sp.Reg)
	case specStackPush:
		return MemOp(ESP, RegNone, 0, -4, 4)
	case specStackPop:
		return MemOp(ESP, RegNone, 0, 0, 4)
	case specTiedDst:
		return dsts[sp.Tie]
	}
	return Operand{}
}
