package instr

import (
	"fmt"

	"repro/internal/ia32"
)

// needsReencode reports whether the instruction cannot be emitted by copying
// its raw bytes: it was modified or created (Level 4), or it is a direct
// control transfer, whose PC-relative displacement changes when the code
// moves to a new address.
func (i *Instr) needsReencode() bool {
	if !i.RawValid() {
		return true
	}
	if i.level <= Level1 {
		// Peek at the opcode cheaply; bundles never contain CTIs.
		if i.level == Level0 {
			return false
		}
		i.raise(Level2)
	}
	return i.isDirectCTI()
}

// isDirectCTI reports whether the instruction is a control transfer with a
// PC-relative target. It does not raise the instruction: after Layout every
// non-bundle is at Level 2 or above.
func (i *Instr) isDirectCTI() bool {
	return i.level >= Level2 && i.op.IsCTI() && !i.op.IsIndirect()
}

// Layout appends the list's machine code to buf in one walk, encoding each
// instruction once, and records each instruction's offset from the list's
// first byte and its encoded length (see Extent). Instructions with valid
// raw bytes are a bare copy; Level 4 instructions and direct CTIs go
// through the template-matching encoder. Every encodable direct CTI is a
// rel32 form whose displacement ends the instruction (the rel8 forms are
// decode-only), so no length depends on where the list is placed: the
// displacements are left for Relocate to write once the address is known.
func (l *List) Layout(buf []byte) ([]byte, error) {
	start := len(buf)
	for i := l.first; i != nil; i = i.next {
		at := len(buf)
		if i.needsReencode() {
			i.raise(Level3)
			var err error
			if buf, err = ia32.Encode(&i.inst, uint32(at-start), buf); err != nil {
				return nil, fmt.Errorf("instr: encoding %s: %w", i, err)
			}
		} else {
			buf = append(buf, i.raw...)
		}
		i.off, i.size = uint32(at-start), uint32(len(buf)-at)
	}
	return buf, nil
}

// Relocate places a laid-out list at address pc: code holds the list's
// bytes exactly as its last Layout appended them. It writes the rel32
// displacement of every direct CTI, resolving an intra-list target
// (SetTargetInstr) from that instruction's recorded offset. The list must
// not change between Layout and Relocate.
func (l *List) Relocate(code []byte, pc uint32) error {
	for i := l.first; i != nil; i = i.next {
		if !i.isDirectCTI() {
			continue
		}
		var target uint32
		if t := i.target; t != nil {
			if t.list != l {
				return fmt.Errorf("instr: branch target not in list: %s", i)
			}
			target = pc + t.off
		} else {
			target, _ = i.inst.Target()
		}
		end := i.off + i.size
		rel := target - (pc + end)
		code[end-4], code[end-3], code[end-2], code[end-1] = byte(rel), byte(rel>>8), byte(rel>>16), byte(rel>>24)
	}
	return nil
}

// Encode lays the list out at address pc and returns the encoded bytes:
// Layout followed by Relocate. Instructions with valid raw bytes are
// emitted with a bare copy; Level 4 instructions and direct CTIs go through
// the template-matching encoder. Intra-list branch targets (SetTargetInstr)
// are resolved to their final addresses.
func (l *List) Encode(pc uint32) ([]byte, error) {
	buf, err := l.Layout(nil)
	if err != nil {
		return nil, err
	}
	return buf, l.Relocate(buf, pc)
}
