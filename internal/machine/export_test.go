package machine

import "repro/internal/ia32"

// SetStepOnly makes Run execute m one Step at a time, the reference the
// block runner is compared against. Each Step of such a machine computes
// its flags with eagerFlags rather than materialize, so the reference side
// of the comparison does not share the lazy-flag code it checks.
func SetStepOnly(m *Machine) { m.stepOnly = true }

func init() { stepOnlyFlags = eagerFlags }

// eagerFlags computes the six flags of the pending record the way the
// interpreter did before flags were lazy: carry from 64-bit arithmetic,
// overflow and auxiliary carry from the operands' sign and bit-4 algebra.
// It also checks the record's result against its own.
func eagerFlags(c *CPU) {
	l := &c.lazy
	if l.op == lazyNone {
		return
	}
	mask := sizeMask(l.size)
	a, b := l.a, l.src()
	var cin uint32
	if l.op == lazyAdc || l.op == lazySbb {
		cin = 1
	}
	var f, r uint32
	switch l.op {
	case lazyAdd, lazyAdc, lazyInc:
		wide := uint64(a) + uint64(b) + uint64(cin)
		r = uint32(wide) & mask
		if wide > uint64(mask) {
			f |= ia32.FlagCF
		}
		if ^(a^b)&(a^r)&signBit(l.size) != 0 {
			f |= ia32.FlagOF
		}
		if (a^b^r)&0x10 != 0 {
			f |= ia32.FlagAF
		}
	case lazySub, lazySbb, lazyDec:
		r = uint32(uint64(a)-uint64(b)-uint64(cin)) & mask
		if uint64(a) < uint64(b)+uint64(cin) {
			f |= ia32.FlagCF
		}
		if (a^b)&(a^r)&signBit(l.size) != 0 {
			f |= ia32.FlagOF
		}
		if (a^b^r)&0x10 != 0 {
			f |= ia32.FlagAF
		}
	case lazyLogic:
		r = l.r
	}
	if r != l.r {
		panic("machine: lazy flag record holds a wrong result")
	}
	if l.op == lazyInc || l.op == lazyDec {
		f = f&^ia32.FlagCF | uint32(l.cf)
	}
	c.Eflags &^= ia32.FlagsAll
	c.Eflags |= f
	c.setSZP(r, l.size)
	l.op = lazyNone
}
