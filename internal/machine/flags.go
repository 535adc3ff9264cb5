package machine

import "repro/internal/ia32"

// Lazy eflags. Almost every arithmetic flag an ALU instruction writes is
// overwritten by the next ALU instruction before anything reads it, so the
// producers do not compute flags: they record themselves in CPU.lazy (kind,
// size, masked operands and result) and the flags are computed from that
// record only when something reads them. Readers come in two kinds:
//
//   - adc, sbb, inc and dec need only CF, which carry derives from the record
//     without materializing the rest;
//   - jcc, setcc, cmovcc, pushfd and the rotates (which write only CF and OF,
//     keeping the other four) call materialize, which folds the record into
//     Eflags and empties it.
//
// popfd, imul, div and the shifts write all six flags eagerly and so just
// drop the record. The invariant that keeps this invisible outside the
// interpreter: CPU.Eflags is exact whenever control is outside the execution
// loop. Step and the block runner materialize before they return, before a
// fault is raised and before a system call runs, so trap handlers, fault
// translation, signal and watch hooks, oracle.Capture and every test read
// and write Eflags directly.

// lazyOp is the kind of the pending flag producer.
type lazyOp uint8

const (
	lazyNone  lazyOp = iota // Eflags is exact
	lazyAdd                 // r = a + b
	lazyAdc                 // r = a + b + 1
	lazySub                 // r = a - b
	lazySbb                 // r = a - b - 1
	lazyLogic               // r from and/or/xor/test: CF = OF = AF = 0
	lazyInc                 // r = a + 1, CF kept in cf
	lazyDec                 // r = a - 1, CF kept in cf
)

// lazyFlags is the last flag producer not yet folded into Eflags: its kind,
// size, first operand and result, masked to size. The second operand is
// not stored; the kind determines it (src). Keeping the record at 12 bytes
// keeps Thread in its allocation size class.
type lazyFlags struct {
	op   lazyOp
	size uint8
	cf   uint8 // lazyInc/lazyDec: the CF the instruction keeps
	a, r uint32
}

// set records a producer. It stores field by field: building the record
// as one composite value and copying it makes the compiler assemble it on
// the stack and reload it as one wide value, which stalls store forwarding
// on every ALU instruction.
func (l *lazyFlags) set(op lazyOp, size uint8, a, r uint32) {
	l.op, l.size, l.a, l.r = op, size, a, r
}

// src returns the producer's second operand, masked to size.
func (l *lazyFlags) src() uint32 {
	var b uint32
	switch l.op {
	case lazyAdd:
		b = l.r - l.a
	case lazyAdc:
		b = l.r - l.a - 1
	case lazySub:
		b = l.a - l.r
	case lazySbb:
		b = l.a - l.r - 1
	case lazyInc, lazyDec:
		b = 1
	}
	return b & sizeMask(l.size)
}

// carry returns CF (0 or 1) without materializing the pending record.
func (c *CPU) carry() uint32 {
	l := &c.lazy
	switch l.op {
	case lazyAdd:
		return b2u(l.r < l.a)
	case lazyAdc:
		return b2u(l.r <= l.a)
	case lazySub:
		return b2u(l.a < l.src())
	case lazySbb:
		return b2u(l.a <= l.src())
	case lazyLogic:
		return 0
	case lazyInc, lazyDec:
		return uint32(l.cf)
	}
	return c.Eflags & ia32.FlagCF
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// materialize folds the pending flag producer into Eflags, leaving Eflags
// exact and the record empty.
func (c *CPU) materialize() {
	if c.lazy.op != lazyNone {
		c.materializeSlow()
	}
}

func (c *CPU) materializeSlow() {
	l := &c.lazy
	a, b, r := l.a, l.src(), l.r
	f := c.carry() // FlagCF is bit 0
	switch l.op {
	case lazyAdd, lazyAdc, lazyInc:
		if ^(a^b)&(a^r)&signBit(l.size) != 0 {
			f |= ia32.FlagOF
		}
		f |= (a ^ b ^ r) & ia32.FlagAF
	case lazySub, lazySbb, lazyDec:
		if (a^b)&(a^r)&signBit(l.size) != 0 {
			f |= ia32.FlagOF
		}
		f |= (a ^ b ^ r) & ia32.FlagAF
	}
	if r == 0 {
		f |= ia32.FlagZF
	}
	if r&signBit(l.size) != 0 {
		f |= ia32.FlagSF
	}
	if parity(r) {
		f |= ia32.FlagPF
	}
	c.Eflags = c.Eflags&^ia32.FlagsAll | f
	l.op = lazyNone
}

// flagsAdd records the flags of r = a + b + carryIn (carryIn 0 or 1) and
// returns r masked to size.
func (c *CPU) flagsAdd(a, b, carryIn uint32, size uint8) uint32 {
	mask := sizeMask(size)
	a &= mask
	b &= mask
	r := (a + b + carryIn) & mask
	c.lazy.set(lazyAdd+lazyOp(carryIn), size, a, r)
	return r
}

// flagsSub records the flags of r = a - b - borrowIn (borrowIn 0 or 1) and
// returns r masked to size.
func (c *CPU) flagsSub(a, b, borrowIn uint32, size uint8) uint32 {
	mask := sizeMask(size)
	a &= mask
	b &= mask
	r := (a - b - borrowIn) & mask
	c.lazy.set(lazySub+lazyOp(borrowIn), size, a, r)
	return r
}

// flagsLogic records the flags of a logical result (CF = OF = AF = 0, SF, ZF
// and PF from r) and returns r masked to size.
func (c *CPU) flagsLogic(r uint32, size uint8) uint32 {
	r &= sizeMask(size)
	c.lazy.set(lazyLogic, size, 0, r)
	return r
}

// flagsInc records the flags of inc (those of a + 1, except that CF is
// kept) and returns the result.
func (c *CPU) flagsInc(a uint32, size uint8) uint32 {
	cf := c.carry()
	r := c.flagsAdd(a, 1, 0, size)
	c.lazy.op, c.lazy.cf = lazyInc, uint8(cf)
	return r
}

// flagsDec records the flags of dec (those of a - 1, except that CF is
// kept) and returns the result.
func (c *CPU) flagsDec(a uint32, size uint8) uint32 {
	cf := c.carry()
	r := c.flagsSub(a, 1, 0, size)
	c.lazy.op, c.lazy.cf = lazyDec, uint8(cf)
	return r
}
