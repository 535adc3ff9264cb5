// Package instr implements the adaptive level-of-detail instruction
// representation at the heart of the paper (Section 3.1): an Instr holds an
// instruction at one of five levels of decodedness, moving between levels
// lazily as clients ask for more detail or make modifications, and an
// InstrList (List here) holds the linear stream of instructions of a basic
// block or trace.
//
// The five levels:
//
//	Level 0  raw bytes of a whole series of instructions; only the final
//	         boundary is recorded (a "bundle")
//	Level 1  raw bytes of exactly one instruction, un-decoded
//	Level 2  opcode and eflags effects known; raw bytes valid
//	Level 3  fully decoded operands; raw bytes still valid
//	Level 4  fully decoded, modified or newly created; no valid raw bytes
//
// Reading a property raises an Instr to the level that property requires
// (never higher); modifying operands moves it to Level 4, invalidating the
// raw bytes. Encoding copies raw bytes whenever they are valid and performs
// the expensive template-matching encode only at Level 4.
package instr

import (
	"fmt"

	"repro/internal/ia32"
)

// Level is an Instr's current level of detail.
type Level uint8

// The five levels of representation.
const (
	Level0 Level = iota // bundle of un-decoded instructions
	Level1              // single un-decoded instruction
	Level2              // opcode and eflags decoded
	Level3              // fully decoded, raw bytes valid
	Level4              // fully decoded, raw bytes invalid
)

func (l Level) String() string { return fmt.Sprintf("Level%d", uint8(l)) }

// Instr is one node of an instruction list: a single instruction at Levels
// 1-4, or a bundle of consecutive un-decoded instructions at Level 0.
type Instr struct {
	prev, next *Instr
	list       *List

	level Level
	raw   []byte // valid at Levels 0-3; nil at Level 4
	pc    uint32 // original application address of raw bytes (0 if none)

	op     ia32.Opcode // valid at Levels 2+
	eflags ia32.Eflags // valid at Levels 2+
	inst   ia32.Inst   // valid at Levels 3+

	// target, when non-nil, overrides a direct CTI's target with another
	// instruction in the same list; the emitter resolves it to the
	// target's final address. This is how optimizations insert branches
	// to code they are about to append without knowing addresses.
	target *Instr

	// meta marks an instruction inserted by the runtime or a client
	// rather than copied from the application; the basic-block and trace
	// mangling passes leave meta instructions alone.
	meta bool

	// Exit-stub customization (Section 3.2): code to prepend to this
	// exit's stub, and whether to route through the stub even when the
	// exit is linked.
	stubCode      *List
	alwaysViaStub bool

	// note is the client annotation field the paper describes: a field
	// in the Instr data structure for use by the client while it is
	// processing instructions.
	note any

	// exitClass is reserved for the embedding runtime to classify exit
	// CTIs (e.g. ordinary direct exits versus indirect-branch-lookup
	// exits). Clients read it through runtime helpers, never directly.
	exitClass uint8

	// xl8 is the application PC a fault inside this runtime-inserted
	// instruction translates back to, and scratch records which pieces of
	// application state the runtime had stashed at that point (the
	// Xl8* bits). Application instructions carry their own pc instead;
	// mangling passes set these only on the synthetic code they insert.
	xl8     uint32
	scratch uint8

	// off and size are where the containing list's last Layout put the
	// instruction: its offset from the list's first byte and its encoded
	// length.
	off, size uint32
}

// Scratch-state bits for SetXl8: what a fault-time state translator must
// restore when a fault lands on this runtime-inserted instruction. The bit
// meanings are interpreted by the embedding runtime's translator.
const (
	Xl8RestoreEAX  uint8 = 1 << iota // app EAX lives in the runtime spill slot
	Xl8RestoreECX                    // app ECX lives in the runtime spill slot
	Xl8FlagsPushed                   // app eflags live on the stack (pushfd'd)
)

// Xl8 returns the fault-translation annotation: the application PC this
// runtime-inserted instruction stands in for (0 if none was recorded) and
// the scratch-state bits.
func (i *Instr) Xl8() (uint32, uint8) { return i.xl8, i.scratch }

// SetXl8 records the application PC this synthetic instruction translates
// back to on a fault, with scratch describing any application state the
// runtime has stashed at that point. Returns the instruction for chaining.
func (i *Instr) SetXl8(pc uint32, scratch uint8) *Instr {
	i.xl8, i.scratch = pc, scratch
	return i
}

// ExitClass returns the runtime's classification of this exit CTI. The
// meaning of the values is defined by the embedding runtime.
func (i *Instr) ExitClass() uint8 { return i.exitClass }

// SetExitClass stores the runtime's classification of this exit CTI.
func (i *Instr) SetExitClass(c uint8) { i.exitClass = c }

// FromRawBundle returns a Level 0 Instr holding the raw bytes of a series of
// instructions whose first byte originally lived at address pc. Only the
// final boundary (the slice length) is recorded.
func FromRawBundle(raw []byte, pc uint32) *Instr {
	return &Instr{level: Level0, raw: raw, pc: pc}
}

// FromRaw returns a Level 1 Instr holding the raw bytes of one instruction
// located at pc.
func FromRaw(raw []byte, pc uint32) *Instr {
	return &Instr{level: Level1, raw: raw, pc: pc}
}

// FromInst returns a Level 4 Instr wrapping a fully decoded instruction with
// no raw bytes.
func FromInst(inst ia32.Inst) *Instr {
	return &Instr{level: Level4, op: inst.Op, eflags: inst.Op.Eflags(), inst: inst}
}

// FromDecode fully decodes the instruction at raw (located at pc) and
// returns it at Level 3 with raw bytes attached. This is the form DynamoRIO
// uses for trace optimization: full information, but unmodified instructions
// still encode by copying their bytes.
func FromDecode(raw []byte, pc uint32) (*Instr, error) {
	inst, err := ia32.Decode(raw, pc)
	if err != nil {
		return nil, err
	}
	return &Instr{
		level:  Level3,
		raw:    raw[:inst.Len],
		pc:     pc,
		op:     inst.Op,
		eflags: inst.Op.Eflags(),
		inst:   inst,
	}, nil
}

// Prev and Next navigate the containing list. They are nil at the ends or
// for an unlinked Instr.
func (i *Instr) Prev() *Instr { return i.prev }
func (i *Instr) Next() *Instr { return i.next }

// InList reports whether the instruction currently belongs to l. Passes that
// keep references to instructions across client hooks (which may remove or
// replace them) use it to validate the reference before rewriting.
func (i *Instr) InList(l *List) bool { return i.list == l }

// Level returns the instruction's current level of detail.
func (i *Instr) Level() Level { return i.level }

// IsBundle reports whether this is a Level 0 bundle of several
// instructions.
func (i *Instr) IsBundle() bool { return i.level == Level0 }

// PC returns the original application address of the instruction's raw
// bytes, or 0 if it was created rather than decoded.
func (i *Instr) PC() uint32 { return i.pc }

// RawValid reports whether the instruction has valid raw bytes (Levels
// 0-3).
func (i *Instr) RawValid() bool { return i.level <= Level3 }

// Raw returns the instruction's raw bytes. It is valid only when RawValid
// reports true; otherwise it returns nil.
func (i *Instr) Raw() []byte {
	if i.RawValid() {
		return i.raw
	}
	return nil
}

// Note returns the client annotation stored on this instruction.
func (i *Instr) Note() any { return i.note }

// SetNote stores a client annotation on this instruction. The runtime never
// touches it; it exists for clients to carry analysis state, as in the
// paper's Section 3.2.
func (i *Instr) SetNote(n any) { i.note = n }

// Meta reports whether the instruction was inserted by the runtime or a
// client (true) rather than copied from application code.
func (i *Instr) Meta() bool { return i.meta }

// SetMeta marks the instruction as runtime- or client-inserted and returns
// it (for chaining during code construction).
func (i *Instr) SetMeta() *Instr { i.meta = true; return i }

// raise brings the instruction up to at least the requested level. Raising
// never skips work: each step performs only the incremental decode the next
// level needs, so switching incrementally between levels costs no more than
// a single switch spanning multiple levels.
func (i *Instr) raise(to Level) {
	if i.level >= to && !(i.level == Level0) {
		return
	}
	if i.level == Level0 {
		panic("instr: must expand a Level 0 bundle before inspecting it (use List.Expand)")
	}
	if i.level < Level2 && to >= Level2 {
		op, _, eflags, err := ia32.DecodeOpcode(i.raw)
		if err != nil {
			panic(fmt.Sprintf("instr: raw bytes undecodable at pc %#x: %v", i.pc, err))
		}
		i.op, i.eflags = op, eflags
		i.level = Level2
	}
	if i.level < Level3 && to >= Level3 {
		inst, err := ia32.Decode(i.raw, i.pc)
		if err != nil {
			panic(fmt.Sprintf("instr: raw bytes undecodable at pc %#x: %v", i.pc, err))
		}
		i.inst = inst
		i.level = Level3
	}
	if to >= Level4 {
		i.invalidateRaw()
	}
}

// invalidateRaw moves the instruction to Level 4 after a modification. The
// encoding template recorded at decode time is dropped too: the modified
// operands may no longer fit it, so encoding must search the opcode's
// templates from scratch — the costly walk the paper describes for Level 4.
func (i *Instr) invalidateRaw() {
	if i.level < Level3 {
		i.raise(Level3)
	}
	i.raw = nil
	i.inst.Tmpl = nil
	i.level = Level4
}

// MarkModified forces the instruction to Level 4: fully decoded with its
// raw bytes discarded, as if an operand had been modified. Encoding will go
// through the full template-matching encoder.
func (i *Instr) MarkModified() { i.raise(Level4) }

// Opcode returns the instruction's opcode, raising it to Level 2 if needed.
func (i *Instr) Opcode() ia32.Opcode {
	i.raise(Level2)
	return i.op
}

// Eflags returns the instruction's effect on the arithmetic flags, raising
// it to Level 2 if needed.
func (i *Instr) Eflags() ia32.Eflags {
	i.raise(Level2)
	return i.eflags
}

// Inst returns a copy of the fully decoded form, raising the instruction to
// Level 3 if needed.
func (i *Instr) Inst() ia32.Inst {
	i.raise(Level3)
	return i.inst
}

// NumSrcs returns the number of source operands (Level 3).
func (i *Instr) NumSrcs() int {
	i.raise(Level3)
	return len(i.inst.Srcs)
}

// NumDsts returns the number of destination operands (Level 3).
func (i *Instr) NumDsts() int {
	i.raise(Level3)
	return len(i.inst.Dsts)
}

// Src returns source operand n (Level 3).
func (i *Instr) Src(n int) ia32.Operand {
	i.raise(Level3)
	return i.inst.Srcs[n]
}

// Dst returns destination operand n (Level 3).
func (i *Instr) Dst(n int) ia32.Operand {
	i.raise(Level3)
	return i.inst.Dsts[n]
}

// SetSrc replaces source operand n, invalidating the raw bytes (Level 4).
func (i *Instr) SetSrc(n int, o ia32.Operand) {
	i.raise(Level3)
	i.inst.Srcs = append([]ia32.Operand(nil), i.inst.Srcs...)
	i.inst.Srcs[n] = o
	i.invalidateRaw()
}

// SetDst replaces destination operand n, invalidating the raw bytes
// (Level 4).
func (i *Instr) SetDst(n int, o ia32.Operand) {
	i.raise(Level3)
	i.inst.Dsts = append([]ia32.Operand(nil), i.inst.Dsts...)
	i.inst.Dsts[n] = o
	i.invalidateRaw()
}

// Prefixes returns the instruction's prefix bits (Level 3).
func (i *Instr) Prefixes() uint8 {
	i.raise(Level3)
	return i.inst.Prefixes
}

// SetPrefixes sets the instruction's prefix bits (Level 4).
func (i *Instr) SetPrefixes(p uint8) {
	i.raise(Level3)
	i.inst.Prefixes = p
	i.invalidateRaw()
}

// IsCTI reports whether the instruction is a control transfer.
func (i *Instr) IsCTI() bool { return i.Opcode().IsCTI() }

// IsExitCTI reports whether the instruction is a control transfer that
// leaves the fragment: a non-meta CTI. Meta CTIs (inserted by clients, e.g.
// branches within dispatch code) stay inside the fragment.
func (i *Instr) IsExitCTI() bool { return !i.meta && i.IsCTI() }

// Target returns the absolute application target of a direct CTI, and
// whether it has one. If the target was redirected to another instruction
// with SetTargetInstr, ok is true and the address is resolved at encode
// time (0 here).
func (i *Instr) Target() (uint32, bool) {
	if i.target != nil {
		return 0, true
	}
	if i.Opcode().IsIndirect() || !i.Opcode().IsCTI() {
		return 0, false
	}
	inst := i.Inst()
	return inst.Target()
}

// SetTarget sets the absolute target address of a direct CTI (Level 4).
func (i *Instr) SetTarget(pc uint32) {
	i.raise(Level3)
	i.target = nil
	srcs := append([]ia32.Operand(nil), i.inst.Srcs...)
	for n, o := range srcs {
		if o.Kind == ia32.OperandPC {
			srcs[n] = ia32.PCOp(pc)
			i.inst.Srcs = srcs
			i.invalidateRaw()
			return
		}
	}
	panic("instr: SetTarget on instruction without a PC operand")
}

// TargetInstr returns the intra-list branch target, if one was set.
func (i *Instr) TargetInstr() *Instr { return i.target }

// SetTargetInstr redirects a direct CTI at another instruction in the same
// list; the emitter resolves the final address (Level 4).
func (i *Instr) SetTargetInstr(t *Instr) {
	i.raise(Level4)
	i.target = t
}

// ExitStub returns the custom exit stub code attached to this exit CTI, or
// nil.
func (i *Instr) ExitStub() *List { return i.stubCode }

// SetExitStub attaches client instructions to be prepended to the exit stub
// for this CTI, and optionally forces the exit to go through the stub even
// when linked (Section 3.2's custom exit stubs).
func (i *Instr) SetExitStub(code *List, alwaysViaStub bool) {
	i.stubCode = code
	i.alwaysViaStub = alwaysViaStub
}

// AlwaysViaStub reports whether this exit must route through its stub even
// when linked.
func (i *Instr) AlwaysViaStub() bool { return i.alwaysViaStub }

// Len returns the encoded length of the instruction in bytes.
func (i *Instr) Len() int {
	if i.RawValid() {
		return len(i.raw)
	}
	n, err := ia32.EncodedLen(&i.inst)
	if err != nil {
		panic(fmt.Sprintf("instr: cannot size %v: %v", &i.inst, err))
	}
	return n
}

// Extent returns where the containing list's last Layout put the
// instruction: its offset from the list's first byte and its encoded length
// there (a direct CTI is always laid out in its rel32 form, whatever the
// length of its raw bytes).
func (i *Instr) Extent() (off, n uint32) { return i.off, i.size }

// Copy returns an unlinked deep copy of the instruction (the note field is
// copied by reference; stub code is shared).
func (i *Instr) Copy() *Instr {
	c := *i
	c.prev, c.next, c.list = nil, nil, nil
	if i.raw != nil {
		c.raw = append([]byte(nil), i.raw...)
	}
	c.inst.Srcs = append([]ia32.Operand(nil), i.inst.Srcs...)
	c.inst.Dsts = append([]ia32.Operand(nil), i.inst.Dsts...)
	return &c
}

// MemUsage returns the approximate memory footprint of the Instr in bytes,
// used by the Table 2 reproduction. Raw bytes are counted when the Instr
// owns them (bundles and created instructions); operand slices are counted
// at Level 3+.
func (i *Instr) MemUsage() int {
	const structSize = 160 // approximate size of the Instr struct itself
	n := structSize
	n += len(i.raw)
	n += (len(i.inst.Srcs) + len(i.inst.Dsts)) * 24
	return n
}

// String disassembles the instruction at its current level of detail
// without raising it: bundles and Level 1 print raw bytes, Level 2 prints
// the opcode and eflags, Levels 3-4 print full operands.
func (i *Instr) String() string {
	switch i.level {
	case Level0:
		return fmt.Sprintf("<bundle %d bytes @%#x>", len(i.raw), i.pc)
	case Level1:
		return fmt.Sprintf("<raw % x>", i.raw)
	case Level2:
		return fmt.Sprintf("%-6s %s", i.op, i.eflags)
	default:
		if i.target != nil {
			return fmt.Sprintf("%-6s <instr %p>", i.op, i.target)
		}
		return i.inst.String()
	}
}
