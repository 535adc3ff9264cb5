package instr

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ia32"
)

// oracleEncode is the three-pass list encoder Layout and Relocate replaced,
// kept as the reference they must agree with: size every instruction (the
// encoder runs once just to measure a Level 4 instruction or a direct CTI),
// then encode each one at its final address, resolving an intra-list
// target through a per-call offset map on a copy of the operands.
func oracleEncode(l *List, pc uint32) ([]byte, map[*Instr]uint32, error) {
	reencode := func(i *Instr) bool {
		if !i.RawValid() {
			return true
		}
		return i.level != Level0 && i.Opcode().IsCTI() && !i.Opcode().IsIndirect()
	}
	offsets := make(map[*Instr]uint32, l.n)
	off := uint32(0)
	for i := l.first; i != nil; i = i.next {
		offsets[i] = off
		n := len(i.raw)
		if reencode(i) {
			i.raise(Level3)
			var err error
			if n, err = ia32.EncodedLen(&i.inst); err != nil {
				return nil, nil, err
			}
		}
		off += uint32(n)
	}
	var buf []byte
	for i := l.first; i != nil; i = i.next {
		if !reencode(i) {
			buf = append(buf, i.raw...)
			continue
		}
		inst := i.inst
		if i.target != nil {
			toff, ok := offsets[i.target]
			if !ok {
				return nil, nil, fmt.Errorf("branch target not in list: %s", i)
			}
			srcs := append([]ia32.Operand(nil), inst.Srcs...)
			for n, o := range srcs {
				if o.Kind == ia32.OperandPC {
					srcs[n] = ia32.PCOp(pc + toff)
					break
				}
			}
			inst.Srcs = srcs
		}
		var err error
		if buf, err = ia32.Encode(&inst, pc+offsets[i], buf); err != nil {
			return nil, nil, err
		}
	}
	return buf, offsets, nil
}

// rawPool is straight-line application code for random lists: each entry
// is one instruction's bytes.
var rawPool = [][]byte{
	{0x8d, 0x34, 0x01},             // lea esi, [ecx+eax]
	{0x8b, 0x46, 0x0c},             // mov eax, [esi+12]
	{0x2b, 0x46, 0x1c},             // sub eax, [esi+28]
	{0x0f, 0xb7, 0x4e, 0x08},       // movzx ecx, word [esi+8]
	{0xc1, 0xe1, 0x07},             // shl ecx, 7
	{0x3b, 0xc1},                   // cmp eax, ecx
	{0x55},                         // push ebp
	{0x5d},                         // pop ebp
	{0x83, 0xc0, 0x05},             // add eax, 5
	{0x05, 0x78, 0x56, 0x34, 0x12}, // add eax, 0x12345678
	{0x85, 0xc0},                   // test eax, eax
	{0x40},                         // inc eax
}

// randomList builds a list mixing every level: Level 0 bundles, Level 1-3
// raw instructions, Level 4 modified and created instructions, decoded
// rel8 and rel32 branches, absolute-target created branches, and
// intra-list branches to earlier and later instructions. Application code
// sits at appPC.
func randomList(rng *rand.Rand, appPC uint32) *List {
	l := NewList()
	pc := appPC
	raw := func() []byte { return rawPool[rng.Intn(len(rawPool))] }
	var pending []*Instr // intra-list branches still waiting for a later target
	n := 2 + rng.Intn(24)
	for k := 0; k < n; k++ {
		var in *Instr
		switch rng.Intn(12) {
		case 0: // Level 0 bundle of several instructions
			var b []byte
			for m := 1 + rng.Intn(4); m > 0; m-- {
				b = append(b, raw()...)
			}
			in = FromRawBundle(b, pc)
		case 1: // Level 1
			in = FromRaw(raw(), pc)
		case 2: // Level 2
			in = FromRaw(raw(), pc)
			in.Opcode()
		case 3: // Level 3
			in, _ = FromDecode(raw(), pc)
		case 4: // Level 4: decoded, then modified
			in, _ = FromDecode(raw(), pc)
			in.MarkModified()
		case 5: // Level 4: created
			switch rng.Intn(4) {
			case 0:
				in = CreateMov(ia32.RegOp(ia32.ECX), ia32.AbsMem(0x7000_0000+uint32(rng.Intn(64))*4))
			case 1:
				in = CreateAdd(ia32.RegOp(ia32.EDX), ia32.Imm8(int64(rng.Intn(100))))
			case 2:
				in = CreatePopfd()
			default:
				in = CreateLea(ia32.RegOp(ia32.ESP), ia32.MemOp(ia32.ESP, ia32.RegNone, 0, 4, 4))
			}
		case 6: // decoded jcc rel8: raw bytes 2 long, laid out as rel32
			b := []byte{0x70 + byte(rng.Intn(16)), byte(rng.Intn(256))}
			if rng.Intn(2) == 0 {
				in = FromRaw(b, pc)
			} else {
				in, _ = FromDecode(b, pc)
			}
		case 7: // decoded rel32 jmp, jcc or call
			d := uint32(rng.Int31())
			switch rng.Intn(3) {
			case 0:
				in = FromRaw([]byte{0xe9, byte(d), byte(d >> 8), byte(d >> 16), byte(d >> 24)}, pc)
			case 1:
				in = FromRaw([]byte{0x0f, 0x80 + byte(rng.Intn(16)), byte(d), byte(d >> 8), byte(d >> 16), byte(d >> 24)}, pc)
			default:
				in = FromRaw([]byte{0xe8, byte(d), byte(d >> 8), byte(d >> 16), byte(d >> 24)}, pc)
			}
		case 8: // created branch to an absolute target
			t := rng.Uint32()
			if rng.Intn(2) == 0 {
				in = CreateJmp(t)
			} else {
				in = CreateJcc(ia32.Jcc(uint8(rng.Intn(16))), t)
			}
		case 9: // backward intra-list branch
			if l.Empty() {
				in = CreateNop()
				break
			}
			t := l.First()
			for m := rng.Intn(l.Len()); m > 0; m-- {
				t = t.Next()
			}
			if rng.Intn(2) == 0 {
				in = CreateJmpInstr(t)
			} else {
				in = CreateJccInstr(ia32.Jcc(uint8(rng.Intn(16))), t)
			}
		case 10: // forward intra-list branch, resolved by a later append
			if rng.Intn(2) == 0 {
				in = CreateJmp(0)
			} else {
				// A decoded rel8 jcc redirected inside the list.
				in, _ = FromDecode([]byte{0x70 + byte(rng.Intn(16)), 0}, pc)
			}
			pending = append(pending, in)
		default: // indirect CTI: copied, never relocated
			in = CreateJmpInd(ia32.AbsMem(0x7000_0100))
		}
		l.Append(in)
		if len(pending) > 0 && in != pending[len(pending)-1] && rng.Intn(2) == 0 {
			for _, p := range pending {
				p.SetTargetInstr(in)
			}
			pending = nil
		}
		if in.RawValid() {
			pc += uint32(len(in.raw))
		}
	}
	for _, p := range pending { // still unresolved: target the last instruction
		p.SetTargetInstr(l.Last())
	}
	return l
}

// TestLayoutMatchesThreePassEncoder checks Layout plus Relocate against the
// three-pass oracle on random lists at several base addresses, including
// ones whose code wraps around the top of the address space: identical
// bytes, and each instruction's recorded offset and length equal to where
// the oracle placed it.
func TestLayoutMatchesThreePassEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	bases := []uint32{0, 0x1000, 0x4000_0123, 0x7fff_fff0, 0xffff_ff00}
	for trial := 0; trial < 2000; trial++ {
		appPC := rng.Uint32()
		base := bases[trial%len(bases)]
		l := randomList(rng, appPC)
		want, offs, err := oracleEncode(l, base)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v\n%s", trial, err, l)
		}
		got, err := l.Encode(base)
		if err != nil {
			t.Fatalf("trial %d: Encode: %v\n%s", trial, err, l)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d at %#x: bytes differ\n got % x\nwant % x\n%s", trial, base, got, want, l)
		}
		for i := l.First(); i != nil; i = i.Next() {
			end := uint32(len(want))
			if i.Next() != nil {
				end = offs[i.Next()]
			}
			if off, n := i.Extent(); off != offs[i] || off+n != end {
				t.Fatalf("trial %d: %s laid out at %d+%d, oracle %d+%d", trial, i, off, n, offs[i], end-offs[i])
			}
		}
	}
}

// TestRelocateRejectsForeignTarget checks that a branch whose intra-list
// target lives in another list is an error, not a displacement computed
// from a stale offset.
func TestRelocateRejectsForeignTarget(t *testing.T) {
	other := NewList(CreateNop())
	l := NewList(CreateNop(), CreateJmpInstr(other.First()))
	if _, err := l.Encode(0x1000); err == nil {
		t.Fatal("Encode resolved a branch to an instruction in another list")
	}
}
