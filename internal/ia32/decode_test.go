package ia32

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// fig2Bytes is the raw byte sequence from the paper's Figure 2.
var fig2Bytes = []byte{
	0x8d, 0x34, 0x01, // lea (%ecx,%eax,1) -> %esi
	0x8b, 0x46, 0x0c, // mov 0xc(%esi) -> %eax
	0x2b, 0x46, 0x1c, // sub 0x1c(%esi) %eax -> %eax
	0x0f, 0xb7, 0x4e, 0x08, // movzx 0x8(%esi) -> %ecx
	0xc1, 0xe1, 0x07, // shl $0x07 %ecx -> %ecx
	0x3b, 0xc1, // cmp %eax %ecx
	0x0f, 0x8d, 0xa2, 0x0a, 0x00, 0x00, // jnl $...
}

func TestBoundaryLenFigure2(t *testing.T) {
	want := []int{3, 3, 3, 4, 3, 2, 6}
	off := 0
	for i, w := range want {
		n, err := BoundaryLen(fig2Bytes[off:])
		if err != nil {
			t.Fatalf("instr %d: %v", i, err)
		}
		if n != w {
			t.Errorf("instr %d: length = %d, want %d", i, n, w)
		}
		off += n
	}
	if off != len(fig2Bytes) {
		t.Errorf("consumed %d bytes, want %d", off, len(fig2Bytes))
	}
}

func TestDecodeOpcodeFigure2(t *testing.T) {
	want := []struct {
		op     Opcode
		eflags Eflags
	}{
		{OpLea, 0},
		{OpMov, 0},
		{OpSub, EflagsWrite6},
		{OpMovzx, 0},
		{OpShl, EflagsWrite6},
		{OpCmp, EflagsWrite6},
		{OpJnl, EflagsReadSF | EflagsReadOF},
	}
	off := 0
	for i, w := range want {
		op, n, fl, err := DecodeOpcode(fig2Bytes[off:])
		if err != nil {
			t.Fatalf("instr %d: %v", i, err)
		}
		if op != w.op {
			t.Errorf("instr %d: opcode = %s, want %s", i, op, w.op)
		}
		if fl != w.eflags {
			t.Errorf("instr %d (%s): eflags = %s, want %s", i, op, fl, w.eflags)
		}
		off += n
	}
}

func TestDecodeFigure2Full(t *testing.T) {
	const pc = 0x77f51234
	want := []string{
		"lea    (%ecx,%eax,1) -> %esi",
		"mov    0xc(%esi) -> %eax",
		"sub    0x1c(%esi) %eax -> %eax",
		"movzx  0x8(%esi) -> %ecx",
		"shl    $0x07 %ecx -> %ecx",
		"cmp    %eax %ecx",
		"jnl    $0x77f51cee", // pc+0x12 (offset of jnl) + 6 + 0xaa2
	}
	off := 0
	for i, w := range want {
		in, err := Decode(fig2Bytes[off:], pc+uint32(off))
		if err != nil {
			t.Fatalf("instr %d: %v", i, err)
		}
		if got := in.String(); got != w {
			t.Errorf("instr %d: disasm = %q, want %q", i, got, w)
		}
		off += int(in.Len)
	}
}

func TestDecodeOperandDetails(t *testing.T) {
	// sub 0x1c(%esi) %eax -> %eax: dsts=[eax], srcs=[mem, eax(tied)]
	in, err := Decode([]byte{0x2b, 0x46, 0x1c}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Dsts) != 1 || len(in.Srcs) != 2 {
		t.Fatalf("operand counts = %d dsts, %d srcs, want 1, 2", len(in.Dsts), len(in.Srcs))
	}
	if !in.Dsts[0].IsReg(EAX) {
		t.Errorf("dst = %v, want %%eax", in.Dsts[0])
	}
	wantMem := MemOp(ESI, RegNone, 0, 0x1c, 4)
	if !in.Srcs[0].Equal(wantMem) {
		t.Errorf("src0 = %v, want %v", in.Srcs[0], wantMem)
	}
	if !in.Srcs[1].IsReg(EAX) {
		t.Errorf("src1 (tied) = %v, want %%eax", in.Srcs[1])
	}
}

func TestDecodePushImplicitOperands(t *testing.T) {
	in, err := Decode([]byte{0x50}, 0) // push %eax
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != OpPush {
		t.Fatalf("opcode = %s, want push", in.Op)
	}
	if len(in.Srcs) != 2 || len(in.Dsts) != 2 {
		t.Fatalf("operand counts = %d srcs, %d dsts, want 2, 2", len(in.Srcs), len(in.Dsts))
	}
	if !in.Srcs[0].IsReg(EAX) || !in.Srcs[1].IsReg(ESP) {
		t.Errorf("srcs = %v, want [%%eax %%esp]", in.Srcs)
	}
	wantStack := MemOp(ESP, RegNone, 0, -4, 4)
	if !in.Dsts[0].Equal(wantStack) || !in.Dsts[1].IsReg(ESP) {
		t.Errorf("dsts = %v, want [[esp-4] %%esp]", in.Dsts)
	}
}

func TestDecodeRetImplicitOperands(t *testing.T) {
	in, err := Decode([]byte{0xC3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != OpRet || !in.Op.IsIndirect() || !in.Op.IsRet() {
		t.Fatalf("ret properties wrong: %s indirect=%v ret=%v", in.Op, in.Op.IsIndirect(), in.Op.IsRet())
	}
	wantStack := MemOp(ESP, RegNone, 0, 0, 4)
	if !in.Srcs[0].Equal(wantStack) {
		t.Errorf("ret src0 = %v, want [esp]", in.Srcs[0])
	}
}

func TestDecodeRel8(t *testing.T) {
	// jz +5 at pc 0x1000: EB form is jmp; use 74 (jz rel8).
	in, err := Decode([]byte{0x74, 0x05}, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != OpJz {
		t.Fatalf("opcode = %s, want jz", in.Op)
	}
	target, ok := in.Target()
	if !ok || target != 0x1007 {
		t.Errorf("target = %#x, %v; want 0x1007, true", target, ok)
	}
}

func TestDecodeNegativeRel(t *testing.T) {
	// jmp rel32 -16 at pc 0x2000: target = 0x2000+5-16 = 0x1FF5.
	in, err := Decode([]byte{0xE9, 0xF0, 0xFF, 0xFF, 0xFF}, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	target, ok := in.Target()
	if !ok || target != 0x1FF5 {
		t.Errorf("target = %#x, want 0x1FF5", target)
	}
}

func TestDecodeModRMForms(t *testing.T) {
	cases := []struct {
		bytes []byte
		want  string
	}{
		// mov eax <- [ebp] needs disp8=0.
		{[]byte{0x8B, 0x45, 0x00}, "mov    (%ebp) -> %eax"},
		// mov eax <- [esp] needs SIB.
		{[]byte{0x8B, 0x04, 0x24}, "mov    (%esp) -> %eax"},
		// mov eax <- [absolute].
		{[]byte{0x8B, 0x05, 0x78, 0x56, 0x34, 0x12}, "mov    0x12345678 -> %eax"},
		// mov eax <- [ecx + edx*4 + 0x40].
		{[]byte{0x8B, 0x44, 0x91, 0x40}, "mov    0x40(%ecx,%edx,4) -> %eax"},
		// mov eax <- [edx*8 + 0x10]: SIB, no base.
		{[]byte{0x8B, 0x04, 0xD5, 0x10, 0x00, 0x00, 0x00}, "mov    0x10(,%edx,8) -> %eax"},
		// inc dword [edi].
		{[]byte{0xFF, 0x07}, "inc    (%edi) -> (%edi)"},
		// push dword [ebx+8].
		{[]byte{0xFF, 0x73, 0x08}, "push   0x8(%ebx) %esp -> 0xfffffffc(%esp) %esp"},
		// call indirect through eax.
		{[]byte{0xFF, 0xD0}, "call   %eax %esp -> 0xfffffffc(%esp) %esp"},
		// jmp indirect through [eax+4].
		{[]byte{0xFF, 0x60, 0x04}, "jmp    0x4(%eax)"},
		// 8-bit: mov bl <- [esi].
		{[]byte{0x8A, 0x1E}, "mov    (%esi) -> %bl"},
		// test edx, edx.
		{[]byte{0x85, 0xD2}, "test   %edx %edx"},
		// xchg [ecx], ebx.
		{[]byte{0x87, 0x19}, "xchg   (%ecx) %ebx -> (%ecx) %ebx"},
		// shl ecx, cl is not valid; shl ecx, 1 via D1 form.
		{[]byte{0xD1, 0xE1}, "shl    $0x01 %ecx -> %ecx"},
		// sar edx, cl via D3 form.
		{[]byte{0xD3, 0xFA}, "sar    %cl %edx -> %edx"},
		// imul esi, [eax], 3.
		{[]byte{0x6B, 0x30, 0x03}, "imul   (%eax) $0x03 -> %esi"},
		// ret imm16.
		{[]byte{0xC2, 0x08, 0x00}, "ret    $0x08 (%esp) %esp -> %esp"},
		// int 0x80.
		{[]byte{0xCD, 0x80}, "int    $0x80"},
	}
	for _, c := range cases {
		in, err := Decode(c.bytes, 0)
		if err != nil {
			t.Errorf("% x: %v", c.bytes, err)
			continue
		}
		if int(in.Len) != len(c.bytes) {
			t.Errorf("% x: length = %d, want %d", c.bytes, in.Len, len(c.bytes))
		}
		if got := in.String(); got != c.want {
			t.Errorf("% x: disasm = %q, want %q", c.bytes, got, c.want)
		}
	}
}

func TestDecodePrefixes(t *testing.T) {
	in, err := Decode([]byte{0xF0, 0xFF, 0x07}, 0) // lock inc [edi]
	if err != nil {
		t.Fatal(err)
	}
	if in.Prefixes&PrefixLock == 0 {
		t.Error("lock prefix not recorded")
	}
	if in.Len != 3 {
		t.Errorf("length = %d, want 3", in.Len)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil, 0); err == nil {
		t.Error("empty input: want error")
	}
	if _, err := Decode([]byte{0x0F}, 0); err == nil {
		t.Error("truncated two-byte opcode: want error")
	}
	if _, err := Decode([]byte{0x8B}, 0); err == nil {
		t.Error("missing ModRM: want error")
	}
	if _, err := Decode([]byte{0x8B, 0x45}, 0); err == nil {
		t.Error("missing disp8: want error")
	}
	if _, err := Decode([]byte{0xB8, 0x01, 0x02}, 0); err == nil {
		t.Error("truncated imm32: want error")
	}
	// 0x0F 0x0B (UD2) is not in the subset.
	if _, err := Decode([]byte{0x0F, 0x0B}, 0); err == nil {
		t.Error("invalid opcode: want error")
	}
	// More than 4 prefix bytes.
	if _, err := Decode(bytes.Repeat([]byte{0xF0}, 6), 0); err == nil {
		t.Error("prefix overflow: want error")
	}
}

func TestOpcodeProperties(t *testing.T) {
	if !OpCall.IsCall() || !OpCall.IsCTI() || OpCall.IsIndirect() {
		t.Error("call property bits wrong")
	}
	if !OpCallInd.IsIndirect() || !OpCallInd.IsCall() {
		t.Error("indirect call property bits wrong")
	}
	if !OpJz.IsCond() || !OpJz.IsCTI() {
		t.Error("jz property bits wrong")
	}
	if OpAdd.IsCTI() {
		t.Error("add must not be a CTI")
	}
	if cc, ok := OpJnle.CondCode(); !ok || cc != 15 {
		t.Errorf("jnle condcode = %d, %v; want 15, true", cc, ok)
	}
	if neg, ok := NegateCond(OpJz); !ok || neg != OpJnz {
		t.Errorf("NegateCond(jz) = %s, want jnz", neg)
	}
	if _, ok := NegateCond(OpJmp); ok {
		t.Error("NegateCond(jmp) should report not conditional")
	}
}

func TestEflagsOpcodeEffects(t *testing.T) {
	// The inc/add distinction is central to the paper's Figure 3 client.
	if OpInc.Eflags()&EflagsWriteCF != 0 {
		t.Error("inc must not write CF")
	}
	if OpAdd.Eflags()&EflagsWriteCF == 0 {
		t.Error("add must write CF")
	}
	if OpAdc.Eflags()&EflagsReadCF == 0 {
		t.Error("adc must read CF")
	}
	if OpJb.Eflags() != EflagsReadCF {
		t.Errorf("jb eflags = %s, want RC", OpJb.Eflags())
	}
	if OpJnle.Eflags() != EflagsReadZF|EflagsReadSF|EflagsReadOF {
		t.Errorf("jnle eflags = %s", OpJnle.Eflags())
	}
	if got := OpAdd.Eflags().String(); got != "WCPAZSO" {
		t.Errorf("add eflags string = %q, want WCPAZSO", got)
	}
	if got := OpJnl.Eflags().String(); got != "RSO" {
		t.Errorf("jnl eflags string = %q, want RSO", got)
	}
	if got := Eflags(0).String(); got != "-" {
		t.Errorf("empty eflags string = %q, want -", got)
	}
	if got := OpAdc.Eflags().String(); got != "RCWCPAZSO" {
		t.Errorf("adc eflags string = %q", got)
	}
}

func TestRegisterHelpers(t *testing.T) {
	if EAX.Size() != 4 || AX.Size() != 2 || AL.Size() != 1 {
		t.Error("register sizes wrong")
	}
	if AH.Full() != EAX || BH.Full() != EBX || SI.Full() != ESI {
		t.Error("Full mapping wrong")
	}
	if !AH.IsHigh8() || AL.IsHigh8() {
		t.Error("IsHigh8 wrong")
	}
	for enc := uint8(0); enc < 8; enc++ {
		if Reg32(enc).Enc() != enc || Reg8(enc).Enc() != enc || Reg16(enc).Enc() != enc {
			t.Errorf("Enc round trip failed for %d", enc)
		}
	}
	if RegByName("esi") != ESI || RegByName("nosuch") != RegNone {
		t.Error("RegByName wrong")
	}
}

// TestDecodeOperandListsIndependent checks that the destination and source
// lists, which share one backing array, stay independent: appending to
// Dsts must not overwrite Srcs.
func TestDecodeOperandListsIndependent(t *testing.T) {
	in, err := Decode([]byte{0x01, 0xd8}, 0) // add eax, ebx
	if err != nil {
		t.Fatal(err)
	}
	want := append([]Operand(nil), in.Srcs...)
	_ = append(in.Dsts, ImmOp(7, 4))
	for n := range want {
		if !in.Srcs[n].Equal(want[n]) {
			t.Fatalf("src %d = %v after appending to Dsts, want %v", n, in.Srcs[n], want[n])
		}
	}
}

// decodeOperandsDiff decodes mem at pc with both DecodeOperands and Decode
// and describes the first way they disagree (error, opcode, length,
// operand counts, any operand), or returns "". ops starts out holding stale
// operands, which DecodeOperands must overwrite.
func decodeOperandsDiff(mem []byte, pc uint32) string {
	var ops [MaxOperands]Operand
	for i := range ops {
		ops[i] = MemOp(EBP, ESI, 8, -99, 2)
	}
	op, n, nd, ns, err := DecodeOperands(mem, pc, &ops)
	in, err2 := Decode(mem, pc)
	switch {
	case (err == nil) != (err2 == nil):
		return fmt.Sprintf("% x: errors %v / %v", mem, err, err2)
	case err != nil:
		return ""
	case op != in.Op || n != int(in.Len):
		return fmt.Sprintf("% x: %s len %d, Decode %s len %d", mem, op, n, in.Op, in.Len)
	case nd != len(in.Dsts) || ns != len(in.Srcs):
		return fmt.Sprintf("% x (%s): %d dsts %d srcs, Decode %d, %d", mem, &in, nd, ns, len(in.Dsts), len(in.Srcs))
	}
	for i, o := range in.Dsts {
		if ops[i] != o {
			return fmt.Sprintf("% x (%s): dst %d %+v, Decode %+v", mem, &in, i, ops[i], o)
		}
	}
	for i, o := range in.Srcs {
		if ops[nd+i] != o {
			return fmt.Sprintf("% x (%s): src %d %+v, Decode %+v", mem, &in, i, ops[nd+i], o)
		}
	}
	return ""
}

// TestDecodeOperandsMatchesDecode checks that the allocation-free entry
// and Decode agree on the error, opcode, length and every operand: for every
// template of the table, in each ModRM form (register, SIB, disp8, disp32,
// absolute) with random register fields, immediates and displacements, and
// on random byte strings of every length up to 16.
func TestDecodeOperandsMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const pc = 0x08048000
	for _, tm := range templates {
		hit := false
		// ModRM forms by mod and r/m (-1: a random register other than
		// ESP, whose r/m encoding means a SIB byte follows).
		for _, form := range []struct{ mod, rm int }{{3, -1}, {0, 4}, {1, -1}, {2, -1}, {0, 5}} {
			if !tm.ModRM && form.mod != 3 {
				continue
			}
			for range 8 {
				mem := append([]byte(nil), tm.Opc...)
				if tm.PlusReg {
					mem[len(mem)-1] += byte(rng.Intn(8))
				}
				if tm.ModRM {
					reg, rm := rng.Intn(8), form.rm
					if tm.Ext >= 0 {
						reg = int(tm.Ext)
					}
					if rm < 0 {
						rm = []int{0, 1, 2, 3, 5, 6, 7}[rng.Intn(7)]
					}
					mem = append(mem, byte(form.mod<<6|reg<<3|rm))
				}
				for range 10 {
					mem = append(mem, byte(rng.Intn(256)))
				}
				if d := decodeOperandsDiff(mem, pc); d != "" {
					t.Fatalf("%s template: %s", tm.Op, d)
				}
				if in, err := Decode(mem, pc); err == nil && in.Tmpl == tm {
					hit = true
				}
			}
		}
		if !hit {
			t.Errorf("%s template %x: no generated form decoded to it", tm.Op, tm.Opc)
		}
	}
	buf := make([]byte, 16)
	for range 100000 {
		mem := buf[:1+rng.Intn(len(buf))]
		for j := range mem {
			mem[j] = byte(rng.Intn(256))
		}
		if d := decodeOperandsDiff(mem, pc); d != "" {
			t.Fatal(d)
		}
	}
}
