package instr

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ia32"
)

// fig2 is the raw byte sequence from the paper's Figure 2.
var fig2 = []byte{
	0x8d, 0x34, 0x01, // lea
	0x8b, 0x46, 0x0c, // mov
	0x2b, 0x46, 0x1c, // sub
	0x0f, 0xb7, 0x4e, 0x08, // movzx
	0xc1, 0xe1, 0x07, // shl
	0x3b, 0xc1, // cmp
	0x0f, 0x8d, 0xa2, 0x0a, 0x00, 0x00, // jnl
}

const fig2PC = 0x77f51234

func TestLevel0Bundle(t *testing.T) {
	b := FromRawBundle(fig2, fig2PC)
	if !b.IsBundle() || b.Level() != Level0 {
		t.Fatal("bundle level wrong")
	}
	l := NewList(b)
	if l.Len() != 1 {
		t.Fatalf("list len = %d, want 1", l.Len())
	}
	if n := l.InstrCount(); n != 7 {
		t.Errorf("InstrCount = %d, want 7", n)
	}
	// Level 0 encodes with a single memory copy.
	out, err := l.Encode(0x5000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, fig2) {
		t.Error("bundle encode is not a bare copy")
	}
}

func TestExpandBundle(t *testing.T) {
	l := NewList(FromRawBundle(fig2, fig2PC))
	first := l.Expand(l.First())
	if l.Len() != 7 {
		t.Fatalf("expanded len = %d, want 7", l.Len())
	}
	if first != l.First() {
		t.Error("Expand did not return the first new instruction")
	}
	// Each is Level 1 with correct PCs.
	wantPCs := []uint32{0, 3, 6, 9, 13, 16, 18}
	i := l.First()
	for n, w := range wantPCs {
		if i.Level() != Level1 {
			t.Errorf("instr %d level = %v, want Level1", n, i.Level())
		}
		if i.PC() != fig2PC+w {
			t.Errorf("instr %d pc = %#x, want %#x", n, i.PC(), fig2PC+w)
		}
		i = i.Next()
	}
}

func TestLevelTransitions(t *testing.T) {
	l := NewList(FromRawBundle(fig2, fig2PC))
	l.ExpandAll()
	in := l.First().Next().Next() // the sub
	if in.Level() != Level1 {
		t.Fatal("expected Level1")
	}
	// Asking for the opcode raises to exactly Level 2.
	if op := in.Opcode(); op != ia32.OpSub {
		t.Fatalf("opcode = %s, want sub", op)
	}
	if in.Level() != Level2 {
		t.Errorf("level after Opcode() = %v, want Level2", in.Level())
	}
	if in.Eflags() != ia32.EflagsWrite6 {
		t.Errorf("sub eflags = %s", in.Eflags())
	}
	// Asking for operands raises to Level 3, raw still valid.
	if n := in.NumSrcs(); n != 2 {
		t.Fatalf("NumSrcs = %d, want 2", n)
	}
	if in.Level() != Level3 || !in.RawValid() {
		t.Errorf("level = %v rawValid = %v, want Level3 with raw", in.Level(), in.RawValid())
	}
	// Modifying an operand moves to Level 4 and invalidates raw bytes
	// (the paper's automatic adjustment).
	in.SetDst(0, ia32.RegOp(ia32.ECX))
	if in.Level() != Level4 || in.RawValid() {
		t.Errorf("level after SetDst = %v rawValid=%v, want Level4 without raw", in.Level(), in.RawValid())
	}
}

func TestBundleAccessPanics(t *testing.T) {
	b := FromRawBundle(fig2, fig2PC)
	defer func() {
		if recover() == nil {
			t.Error("inspecting a bundle should panic")
		}
	}()
	_ = b.Opcode()
}

func TestListEditing(t *testing.T) {
	l := NewList()
	a := l.Append(CreateNop())
	c := l.Append(CreateRet())
	bb := l.InsertAfter(a, CreateInc(ia32.RegOp(ia32.EAX)))
	if l.Len() != 3 || l.First() != a || l.Last() != c || a.Next() != bb || bb.Next() != c {
		t.Fatal("insertion order wrong")
	}
	d := l.InsertBefore(a, CreateDec(ia32.RegOp(ia32.EBX)))
	if l.First() != d || d.Next() != a || a.Prev() != d {
		t.Fatal("InsertBefore wrong")
	}
	l.Remove(bb)
	if l.Len() != 3 || a.Next() != c || c.Prev() != a {
		t.Fatal("Remove wrong")
	}
	// Replace, as Figure 3's client does.
	n := CreateAdd(ia32.RegOp(ia32.EAX), ia32.Imm8(1))
	l.Replace(a, n)
	if d.Next() != n || n.Next() != c || l.Len() != 3 {
		t.Fatal("Replace wrong")
	}
	l.Clear()
	if l.Len() != 0 || !l.Empty() {
		t.Fatal("Clear wrong")
	}
}

func TestListOwnershipPanics(t *testing.T) {
	l1, l2 := NewList(), NewList()
	i := l1.Append(CreateNop())
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("double append", func() { l2.Append(i) })
	mustPanic("remove from wrong list", func() { l2.Remove(i) })
	mustPanic("insert before foreign", func() { l2.InsertBefore(i, CreateNop()) })
}

func TestIterationSurvivesRemoval(t *testing.T) {
	l := NewList()
	for n := 0; n < 5; n++ {
		l.Append(CreateNop())
	}
	seen := 0
	l.Instrs(func(i *Instr) bool {
		seen++
		l.Remove(i)
		return true
	})
	if seen != 5 || l.Len() != 0 {
		t.Errorf("seen %d, remaining %d; want 5, 0", seen, l.Len())
	}
}

func TestAppendList(t *testing.T) {
	a, b := NewList(), NewList()
	a.Append(CreateNop())
	b.Append(CreateRet())
	b.Append(CreateNop())
	a.AppendList(b)
	if a.Len() != 3 || !b.Empty() {
		t.Errorf("AppendList: a=%d b=%d, want 3, 0", a.Len(), b.Len())
	}
}

func TestEncodeLevels(t *testing.T) {
	// Build the paper's canonical block form: one Level 0 bundle for the
	// straight-line body plus a Level 3 CTI.
	body := fig2[:18]
	cti := fig2[18:]
	ctiInstr, err := FromDecode(cti, fig2PC+18)
	if err != nil {
		t.Fatal(err)
	}
	l := NewList(FromRawBundle(body, fig2PC), ctiInstr)

	// Encoding at the original address reproduces the original bytes.
	out, err := l.Encode(fig2PC)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, fig2) {
		t.Errorf("encode at original pc:\n got % x\nwant % x", out, fig2)
	}

	// Encoding at a different address keeps the CTI's absolute target.
	out2, err := l.Encode(0x40000000)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ia32.Decode(out2[18:], 0x40000000+18)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := back.Target()
	if want := uint32(fig2PC + 24 + 0xaa2); target != want {
		t.Errorf("relocated CTI target = %#x, want %#x", target, want)
	}
	// Body is still a bare copy.
	if !bytes.Equal(out2[:18], body) {
		t.Error("relocated body should be byte-identical")
	}
}

func TestEncodeIntraListTarget(t *testing.T) {
	l := NewList()
	top := l.Append(CreateNop())
	l.Append(CreateInc(ia32.RegOp(ia32.EAX)))
	l.Append(CreateJccInstr(ia32.OpJnz, top))
	out, err := l.Encode(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	// The jnz must target 0x1000 (the nop).
	jcc, err := ia32.Decode(out[len(out)-6:], 0x1000+uint32(len(out)-6))
	if err != nil {
		t.Fatal(err)
	}
	if target, _ := jcc.Target(); target != 0x1000 {
		t.Errorf("intra-list target = %#x, want 0x1000", target)
	}
}

func TestEncodeForwardIntraListTarget(t *testing.T) {
	l := NewList()
	jcc := l.Append(CreateJcc(ia32.OpJz, 0))
	l.Append(CreateInc(ia32.RegOp(ia32.EAX)))
	end := l.Append(CreateNop())
	jcc.SetTargetInstr(end)
	out, err := l.Encode(0x2000)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ia32.Decode(out, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	want := uint32(0x2000 + len(out) - 1)
	if target, _ := d.Target(); target != want {
		t.Errorf("forward target = %#x, want %#x", target, want)
	}
}

func TestCreateHelpers(t *testing.T) {
	// CreateAdd fills the implicit tied source.
	a := CreateAdd(ia32.RegOp(ia32.EAX), ia32.Imm8(1))
	if a.NumSrcs() != 2 || !a.Src(1).IsReg(ia32.EAX) {
		t.Error("CreateAdd implicit source missing")
	}
	if !a.Meta() {
		t.Error("created instructions must be meta")
	}
	// CreatePush fills stack operands.
	p := CreatePush(ia32.RegOp(ia32.EBX))
	if p.NumDsts() != 2 || p.NumSrcs() != 2 {
		t.Error("CreatePush implicit operands missing")
	}
	// Created instructions encode.
	for _, i := range []*Instr{
		a, p,
		CreateMov(ia32.RegOp(ia32.ECX), ia32.BaseDisp(ia32.ESI, 12)),
		CreateLea(ia32.RegOp(ia32.ESI), ia32.MemOp(ia32.ECX, ia32.EAX, 1, 0, 4)),
		CreateCmp(ia32.RegOp(ia32.EAX), ia32.RegOp(ia32.ECX)),
		CreateTest(ia32.RegOp(ia32.EDX), ia32.RegOp(ia32.EDX)),
		CreateInc(ia32.RegOp(ia32.EDI)),
		CreateDec(ia32.BaseDisp(ia32.EBP, -8)),
		CreateNeg(ia32.RegOp(ia32.EAX)),
		CreateNot(ia32.RegOp(ia32.EAX)),
		CreateShl(ia32.RegOp(ia32.ECX), ia32.Imm8(7)),
		CreateShr(ia32.RegOp(ia32.ECX), ia32.RegOp(ia32.CL)),
		CreateSar(ia32.RegOp(ia32.EDX), ia32.Imm8(2)),
		CreateImul(ia32.RegOp(ia32.EAX), ia32.RegOp(ia32.EBX)),
		CreateImulImm(ia32.RegOp(ia32.EAX), ia32.RegOp(ia32.EBX), ia32.Imm8(10)),
		CreateMovzx(ia32.RegOp(ia32.EAX), ia32.MemOp(ia32.ESI, ia32.RegNone, 0, 8, 2)),
		CreateMovsx(ia32.RegOp(ia32.EAX), ia32.RegOp(ia32.BL)),
		CreateXchg(ia32.RegOp(ia32.EAX), ia32.RegOp(ia32.EBX)),
		CreatePop(ia32.RegOp(ia32.EBX)),
		CreatePushfd(),
		CreatePopfd(),
		CreateJmp(0x1234),
		CreateJmpInd(ia32.RegOp(ia32.EAX)),
		CreateJcc(ia32.OpJle, 0x1234),
		CreateCall(0x4321),
		CreateCallInd(ia32.BaseDisp(ia32.EBX, 4)),
		CreateRet(),
		CreateNop(),
		CreateInt(0x80),
		CreateXor(ia32.RegOp(ia32.EAX), ia32.RegOp(ia32.EAX)),
		CreateAdc(ia32.RegOp(ia32.EAX), ia32.Imm8(0)),
		CreateSbb(ia32.RegOp(ia32.EAX), ia32.Imm8(0)),
		CreateMov(ia32.RegOp(ia32.EAX), ia32.Imm32(42)),
		CreateOr(ia32.RegOp(ia32.EDX), ia32.Imm8(1)),
	} {
		nl := NewList(i)
		if _, err := nl.Encode(0x1000); err != nil {
			t.Errorf("%s: %v", i, err)
		}
	}
}

func TestCreateJccValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CreateJcc(jmp) should panic")
		}
	}()
	CreateJcc(ia32.OpJmp, 0)
}

func TestNoteAndCopy(t *testing.T) {
	i := CreateNop()
	i.SetNote(42)
	if i.Note() != 42 {
		t.Error("note lost")
	}
	c := i.Copy()
	if c.Note() != 42 || c.Next() != nil || c.Prev() != nil {
		t.Error("copy should keep note and be unlinked")
	}
	// Copy of a decoded instruction keeps raw bytes independent.
	d, err := FromDecode([]byte{0x8b, 0x46, 0x0c}, 0x100)
	if err != nil {
		t.Fatal(err)
	}
	c2 := d.Copy()
	c2.SetDst(0, ia32.RegOp(ia32.EBX))
	if d.Level() != Level3 || !d.RawValid() {
		t.Error("modifying a copy must not affect the original")
	}
}

func TestSetTarget(t *testing.T) {
	j := CreateJmp(0x1000)
	j.SetTarget(0x2000)
	if tgt, ok := j.Target(); !ok || tgt != 0x2000 {
		t.Errorf("target = %#x, %v; want 0x2000", tgt, ok)
	}
	// ret has no PC operand.
	defer func() {
		if recover() == nil {
			t.Error("SetTarget on ret should panic")
		}
	}()
	CreateRet().SetTarget(0)
}

func TestExitStubAnnotations(t *testing.T) {
	j := CreateJmp(0x100)
	stub := NewList(CreateInc(ia32.AbsMem(0x8000)))
	j.SetExitStub(stub, true)
	if j.ExitStub() != stub || !j.AlwaysViaStub() {
		t.Error("exit stub annotations lost")
	}
}

func TestMemUsageGrowsWithLevel(t *testing.T) {
	mk := func() *List { return NewList(FromRawBundle(append([]byte(nil), fig2...), fig2PC)) }
	l0 := mk().MemUsage()
	l1 := mk()
	l1.ExpandAll()
	m1 := l1.MemUsage()
	l3 := mk()
	l3.DecodeAll(Level3)
	m3 := l3.MemUsage()
	if !(l0 < m1 && m1 < m3) {
		t.Errorf("memory not monotonic: L0=%d L1=%d L3=%d", l0, m1, m3)
	}
}

func TestInstrCountOnMixedList(t *testing.T) {
	l := NewList(FromRawBundle(fig2[:18], fig2PC), CreateRet())
	if n := l.InstrCount(); n != 7 {
		t.Errorf("InstrCount = %d, want 7", n)
	}
}

// ExampleList_levels mirrors the paper's Figure 2: the same code at
// different levels of detail.
func ExampleList_levels() {
	l := NewList(FromRawBundle(fig2, fig2PC))
	fmt.Println("Level 0:")
	fmt.Print(l)

	l.ExpandAll() // Level 1
	l.DecodeAll(Level2)
	fmt.Println("Level 2:")
	fmt.Print(l)

	l.DecodeAll(Level3)
	fmt.Println("Level 3:")
	fmt.Print(l)
	// Output:
	// Level 0:
	//   <bundle 24 bytes @0x77f51234>
	// Level 2:
	//   lea    -
	//   mov    -
	//   sub    WCPAZSO
	//   movzx  -
	//   shl    WCPAZSO
	//   cmp    WCPAZSO
	//   jnl    RSO
	// Level 3:
	//   lea    (%ecx,%eax,1) -> %esi
	//   mov    0xc(%esi) -> %eax
	//   sub    0x1c(%esi) %eax -> %eax
	//   movzx  0x8(%esi) -> %ecx
	//   shl    $0x07 %ecx -> %ecx
	//   cmp    %eax %ecx
	//   jnl    $0x77f51cee
}

func TestAccessorsAndMutators(t *testing.T) {
	d, err := FromDecode([]byte{0x2b, 0x46, 0x1c}, 0x100) // sub eax, [esi+0x1c]
	if err != nil {
		t.Fatal(err)
	}
	if d.Raw() == nil || len(d.Raw()) != 3 {
		t.Error("Raw() should expose valid bytes at Level 3")
	}
	if !d.IsCTI() == false && d.IsExitCTI() {
		t.Error("sub is not a CTI")
	}
	if d.NumDsts() != 1 || !d.Dst(0).IsReg(ia32.EAX) {
		t.Error("Dst accessor wrong")
	}
	if d.Prefixes() != 0 {
		t.Error("no prefixes expected")
	}
	d.SetSrc(0, ia32.BaseDisp(ia32.EDI, 8))
	if d.RawValid() || !d.Src(0).Equal(ia32.BaseDisp(ia32.EDI, 8)) {
		t.Error("SetSrc should invalidate raw and stick")
	}
	d.SetPrefixes(ia32.PrefixLock)
	if d.Prefixes() != ia32.PrefixLock {
		t.Error("SetPrefixes lost")
	}
	inst := d.Inst()
	if inst.Op != ia32.OpSub {
		t.Error("Inst() wrong")
	}

	n := CreateNop()
	if n.SetMeta() != n || !n.Meta() {
		t.Error("SetMeta chain")
	}
	n.SetExitClass(7)
	if n.ExitClass() != 7 {
		t.Error("exit class lost")
	}
	if s := n.String(); s == "" {
		t.Error("String empty")
	}
	// String at each level.
	b := FromRawBundle([]byte{0x90, 0x90}, 0)
	if s := b.String(); !strings.Contains(s, "bundle") {
		t.Errorf("bundle string = %q", s)
	}
	r := FromRaw([]byte{0x90}, 0)
	if s := r.String(); !strings.Contains(s, "raw") {
		t.Errorf("raw string = %q", s)
	}
	r.Opcode() // raise to L2
	if s := r.String(); !strings.Contains(s, "nop") {
		t.Errorf("L2 string = %q", s)
	}
	j := CreateJmpInstr(n)
	if s := j.String(); !strings.Contains(s, "instr") {
		t.Errorf("instr-target string = %q", s)
	}
}

func TestMarkModifiedForcesReencode(t *testing.T) {
	d, err := FromDecode([]byte{0x8b, 0x46, 0x0c}, 0) // mov eax, [esi+12]
	if err != nil {
		t.Fatal(err)
	}
	d.MarkModified()
	if d.Level() != Level4 || d.RawValid() {
		t.Fatal("MarkModified must reach Level 4")
	}
	out, err := NewList(d).Encode(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0] != 0x8b {
		t.Errorf("re-encode = % x", out)
	}
}

// TestEncodeWithOffsetsDirect checks the offsets and lengths Layout records
// on each instruction, and the total it lays out.
func TestEncodeWithOffsetsDirect(t *testing.T) {
	l := NewList(
		CreateNop(), // 1 byte
		CreateMov(ia32.RegOp(ia32.EAX), ia32.Imm32(7)), // 5 bytes
		CreateRet(), // 1 byte
	)
	buf, err := l.Encode(0x100)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 7 {
		t.Fatalf("encoded %d bytes", len(buf))
	}
	wantOffs := []uint32{0, 1, 6}
	wantLens := []uint32{1, 5, 1}
	i := l.First()
	for n, w := range wantOffs {
		if off, size := i.Extent(); off != w || size != wantLens[n] {
			t.Errorf("instr %d extent = %d+%d, want %d+%d", n, off, size, w, wantLens[n])
		}
		i = i.Next()
	}
	laid, err := l.Layout(nil)
	if err != nil || len(laid) != 7 {
		t.Errorf("Layout = %d bytes, %v", len(laid), err)
	}
}

func TestCreateCondMoveHelpers(t *testing.T) {
	s := CreateSetcc(ia32.OpSetz, ia32.RegOp(ia32.BL))
	c := CreateCmovcc(ia32.OpCmovnl, ia32.RegOp(ia32.EAX), ia32.RegOp(ia32.EDX))
	h := CreateHlt()
	sub := CreateSub(ia32.RegOp(ia32.EAX), ia32.Imm8(1))
	and := CreateAnd(ia32.RegOp(ia32.EAX), ia32.Imm8(3))
	for _, in := range []*Instr{s, c, h, sub, and} {
		if _, err := NewList(in).Encode(0); err != nil {
			t.Errorf("%s: %v", in, err)
		}
	}
	mustPanic := func(f func()) {
		defer func() { recover() }()
		f()
		t.Error("want panic")
	}
	mustPanic(func() { CreateSetcc(ia32.OpAdd, ia32.RegOp(ia32.AL)) })
	mustPanic(func() { CreateCmovcc(ia32.OpJz, ia32.RegOp(ia32.EAX), ia32.RegOp(ia32.EDX)) })
}
