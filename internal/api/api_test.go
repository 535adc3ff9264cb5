package api_test

import (
	"bytes"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/ia32"
	"repro/internal/image"
	"repro/internal/instr"
	"repro/internal/machine"
)

const exitSnippet = `
    mov eax, 1
    mov ebx, 0
    int 0x80
`

func imgOf(t *testing.T, src string) *image.Image {
	t.Helper()
	img, err := image.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestNewDirectExit(t *testing.T) {
	e := api.NewDirectExit(ia32.OpJz, 0x1234, nil, false)
	if tgt, ok := e.Target(); !ok || tgt != 0x1234 {
		t.Errorf("target = %#x, %v", tgt, ok)
	}
	if e.ExitClass() != core.ClassDirect {
		t.Errorf("class = %d", e.ExitClass())
	}
	if e.AlwaysViaStub() {
		t.Error("plain exit should not force the stub")
	}

	stub := instr.NewList(instr.CreatePopfd())
	e2 := api.NewDirectExit(ia32.OpJmp, 0x4321, stub, true)
	if e2.ExitStub() != stub || !e2.AlwaysViaStub() {
		t.Error("stub attachment lost")
	}
}

func TestIndirectExitClassification(t *testing.T) {
	plain := instr.CreateJmp(0)
	plain.SetExitClass(core.ClassDirect)
	if _, ok := api.IsIndirectExit(plain); ok {
		t.Error("direct exit misclassified as indirect")
	}

	ind := instr.CreateJmp(0)
	ind.SetExitClass(core.ClassIndirectRet)
	if fp, ok := api.IsIndirectExit(ind); !ok || fp {
		t.Errorf("ret exit: flagsPushed=%v ok=%v", fp, ok)
	}
	if bt, ok := api.IndirectExitBranchType(ind); !ok || bt != core.BranchRet {
		t.Errorf("branch type = %v, %v", bt, ok)
	}

	fpExit := instr.CreateJcc(ia32.OpJnz, 0)
	fpExit.SetExitClass(core.ClassIndirectJmp | core.ClassFlagsPushedBit)
	if fp, ok := api.IsIndirectExit(fpExit); !ok || !fp {
		t.Errorf("flags-pushed exit: flagsPushed=%v ok=%v", fp, ok)
	}

	internal := instr.CreateJmp(0)
	internal.SetExitClass(core.ClassInternal)
	if _, ok := api.IsIndirectExit(internal); ok {
		t.Error("internal CTI misclassified")
	}
}

// traceCapture grabs the processed trace list for inspection.
type traceCapture struct {
	fn func(ctx *api.Context, tag api.Addr, tr *instr.List)
}

var _ core.TraceHook = (*traceCapture)(nil)

func (traceCapture) Name() string { return "capture" }
func (c *traceCapture) Trace(ctx *api.Context, tag api.Addr, tr *instr.List) {
	c.fn(ctx, tag, tr)
}

func TestFindInlineChecksInRealTrace(t *testing.T) {
	// A hot loop through an indirect jump produces a trace with exactly
	// one inline check of type BranchJmpInd.
	img := imgOf(t, `
main:
    mov ecx, 2000
    xor ebx, ebx
loop:
    mov eax, [target]
    jmp eax
body:
    add ebx, 1
    dec ecx
    jnz loop
`+exitSnippet+`
.org 0x8000
target: .word body
`)
	var checks []api.InlineCheck
	cap := &traceCapture{}
	cap.fn = func(ctx *api.Context, tag api.Addr, tr *instr.List) {
		if len(checks) == 0 {
			checks = api.FindInlineChecks(tr)
		}
	}
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Default(), nil, cap)
	if err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(checks) != 1 {
		t.Fatalf("found %d inline checks, want 1", len(checks))
	}
	ic := checks[0]
	if ic.Type != core.BranchJmpInd {
		t.Errorf("type = %v, want BranchJmpInd", ic.Type)
	}
	if ic.Expected != img.Symbol("body") {
		t.Errorf("expected = %#x, want body (%#x)", ic.Expected, img.Symbol("body"))
	}
	if ic.Cmp.Opcode() != ia32.OpCmp || ic.End.Opcode() != ia32.OpMov {
		t.Error("check structure wrong")
	}
	if ic.First == nil || ic.First.Opcode() != ia32.OpMov {
		t.Error("first instruction should be the ECX spill")
	}
}

func TestRemoveInlineCheckKeepsSemantics(t *testing.T) {
	// Removing the ret check from a call-inlined trace (with its push in
	// the same trace) must leave behaviour intact.
	img := imgOf(t, `
main:
    mov ecx, 3000
    xor ebx, ebx
loop:
    call f
    dec ecx
    jnz loop
    mov eax, 3
    int 0x80
`+exitSnippet+`
f:  add ebx, 2
    ret
`)
	native := machine.New(machine.PentiumIV())
	img.Boot(native)
	if err := native.Run(0); err != nil {
		t.Fatal(err)
	}

	removed := 0
	cap := &traceCapture{}
	cap.fn = func(ctx *api.Context, tag api.Addr, tr *instr.List) {
		// Walk pushes like the ctrace client does, removing matched
		// ret checks.
		var stack []api.Addr
		for i := tr.First(); i != nil; i = i.Next() {
			if i.IsBundle() {
				continue
			}
			if i.Opcode() == ia32.OpPush && i.Meta() && i.Src(0).IsImm() {
				stack = append(stack, api.Addr(i.Src(0).Imm))
			}
		}
		for _, ic := range api.FindInlineChecks(tr) {
			if ic.Type != core.BranchRet || len(stack) == 0 {
				continue
			}
			if stack[len(stack)-1] == ic.Expected {
				api.RemoveInlineCheck(tr, ic)
				removed++
				stack = stack[:len(stack)-1]
			}
		}
	}
	// Mark the call-site block as a head so the trace starts there, and
	// push trace building through the return (default traces stop at
	// backward transitions, which a return to the call site is).
	m := machine.New(machine.PentiumIV())
	marker := &headMarker{tag: img.Symbol("loop")}
	r := core.New(m, img, core.Default(), nil, cap, marker)
	marker.rio = r
	if err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("no checks removed; trace shape unexpected")
	}
	if !bytes.Equal(m.Output, native.Output) {
		t.Errorf("output %q != native %q", m.Output, native.Output)
	}
}

type headMarker struct {
	tag     api.Addr
	rio     *api.RIO
	lastTag api.Addr
}

var (
	_ core.BasicBlockHook = (*headMarker)(nil)
	_ core.EndTraceHook   = (*headMarker)(nil)
)

func (*headMarker) Name() string { return "marker" }
func (h *headMarker) BasicBlock(ctx *api.Context, tag api.Addr, bb *instr.List) {
	if tag == h.tag {
		ctx.MarkTraceHead(tag)
	}
}

// EndTrace continues through one block after a return, so the return gets
// inlined with its check (the Section 4.4 policy in miniature).
func (h *headMarker) EndTrace(ctx *api.Context, traceTag, nextTag api.Addr) api.EndTraceDecision {
	prev := h.lastTag
	if prev == 0 {
		prev = traceTag
	}
	h.lastTag = nextTag
	if h.rio != nil && api.BlockEndsInReturn(h.rio, prev) {
		return api.EndTraceContinue
	}
	return api.EndTraceDefault
}

func TestBlockEndHelpers(t *testing.T) {
	img := imgOf(t, `
main:
    call f
    jmp main
f:  ret
`)
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Default(), nil)
	if !api.BlockEndsInReturn(r, img.Symbol("f")) {
		t.Error("f should end in ret")
	}
	if api.BlockEndsInReturn(r, img.Symbol("main")) {
		t.Error("main ends in call, not ret")
	}

	// DirectCallTarget on a freshly decoded block.
	list := instr.NewList()
	list.Append(instr.CreateNop())
	list.Append(instr.CreateCall(0x5000))
	if tgt, ok := api.DirectCallTarget(list); !ok || tgt != 0x5000 {
		t.Errorf("call target = %#x, %v", tgt, ok)
	}
	list2 := instr.NewList(instr.CreateRet())
	if _, ok := api.DirectCallTarget(list2); ok {
		t.Error("ret is not a call")
	}
	if _, ok := api.DirectCallTarget(instr.NewList()); ok {
		t.Error("empty list")
	}
}

func TestInsertCleanCallConvention(t *testing.T) {
	img := imgOf(t, `
main:
    mov eax, 0x1234     ; a live EAX value the clean call must preserve
    nop
    mov ebx, eax
    mov eax, 3
    int 0x80
`+exitSnippet)
	hits := 0
	var seenEAX uint32
	cl := &cleanCaller{at: img.Entry}
	cl.fn = func(ctx *api.Context) {
		hits++
		seenEAX = ctx.Thread().CPU.Reg(ia32.EAX)
	}
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Default(), nil, cl)
	if err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("clean call ran %d times", hits)
	}
	// Inserted before the nop: EAX holds 0x1234 at the call.
	if seenEAX != 0x1234 {
		t.Errorf("callback saw EAX=%#x, want 0x1234", seenEAX)
	}
	// And the program still prints 0x1234 (EAX preserved across the call).
	if got := m.OutputString(); got != "4660" {
		t.Errorf("output = %q, want 4660", got)
	}
}

type cleanCaller struct {
	at  api.Addr
	id  uint32
	rio *api.RIO
	fn  func(*api.Context)
}

var (
	_ core.InitHook       = (*cleanCaller)(nil)
	_ core.BasicBlockHook = (*cleanCaller)(nil)
)

func (c *cleanCaller) Name() string { return "cleancaller" }
func (c *cleanCaller) Init(r *api.RIO) {
	c.rio = r
	c.id = r.RegisterCleanCall(func(ctx *api.Context) { c.fn(ctx) })
}
func (c *cleanCaller) BasicBlock(ctx *api.Context, tag api.Addr, bb *instr.List) {
	if tag != c.at {
		return
	}
	// Insert before the nop (the third instruction region): find it.
	for i := bb.First(); i != nil; i = i.Next() {
		if !i.IsBundle() && i.Opcode() == ia32.OpNop {
			api.InsertCleanCall(ctx, bb, i, c.id)
			return
		}
	}
	// The nop may be inside a bundle; expand and retry.
	bb.ExpandAll()
	for i := bb.First(); i != nil; i = i.Next() {
		if i.Opcode() == ia32.OpNop {
			api.InsertCleanCall(ctx, bb, i, c.id)
			return
		}
	}
}

func TestIndirectTargetRegConstant(t *testing.T) {
	if api.IndirectTargetReg != ia32.ECX {
		t.Error("the mangling convention register is ECX")
	}
}
