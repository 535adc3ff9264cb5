package core_test

import (
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/instr"
	"repro/internal/machine"
)

// selfModifying patches its own loop body between iterations: the add's
// immediate byte is bumped from 1 to 2 after the first pass.
const selfModifying = `
main:
    mov ecx, 5
    mov ebx, 0
loop:
    add ebx, 1          ; patched to add ebx, 2 (83 C3 xx)
    mov byte [loop+2], 2
    dec ecx
    jnz loop
    mov eax, 3
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
`

// TestSelfModifyingCodeViaDispatcher checks the automatic consistency path:
// with linking off, every block entry goes through the dispatcher, whose
// lookup validates source-page generations and rebuilds stale fragments.
func TestSelfModifyingCodeViaDispatcher(t *testing.T) {
	img := image.MustAssemble("t", selfModifying)
	native := machine.New(machine.PentiumIV())
	img.Boot(native)
	if err := native.Run(0); err != nil {
		t.Fatal(err)
	}
	// 1 + 2 + 2 + 2 + 2: the first pass adds 1, the patch makes every
	// later pass add 2. The store re-executes each iteration, bumping the
	// code page's generation and forcing rebuilds.
	if native.OutputString() != "9" {
		t.Fatalf("native output %q, want 9", native.OutputString())
	}

	m := machine.New(machine.PentiumIV())
	opts := core.Default()
	opts.LinkDirect, opts.LinkIndirect, opts.EnableTraces = false, false, false
	r := core.New(m, img, opts, nil)
	if err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.OutputString() != "9" {
		t.Errorf("output %q, want 9", m.OutputString())
	}
	if r.Stats.StaleFragments == 0 {
		t.Error("no stale fragments detected")
	}
}

// invalidator inserts a clean call after a known patching store that tells
// the runtime to invalidate the modified range — the explicit
// cross-modification interface.
type invalidator struct {
	blockTag    machine.Addr
	start, end  machine.Addr
	rio         *core.RIO
	Invalidated int
	cleanCallID uint32
}

var (
	_ core.InitHook       = (*invalidator)(nil)
	_ core.BasicBlockHook = (*invalidator)(nil)
)

func (c *invalidator) Name() string { return "invalidator" }
func (c *invalidator) Init(r *core.RIO) {
	c.rio = r
	c.cleanCallID = r.RegisterCleanCall(func(ctx *core.Context) {
		c.Invalidated += ctx.InvalidateRange(c.start, c.end)
	})
}
func (c *invalidator) BasicBlock(ctx *core.Context, tag machine.Addr, bb *instr.List) {
	if tag != c.blockTag {
		return
	}
	// Insert the invalidation call before the block's ending CTI (after
	// the patching store has executed).
	last := bb.Last()
	api.InsertCleanCall(ctx, bb, last, c.cleanCallID)
}

// TestExplicitInvalidateRange checks cross-modification with full linking:
// links would normally keep executing the stale copy, but the client's
// InvalidateRange severs them so the dispatcher rebuilds from the patched
// code.
func TestExplicitInvalidateRange(t *testing.T) {
	img := image.MustAssemble("t", `
main:
    mov ecx, 4
    mov ebx, 0
loop:
    call f
patchsite:
    mov byte [f+2], 5   ; f becomes add ebx, 5 after first call
    dec ecx
    jnz loop
    mov eax, 3
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
f:  add ebx, 1          ; 83 C3 01
    ret
`)
	native := machine.New(machine.PentiumIV())
	img.Boot(native)
	if err := native.Run(0); err != nil {
		t.Fatal(err)
	}
	want := native.OutputString() // 1 + 5 + 5 + 5 = 16
	if want != "16" {
		t.Fatalf("native output %q", want)
	}

	cl := &invalidator{
		blockTag: img.Symbol("patchsite"),
		start:    img.Symbol("f"),
		end:      img.Symbol("f") + 8,
	}
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Default(), nil, cl)
	if err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.OutputString(); got != want {
		t.Errorf("output %q, want %q", got, want)
	}
	if cl.Invalidated == 0 {
		t.Error("InvalidateRange never discarded anything")
	}
	if r.Stats.FragmentsDeleted == 0 {
		t.Error("no deletion events from invalidation")
	}
}

func TestInvalidateRangeEdgeCases(t *testing.T) {
	img := image.MustAssemble("t", "main:\n nop\n hlt\n")
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Default(), nil)
	ctx := r.ContextOf(m.Threads[0])
	if n := ctx.InvalidateRange(10, 10); n != 0 {
		t.Error("empty range")
	}
	if n := ctx.InvalidateRange(20, 10); n != 0 {
		t.Error("inverted range")
	}
	// Nothing built yet.
	if n := ctx.InvalidateRange(0, 0x1000); n != 0 {
		t.Error("no fragments yet")
	}
}
