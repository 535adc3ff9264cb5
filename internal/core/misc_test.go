package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ia32"
	"repro/internal/image"
	"repro/internal/machine"
	"repro/internal/oracle"
)

func TestContextAccessors(t *testing.T) {
	img := image.MustAssemble("t", "main:\n nop\n hlt\n")
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Default(), nil)
	ctx := r.ContextOf(m.Threads[0])
	if ctx.Thread() != m.Threads[0] || ctx.RIO() != r {
		t.Error("back-references wrong")
	}
	if ctx.TLSAddr() == 0 {
		t.Error("TLS address")
	}
	op := ctx.IndirectSpillOp()
	if op.Kind != ia32.OperandMem || op.Base != ia32.RegNone {
		t.Errorf("spill op = %v", op)
	}

	// Transparent allocations: distinct, aligned, and disjoint between
	// global and thread-local arenas.
	g1, g2 := r.AllocGlobal(12), r.AllocGlobal(4)
	if g2 <= g1 || g2-g1 < 12 || g1%8 != 0 {
		t.Errorf("global alloc: %#x %#x", g1, g2)
	}
	l1, l2 := ctx.AllocLocal(8), ctx.AllocLocal(24)
	if l2 <= l1 || l1 == g1 {
		t.Errorf("local alloc: %#x %#x", l1, l2)
	}
	// Writes through allocations must not alias application memory.
	m.Mem.Write32(g1, 0xAABBCCDD)
	if m.Mem.Read8(img.Entry) == 0xDD {
		t.Error("global arena aliases code")
	}
}

func TestBlockEndInfo(t *testing.T) {
	img := image.MustAssemble("t", `
main:
    nop
    call f
after:
    jmp main
f:  mov eax, [table]
    jmp eax
g:  ret
big:
    .space 4096
table: .word g
`)
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Default(), nil)

	op, target, ok := r.BlockEndInfo(img.Entry)
	if !ok || op != ia32.OpCall || target != img.Symbol("f") {
		t.Errorf("main: %v %#x %v", op, target, ok)
	}
	op, _, ok = r.BlockEndInfo(img.Symbol("after"))
	if !ok || op != ia32.OpJmp {
		t.Errorf("after: %v %v", op, ok)
	}
	op, _, ok = r.BlockEndInfo(img.Symbol("f"))
	if !ok || op != ia32.OpJmpInd {
		t.Errorf("f: %v %v", op, ok)
	}
	op, _, ok = r.BlockEndInfo(img.Symbol("g"))
	if !ok || op != ia32.OpRet {
		t.Errorf("g: %v %v", op, ok)
	}
	// A run of zero bytes has decodable junk but eventually exceeds the
	// block cap without a CTI.
	if _, _, ok := r.BlockEndInfo(img.Symbol("big")); ok {
		t.Error("cap-exceeded block should report !ok")
	}
}

func TestFragmentStrings(t *testing.T) {
	if core.KindBasicBlock.String() != "bb" || core.KindTrace.String() != "trace" {
		t.Error("kind strings")
	}
}

func TestOptionsDefaults(t *testing.T) {
	opts := core.Default()
	if !opts.LinkDirect || !opts.LinkIndirect || !opts.EnableTraces {
		t.Error("default should enable everything")
	}
	if opts.TraceThreshold != 50 {
		t.Errorf("threshold = %d", opts.TraceThreshold)
	}
	ladder := core.TableOneLadder()
	if len(ladder) != 5 {
		t.Fatalf("ladder length %d", len(ladder))
	}
	if ladder[0].Mode != core.ModeEmulate {
		t.Error("first rung must be emulation")
	}
	if ladder[1].LinkDirect || ladder[1].LinkIndirect || ladder[1].EnableTraces {
		t.Error("second rung must be bare caching")
	}
	if !ladder[4].EnableTraces {
		t.Error("last rung must have traces")
	}
}

func TestZeroOptionDefaultsFilled(t *testing.T) {
	img := image.MustAssemble("t", "main:\n mov ecx, 20\nloop:\n dec ecx\n jnz loop\n hlt\n")
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Options{}, nil)
	if r.Opts.TraceThreshold <= 0 || r.Opts.IBLTableBits == 0 {
		t.Errorf("defaults not filled: %+v", r.Opts)
	}
	if err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	native := machine.New(machine.PentiumIV())
	img.Boot(native)
	if err := native.Run(0); err != nil {
		t.Fatal(err)
	}
	// The modeled costs are constants, not options: a zero Options still
	// charges every context switch into the dispatcher.
	switches := r.Stats.ContextSwitches
	if switches == 0 || m.Ticks < native.Ticks+machine.Ticks(switches)*core.DispatchCost {
		t.Errorf("%d ticks for %d context switches (native %d): dispatch not charged %d each",
			m.Ticks, switches, native.Ticks, core.DispatchCost)
	}
}

func TestMachineMiscAccessors(t *testing.T) {
	m := machine.New(machine.PentiumIV())
	if m.Threads[0].Machine() != m {
		t.Error("thread back-reference")
	}
	before := m.Ticks
	m.Charge(100)
	if m.Ticks != before+100 {
		t.Error("Charge")
	}
	if s := m.Mem.String(); !strings.Contains(s, "pages") {
		t.Errorf("memory string %q", s)
	}
	if machine.Ticks(8).Cycles() != 2 {
		t.Error("tick conversion")
	}
}

func TestCacheEvictsOnFull(t *testing.T) {
	// A program with a large code footprint forced through tiny caches: the
	// FIFO allocator must evict and regenerate, and execution stay correct.
	src := "main:\n    mov ecx, 6\nouter:\n    push ecx\n"
	for i := 0; i < 40; i++ {
		src += "    call fn" + itoa(i) + "\n"
	}
	src += `
    pop ecx
    dec ecx
    jnz outer
    mov eax, 3
    mov ebx, [sum]
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
`
	for i := 0; i < 40; i++ {
		src += "fn" + itoa(i) + ":\n    add dword [sum], " + itoa(i+1) + "\n    ret\n"
	}
	src += ".org 0x9000\nsum: .word 0\n"
	img := image.MustAssemble("t", src)

	native := machine.New(machine.PentiumIV())
	img.Boot(native)
	if err := native.Run(0); err != nil {
		t.Fatal(err)
	}

	m := machine.New(machine.PentiumIV())
	opts := core.Default()
	opts.BBCacheSize, opts.TraceCacheSize = 2048, 2048 // far smaller than the program's footprint
	r := core.New(m, img, opts, nil)
	if err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	if msg := oracle.Mismatch(oracle.Capture(native), oracle.Capture(m)); msg != "" {
		t.Errorf("diverged from native:\n%s", msg)
	}
	if r.Stats.Evictions == 0 || r.Stats.Regenerations == 0 {
		t.Errorf("evictions=%d regenerations=%d, want both > 0 in a 2 KiB cache",
			r.Stats.Evictions, r.Stats.Regenerations)
	}
	if r.Stats.FragmentsDeleted == 0 {
		t.Error("evictions should deliver deletion events")
	}
}

func TestCacheTooSmallForOneFragmentGrows(t *testing.T) {
	// A fragment larger than the whole budget grows the cache for good: the
	// budget is a working-set target, not a correctness bound, so the
	// fragment is emitted with no recovery, native window or detach.
	img := image.MustAssemble("t", "main:\n"+strings.Repeat("    add eax, 0x12345678\n", 60)+" hlt\n")
	m := machine.New(machine.PentiumIV())
	opts := core.Default()
	opts.BBCacheSize, opts.TraceCacheSize = 64, 64
	r := core.New(m, img, opts, nil)
	if err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	if r.Stats.CacheResizes == 0 {
		t.Error("fragment larger than the cache should grow it")
	}
	if r.Stats.Recoveries != 0 || r.Stats.NativeWindows != 0 || r.Stats.Detaches != 0 {
		t.Errorf("recoveries=%d native windows=%d detaches=%d, want all 0",
			r.Stats.Recoveries, r.Stats.NativeWindows, r.Stats.Detaches)
	}
	if _, capacity := r.ContextOf(m.Threads[0]).CacheUsage(core.KindBasicBlock); capacity <= 64 {
		t.Errorf("bb cache capacity = %d, want grown past the 64-byte budget", capacity)
	}
	if !m.Threads[0].Halted {
		t.Error("thread should run to completion")
	}
}
