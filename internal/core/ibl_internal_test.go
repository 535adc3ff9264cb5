package core

// White-box tests for the indirect-branch fast path: the eflags-liveness
// analysis behind flag-save elision, the open-address hashtable operations
// (probe insert, backward-shift delete, load ceiling, adaptive doubling),
// and precise fault translation inside an elided (no-popfd) IBL target
// prefix.

import (
	"testing"

	"repro/internal/ia32"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/workload"
)

func eax() ia32.Operand { return ia32.RegOp(ia32.EAX) }
func ebx() ia32.Operand { return ia32.RegOp(ia32.EBX) }

func TestFlagsDeadFrom(t *testing.T) {
	mem := ia32.MemOp(ia32.EBX, ia32.RegNone, 0, 0, 4)
	cases := []struct {
		name string
		mk   func() *instr.List
		want bool
	}{
		{"add writes all six", func() *instr.List {
			return instr.NewList(instr.CreateAdd(eax(), ia32.Imm8(1)))
		}, true},
		{"movs then add", func() *instr.List {
			return instr.NewList(
				instr.CreateMov(eax(), ia32.Imm32(1)),
				instr.CreateMov(ebx(), eax()),
				instr.CreateSub(eax(), ebx()))
		}, true},
		{"inc leaves CF live", func() *instr.List {
			// inc writes five of six; the analysis must not call the
			// flags dead until CF is written too.
			return instr.NewList(instr.CreateInc(eax()))
		}, false},
		{"inc then add completes the set", func() *instr.List {
			return instr.NewList(instr.CreateInc(eax()), instr.CreateAdd(eax(), ia32.Imm8(1)))
		}, true},
		{"adc reads CF first", func() *instr.List {
			return instr.NewList(instr.CreateAdc(eax(), ia32.Imm8(1)))
		}, false},
		{"inc then adc reads CF still live", func() *instr.List {
			return instr.NewList(instr.CreateInc(eax()), instr.CreateAdc(eax(), ia32.Imm8(1)))
		}, false},
		{"cti stops the walk", func() *instr.List {
			return instr.NewList(instr.CreateJmp(0x1000))
		}, false},
		{"memory write is a fault hazard", func() *instr.List {
			return instr.NewList(instr.CreateAdd(mem, ia32.Imm8(1)))
		}, false},
		{"memory read is a fault hazard", func() *instr.List {
			return instr.NewList(instr.CreateMov(eax(), mem), instr.CreateAdd(eax(), ia32.Imm8(1)))
		}, false},
		{"push is an implicit stack access", func() *instr.List {
			return instr.NewList(instr.CreatePush(eax()), instr.CreateAdd(eax(), ia32.Imm8(1)))
		}, false},
		{"end of list with flags still live", func() *instr.List {
			return instr.NewList(instr.CreateMov(eax(), ia32.Imm32(1)))
		}, false},
		{"empty list", func() *instr.List { return instr.NewList() }, false},
	}
	for _, tc := range cases {
		l := tc.mk()
		if got := flagsDeadFrom(l.First(), nil); got != tc.want {
			t.Errorf("%s: flagsDeadFrom = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestFlagsDeadFromSkipsDesignatedInstr(t *testing.T) {
	// The trace elision pass walks from after the popfd and must skip the
	// known-safe ECX reload (a TLS memory read that would otherwise end
	// the analysis as a potential fault site).
	reload := instr.CreateMov(ia32.RegOp(ia32.ECX), ia32.AbsMem(0xD0000000))
	l := instr.NewList(reload, instr.CreateAdd(eax(), ia32.Imm8(1)))
	if flagsDeadFrom(l.First(), nil) {
		t.Fatal("memory read not skipped: analysis should be conservative")
	}
	if !flagsDeadFrom(l.First(), reload) {
		t.Fatal("skip instruction still terminated the analysis")
	}
}

func TestFlagsDeadFromBudget(t *testing.T) {
	l := instr.NewList()
	for i := 0; i < flagsLivenessBudget+1; i++ {
		l.Append(instr.CreateMov(eax(), ia32.Imm32(int64(i))))
	}
	l.Append(instr.CreateAdd(eax(), ia32.Imm8(1)))
	if flagsDeadFrom(l.First(), nil) {
		t.Fatal("analysis exceeded its instruction budget")
	}
}

// newIBLTestRIO builds a booted (but not run) runtime whose thread context
// has an empty IBL table of the given configuration.
func newIBLTestRIO(t *testing.T, mutate func(*Options)) (*RIO, *Context) {
	t.Helper()
	m := machine.New(machine.PentiumIV())
	opts := Default()
	if mutate != nil {
		mutate(&opts)
	}
	r := New(m, workload.ByName("gzip").Image(), opts, nil)
	ctx := r.ContextOf(m.Threads[0])
	if ctx == nil {
		t.Fatal("no context for boot thread")
	}
	return r, ctx
}

func (c *Context) slotAt(i uint32) (tag, dest uint32) {
	mem := c.rio.M.Mem
	return mem.Read32(c.iblSlot(i)), mem.Read32(c.iblSlot(i) + 4)
}

func TestIBLOpenAddressProbeInsert(t *testing.T) {
	r, ctx := newIBLTestRIO(t, func(o *Options) {
		o.IBLTableBits, o.IBL = 6, IBLOpenFixed
	})
	if !r.usesIBLPrefix() {
		t.Fatal("default config should select the open-address table")
	}
	a, b := machine.Addr(0x1000), machine.Addr(0x1040) // both hash to home 0
	ctx.tableInsert(a, 0x111)
	ctx.tableInsert(b, 0x222)
	if tag, dest := ctx.slotAt(0); tag != uint32(a) || dest != 0x111 {
		t.Fatalf("home slot = (%#x,%#x), want (%#x,0x111)", tag, dest, a)
	}
	if tag, dest := ctx.slotAt(1); tag != uint32(b) || dest != 0x222 {
		t.Fatalf("probe slot = (%#x,%#x), want (%#x,0x222): collision must displace, not clobber", tag, dest, b)
	}
	if got := r.Stats.IBLCollisions; got != 1 {
		t.Errorf("IBLCollisions = %d, want 1", got)
	}
	if got := r.Stats.IBLMaxProbe; got != 1 {
		t.Errorf("IBLMaxProbe = %d, want 1", got)
	}
	if ctx.tableLive != 2 {
		t.Errorf("tableLive = %d, want 2", ctx.tableLive)
	}

	// Re-inserting an existing tag updates the destination in place.
	ctx.tableInsert(b, 0x333)
	if tag, dest := ctx.slotAt(1); tag != uint32(b) || dest != 0x333 {
		t.Fatalf("update = (%#x,%#x), want (%#x,0x333)", tag, dest, b)
	}
	if ctx.tableLive != 2 {
		t.Errorf("tableLive after update = %d, want 2", ctx.tableLive)
	}
}

func TestIBLDirectMappedClobberCounted(t *testing.T) {
	r, ctx := newIBLTestRIO(t, func(o *Options) {
		o.IBLTableBits, o.IBL, o.FlagsElision = 6, IBLDirect, false
	})
	a, b := machine.Addr(0x1000), machine.Addr(0x1040)
	ctx.tableInsert(a, 0x111)
	ctx.tableInsert(b, 0x222)
	if tag, dest := ctx.slotAt(0); tag != uint32(b) || dest != 0x222 {
		t.Fatalf("direct-mapped slot = (%#x,%#x), want last-writer (%#x,0x222)", tag, dest, b)
	}
	if got := r.Stats.IBLCollisions; got != 1 {
		t.Errorf("IBLCollisions = %d, want 1 (the clobber)", got)
	}
}

func TestIBLBackwardShiftRemove(t *testing.T) {
	_, ctx := newIBLTestRIO(t, func(o *Options) {
		o.IBLTableBits, o.IBL = 6, IBLOpenFixed
	})
	a, b := machine.Addr(0x1000), machine.Addr(0x1040) // home 0
	c := machine.Addr(0x1041)                          // home 1
	ctx.tableInsert(a, 0xA)
	ctx.tableInsert(b, 0xB) // displaced to slot 1
	ctx.tableInsert(c, 0xC) // home 1 occupied: displaced to slot 2

	ctx.tableRemove(a)
	// Backward shift must slide both displaced entries toward home so the
	// emitted probe walk (stop at first empty) still reaches them.
	if tag, dest := ctx.slotAt(0); tag != uint32(b) || dest != 0xB {
		t.Fatalf("slot 0 = (%#x,%#x), want shifted (%#x,0xB)", tag, dest, b)
	}
	if tag, dest := ctx.slotAt(1); tag != uint32(c) || dest != 0xC {
		t.Fatalf("slot 1 = (%#x,%#x), want shifted (%#x,0xC)", tag, dest, c)
	}
	if tag, _ := ctx.slotAt(2); tag != iblEmptySlot {
		t.Fatalf("slot 2 = %#x, want empty", tag)
	}
	if ctx.tableLive != 2 {
		t.Errorf("tableLive = %d, want 2", ctx.tableLive)
	}

	// An entry sitting in its own home slot must NOT be moved into an
	// earlier hole: that would detach it from its probe chain.
	ctx.clearIBLTable()
	d := machine.Addr(0x2041) // home 1
	ctx.tableInsert(a, 0xA)   // home 0
	ctx.tableInsert(d, 0xD)   // home 1, stays there
	ctx.tableRemove(a)
	if tag, _ := ctx.slotAt(0); tag != iblEmptySlot {
		t.Fatalf("slot 0 = %#x, want empty", tag)
	}
	if tag, dest := ctx.slotAt(1); tag != uint32(d) || dest != 0xD {
		t.Fatalf("slot 1 = (%#x,%#x): at-home entry must not move", tag, dest)
	}

	// Removing an absent tag is a no-op.
	before := ctx.tableLive
	ctx.tableRemove(0x9999)
	if ctx.tableLive != before {
		t.Errorf("removing absent tag changed tableLive")
	}
}

func TestIBLAdaptiveGrowth(t *testing.T) {
	r, ctx := newIBLTestRIO(t, func(o *Options) {
		o.IBLTableBits, o.IBL = 6, IBLOpenAdaptive
	})
	entriesBefore := ctx.iblEntry
	tags := make([]machine.Addr, 0, 33)
	for i := 0; i < 33; i++ {
		tags = append(tags, machine.Addr(0x4000+16*i))
	}
	for i, tag := range tags {
		ctx.tableInsert(tag, machine.Addr(0xC0000000+uint32(i)))
	}
	// 33 live entries exceed half of 64: one doubling to 128.
	if ctx.tableBits != 7 {
		t.Fatalf("tableBits = %d, want 7 after growth", ctx.tableBits)
	}
	if ctx.tableMask != 127 {
		t.Fatalf("tableMask = %#x, want 127", ctx.tableMask)
	}
	if got := r.Stats.IBLResizes; got != 1 {
		t.Errorf("IBLResizes = %d, want 1", got)
	}
	if ctx.tableLive != 33 {
		t.Errorf("tableLive = %d, want 33 after rehash", ctx.tableLive)
	}
	// Routine entry points must not move: linked exits are not re-patched.
	if ctx.iblEntry != entriesBefore {
		t.Fatalf("IBL routine entries moved across growth: %#x -> %#x", entriesBefore, ctx.iblEntry)
	}
	// Every entry must be reachable by the linear probe walk the emitted
	// routine performs under the NEW mask.
	mem := r.M.Mem
	for i, tag := range tags {
		found := false
		for idx := uint32(tag) & ctx.tableMask; ; idx = (idx + 1) & ctx.tableMask {
			cur := mem.Read32(ctx.iblSlot(idx))
			if cur == iblEmptySlot {
				break
			}
			if cur == uint32(tag) {
				if dest := mem.Read32(ctx.iblSlot(idx) + 4); dest != 0xC0000000+uint32(i) {
					t.Fatalf("tag %#x rehashed with wrong dest %#x", tag, dest)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("tag %#x unreachable after rehash", tag)
		}
	}
	if len(ctx.pendingIBLResized) == 0 {
		t.Error("no deferred IBLResized client event queued")
	}
}

func TestIBLGrowthCappedAtMaxBits(t *testing.T) {
	_, ctx := newIBLTestRIO(t, func(o *Options) {
		o.IBLTableBits, o.IBL = maxIBLTableBits, IBLOpenAdaptive
	})
	if ctx.canGrowIBL() {
		t.Fatal("table at maxIBLTableBits must not grow further")
	}
}

func TestIBLLoadCeilingDisplacesWhenFixed(t *testing.T) {
	r, ctx := newIBLTestRIO(t, func(o *Options) {
		o.IBLTableBits, o.IBL = 6, IBLOpenFixed
	})
	ceiling := uint32(64 - 64/4)
	for i := uint32(0); i < ceiling+4; i++ {
		ctx.tableInsert(machine.Addr(0x5000+16*i), machine.Addr(0xC0000000+i))
	}
	if ctx.tableLive != ceiling {
		t.Fatalf("tableLive = %d, want pinned at the %d ceiling", ctx.tableLive, ceiling)
	}
	if got := r.Stats.IBLReplaced; got < 4 {
		t.Errorf("IBLReplaced = %d, want >= 4 displacements", got)
	}
	// The table must still terminate probe walks: at least one empty slot.
	empties := 0
	for i := uint32(0); i <= ctx.tableMask; i++ {
		if tag, _ := ctx.slotAt(i); tag == iblEmptySlot {
			empties++
		}
	}
	if empties == 0 {
		t.Fatal("no empty slot left: emitted probe walks could not terminate")
	}
}

// TestElidedPrefixFaultTranslation drives the full fault-translation path
// with the faulting PC inside an elided (lea, no popfd) IBL target prefix:
// the reconstructed context must pop the pushed application eflags off the
// stack and restore ECX from the spill slot, exactly as if the fault had
// been raised at the branch target natively.
func TestElidedPrefixFaultTranslation(t *testing.T) {
	m := machine.New(machine.PentiumIV())
	b := workload.ByName("crafty")
	r := New(m, b.Image(), Default(), nil)
	if err := r.Run(600_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if r.Stats.FlagsElisions == 0 {
		t.Fatal("vacuous: no fragment received an elided prefix")
	}
	ctx := r.ContextOf(m.Threads[0])
	var frag *Fragment
	for _, f := range ctx.frags {
		for cur := f; cur != nil; cur = cur.shadowedBy {
			// An elided prefix starts with lea (0x8D); conservative ones
			// start with popfd (0x9D).
			if !cur.dead && cur.PrefixLen > 0 && m.Mem.ReadBytes(cur.Entry, 1)[0] == 0x8D {
				frag = cur
			}
		}
	}
	if frag == nil {
		t.Fatal("no live fragment with an elided prefix found")
	}

	const (
		appFlags = ia32.FlagCF | ia32.FlagZF | ia32.FlagSF
		appECX   = 0xDEADBEEF
	)
	t0 := m.Threads[0]
	cpu := &t0.CPU
	espBefore := cpu.Reg(ia32.ESP)

	// Reproduce the machine state mid-prefix: the lookup routine pushed
	// the application eflags, spilled ECX to TLS, and jumped to the
	// prefix with ECX holding the target tag.
	sp := espBefore - 4
	m.Mem.Write32(sp, appFlags)
	cpu.SetReg(ia32.ESP, sp)
	m.Mem.Write32(ctx.spillAddr(offSpillECX), appECX)
	cpu.SetReg(ia32.ECX, uint32(frag.Tag))
	cpu.Eflags = 0
	cpu.EIP = frag.Entry // inside the prefix, before the lea has run

	if !r.translateFault(t0, &machine.Fault{}) {
		t.Fatal("fault in elided prefix reported untranslatable")
	}
	if cpu.EIP != frag.Tag {
		t.Errorf("EIP = %#x, want branch target tag %#x", cpu.EIP, frag.Tag)
	}
	if cpu.Eflags != appFlags {
		t.Errorf("eflags = %#x, want %#x recovered from the pushed word", cpu.Eflags, appFlags)
	}
	if got := cpu.Reg(ia32.ECX); got != appECX {
		t.Errorf("ECX = %#x, want %#x recovered from the spill slot", got, appECX)
	}
	if got := cpu.Reg(ia32.ESP); got != espBefore {
		t.Errorf("ESP = %#x, want %#x (pushed flags word popped)", got, espBefore)
	}

	// A fault after the lea (at the ECX reload) no longer has flags on the
	// stack: only the ECX restore applies.
	cpu.SetReg(ia32.ECX, uint32(frag.Tag))
	cpu.EIP = frag.Entry + 4 // lea esp,[esp+4] is 4 bytes
	if !r.translateFault(t0, &machine.Fault{}) {
		t.Fatal("fault at prefix ECX reload reported untranslatable")
	}
	if cpu.EIP != frag.Tag {
		t.Errorf("EIP = %#x, want %#x", cpu.EIP, frag.Tag)
	}
	if got := cpu.Reg(ia32.ECX); got != appECX {
		t.Errorf("ECX = %#x, want %#x", got, appECX)
	}
	if got := cpu.Reg(ia32.ESP); got != espBefore {
		t.Errorf("ESP = %#x, want unchanged %#x", got, espBefore)
	}
}
