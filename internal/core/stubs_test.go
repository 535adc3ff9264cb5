package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/ia32"
	"repro/internal/image"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/obs"
)

// stubClient splits a block and routes one path through a custom exit stub
// that increments a counter in runtime memory — exercising Section 3.2's
// custom exit stubs, including the always-via-stub linked form.
type stubClient struct {
	at          machine.Addr
	counter     machine.Addr
	viaStubFlag bool
	installed   bool
}

func (c *stubClient) Name() string { return "stubclient" }

func (c *stubClient) Init(r *core.RIO) {
	c.counter = r.AllocGlobal(4)
}

func (c *stubClient) BasicBlock(ctx *core.Context, tag machine.Addr, bb *instr.List) {
	if tag != c.at || c.installed {
		return
	}
	c.installed = true
	// Replace the block's final direct jump exit with one that carries
	// custom stub code. (The block at `loop` ends with jnz/jmp exits
	// after mangling; at hook time it still ends with the original CTI.)
	last := bb.Last()
	if last.IsBundle() || !last.Opcode().IsCond() {
		panic("test expects a conditional block end")
	}
	// Attach stub code to the conditional exit: the stub must run on
	// every taken traversal even when linked.
	stub := instr.NewList(
		instr.CreatePushfd(),
		instr.CreateInc(ia32.AbsMem(c.counter)),
		instr.CreatePopfd(),
	)
	last.SetExitStub(stub, c.viaStubFlag)
}

func TestCustomExitStubCountsTraversals(t *testing.T) {
	img := image.MustAssemble("t", `
main:
    mov ecx, 300
loop:
    dec ecx
    jnz loop
    mov eax, 1
    mov ebx, 0
    int 0x80
`)
	for _, via := range []bool{true, false} {
		cl := &stubClient{at: img.Symbol("loop"), viaStubFlag: via}
		m := machine.New(machine.PentiumIV())
		opts := core.Default()
		opts.EnableTraces = false // keep the block (and its stub) stable
		r := core.New(m, img, opts, nil, cl)
		if err := r.Run(0); err != nil {
			t.Fatal(err)
		}
		count := m.Mem.Read32(cl.counter)
		// The loop block runs 299 times; its jnz is taken 298 times
		// (the last iteration falls through).
		if via && count != 298 {
			t.Errorf("alwaysViaStub: stub ran %d times, want 298 (every taken traversal)", count)
		}
		if !via && (count == 0 || count >= 298) {
			// Without always-via-stub, the stub runs only while the
			// exit is unlinked (the first traversal), then linking
			// bypasses it.
			t.Errorf("linked-bypass: stub ran %d times, want a handful", count)
		}
		if m.Threads[0].ExitCode != 0 {
			t.Errorf("exit code %d", m.Threads[0].ExitCode)
		}
	}
}

func TestIBLTableCollisions(t *testing.T) {
	// With a 1-entry lookup table, every distinct indirect target
	// collides: correctness must hold, misses skyrocket.
	img := image.MustAssemble("t", `
main:
    mov ecx, 600
    xor ebx, ebx
loop:
    mov eax, ecx
    and eax, 3
    mov eax, [tbl+eax*4]
    jmp eax
c0: add ebx, 1
    jmp next
c1: add ebx, 2
    jmp next
c2: add ebx, 3
    jmp next
c3: add ebx, 4
next:
    dec ecx
    jnz loop
    mov eax, 3
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
.org 0x8000
tbl: .word c0, c1, c2, c3
`)
	run := func(bits uint) (*machine.Machine, *core.RIO) {
		m := machine.New(machine.PentiumIV())
		opts := core.Default()
		opts.EnableTraces = false
		opts.IBLTableBits = bits
		r := core.New(m, img, opts, nil)
		if err := r.Run(0); err != nil {
			t.Fatal(err)
		}
		return m, r
	}
	mBig, rBig := run(8)
	mTiny, rTiny := run(0) // clamped to minimum size below
	_ = rTiny
	if !bytes.Equal(mBig.Output, mTiny.Output) {
		t.Fatalf("outputs differ across table sizes: %q vs %q", mBig.Output, mTiny.Output)
	}
	if rBig.Stats.IBLMisses > 100 {
		t.Errorf("big table: %d misses, want few", rBig.Stats.IBLMisses)
	}
}

func TestIBLTinyTableStillCorrect(t *testing.T) {
	img := image.MustAssemble("t", `
main:
    mov ecx, 200
    xor ebx, ebx
loop:
    call f
    dec ecx
    jnz loop
    mov eax, 3
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
f:  add ebx, 1
    ret
`)
	native := machine.New(machine.PentiumIV())
	img.Boot(native)
	if err := native.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, bits := range []uint{1, 2, 4} {
		m := machine.New(machine.PentiumIV())
		opts := core.Default()
		opts.IBLTableBits = bits
		r := core.New(m, img, opts, nil)
		if err := r.Run(0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Output, native.Output) {
			t.Errorf("bits=%d: output %q != native %q", bits, m.Output, native.Output)
		}
	}
}

func TestTraceThresholdExtremes(t *testing.T) {
	img := image.MustAssemble("t", `
main:
    mov ecx, 500
    xor eax, eax
loop:
    add eax, 1
    dec ecx
    jnz loop
    mov ebx, eax
    mov eax, 3
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
`)
	for _, th := range []int{1, 2, 1000000} {
		m := machine.New(machine.PentiumIV())
		opts := core.Default()
		opts.TraceThreshold = th
		r := core.New(m, img, opts, nil)
		if err := r.Run(0); err != nil {
			t.Fatalf("threshold %d: %v", th, err)
		}
		if got := m.OutputString(); got != "500" {
			t.Errorf("threshold %d: output %q", th, got)
		}
		if th <= 2 && r.Stats.TracesBuilt == 0 {
			t.Errorf("threshold %d: no traces", th)
		}
		if th == 1000000 && r.Stats.TracesBuilt != 0 {
			t.Errorf("threshold %d: built %d traces", th, r.Stats.TracesBuilt)
		}
	}
}

func TestMaxTraceBlocksCap(t *testing.T) {
	// One loop body of 40 blocks, longer than the 32-block trace cap: the
	// trace starting at the loop head must stop at exactly the cap, and
	// execution stay correct.
	src := `
main:
    mov ecx, 400
    xor eax, eax
loop:
`
	for i := 0; i < 40; i++ {
		src += "    add eax, 1\n    test eax, 1\n    jnp skip" +
			itoa(i) + "\n    add eax, 0\nskip" + itoa(i) + ":\n"
	}
	src += `
    dec ecx
    jnz loop
    mov ebx, eax
    mov eax, 3
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
`
	img := image.MustAssemble("t", src)
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Default(), nil)
	if err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	if r.Stats.TracesBuilt == 0 {
		t.Error("no traces built")
	}
	if got := m.OutputString(); got != "16000" {
		t.Errorf("output = %q, want 16000", got)
	}
	if mx := r.Histograms()[obs.MetricTraceBlocks].Quantile(1.0); mx != 32 {
		t.Errorf("longest trace absorbed %d blocks, want the cap of 32", mx)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
