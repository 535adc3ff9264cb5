package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ia32"
	"repro/internal/image"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/oracle"
)

// runNative executes the program directly on the machine.
func runNative(t *testing.T, img *image.Image) *machine.Machine {
	t.Helper()
	m := machine.New(machine.PentiumIV())
	img.Boot(m)
	if err := m.Run(20_000_000); err != nil {
		t.Fatalf("native run: %v", err)
	}
	return m
}

// runUnder executes the program under the runtime with the given options.
func runUnder(t *testing.T, img *image.Image, opts core.Options, clients ...core.Client) (*machine.Machine, *core.RIO) {
	t.Helper()
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, opts, nil, clients...)
	if err := r.Run(60_000_000); err != nil {
		t.Fatalf("run under RIO (%+v): %v", opts, err)
	}
	return m, r
}

// checkTransparent runs img natively and under every Table 1 configuration,
// requiring byte-identical output each time: the core transparency property.
func checkTransparent(t *testing.T, img *image.Image, clients ...core.Client) {
	t.Helper()
	native := runNative(t, img)
	for i, opts := range core.TableOneLadder() {
		m, _ := runUnder(t, img, opts, clients...)
		if !bytes.Equal(m.Output, native.Output) {
			t.Errorf("config %d: output %q, native %q", i, m.Output, native.Output)
		}
		if m.Threads[0].ExitCode != native.Threads[0].ExitCode {
			t.Errorf("config %d: exit %d, native %d", i,
				m.Threads[0].ExitCode, native.Threads[0].ExitCode)
		}
	}
}

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

func TestTransparencyStraightLine(t *testing.T) {
	checkTransparent(t, imgOf(t, `
main:
    mov eax, 10
    add eax, 32
    mov ebx, eax
    mov eax, 3
    int 0x80
`+exitSnippet))
}

func TestTransparencyLoop(t *testing.T) {
	checkTransparent(t, imgOf(t, `
main:
    mov ecx, 200
    xor eax, eax
loop:
    add eax, ecx
    dec ecx
    jnz loop
    mov ebx, eax
    mov eax, 3
    int 0x80
`+exitSnippet))
}

func TestTransparencyCallsAndReturns(t *testing.T) {
	checkTransparent(t, imgOf(t, `
main:
    mov ecx, 100
    xor ebx, ebx
again:
    call addone
    call addone
    dec ecx
    jnz again
    mov eax, 3
    int 0x80
`+exitSnippet+`
addone:
    inc ebx
    ret
`))
}

func TestTransparencyIndirectJumps(t *testing.T) {
	checkTransparent(t, imgOf(t, `
main:
    mov ecx, 120
    xor ebx, ebx
    xor esi, esi
loop:
    mov eax, esi
    and eax, 3
    mov eax, [table+eax*4]
    jmp eax
case0:
    add ebx, 1
    jmp next
case1:
    add ebx, 2
    jmp next
case2:
    add ebx, 3
    jmp next
case3:
    add ebx, 5
next:
    inc esi
    dec ecx
    jnz loop
    mov eax, 3
    int 0x80
`+exitSnippet+`
.org 0x8000
table: .word case0, case1, case2, case3
`))
}

func TestTransparencyIndirectCalls(t *testing.T) {
	checkTransparent(t, imgOf(t, `
main:
    mov ecx, 80
    xor ebx, ebx
loop:
    mov eax, ecx
    and eax, 1
    call [funcs+eax*4]
    dec ecx
    jnz loop
    mov eax, 3
    int 0x80
`+exitSnippet+`
f1: add ebx, 10
    ret
f2: add ebx, 100
    ret
.org 0x8000
funcs: .word f1, f2
`))
}

func TestTransparencyRetImm(t *testing.T) {
	checkTransparent(t, imgOf(t, `
main:
    mov ecx, 60
    xor ebx, ebx
loop:
    push 7
    push 5
    call addtwo
    dec ecx
    jnz loop
    mov eax, 3
    int 0x80
`+exitSnippet+`
addtwo:
    mov eax, [esp+4]
    add eax, [esp+8]
    add ebx, eax
    ret 8
`))
}

func TestTransparencyRecursion(t *testing.T) {
	checkTransparent(t, imgOf(t, `
main:
    mov eax, 12
    call fib
    mov ebx, eax
    mov eax, 3
    int 0x80
`+exitSnippet+`
fib:                       ; eax -> fib(eax), clobbers edx
    cmp eax, 2
    jnl recurse
    mov eax, 1
    ret
recurse:
    push eax
    dec eax
    call fib
    pop edx                ; original n
    push eax               ; fib(n-1)
    mov eax, edx
    sub eax, 2
    call fib
    pop edx                ; fib(n-1)
    add eax, edx
    ret
`))
}

func TestTransparencyFlagsAcrossIndirect(t *testing.T) {
	// Flags set before a return must survive the runtime's indirect
	// branch machinery (the pushfd/popfd discipline).
	checkTransparent(t, imgOf(t, `
main:
    mov ecx, 50
    xor ebx, ebx
loop:
    call setflags
    jo  sawoverflow
    jmp next
sawoverflow:
    inc ebx
next:
    dec ecx
    jnz loop
    mov eax, 3
    int 0x80
`+exitSnippet+`
setflags:
    mov eax, 0x7fffffff
    add eax, 1             ; OF=1
    ret
`))
}

func TestTransparencySelfPatchingData(t *testing.T) {
	// Stores near (but not into) code must not disturb execution.
	checkTransparent(t, imgOf(t, `
main:
    mov ecx, 30
    xor ebx, ebx
loop:
    mov [scratch], ecx
    add ebx, [scratch]
    dec ecx
    jnz loop
    mov eax, 3
    int 0x80
`+exitSnippet+`
.org 0x8000
scratch: .word 0
`))
}

func TestTransparencyHotLoopBuildsTrace(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 5000
    xor eax, eax
loop:
    add eax, 3
    sub eax, 1
    dec ecx
    jnz loop
    mov ebx, eax
    mov eax, 3
    int 0x80
`+exitSnippet)
	native := runNative(t, img)
	m, r := runUnder(t, img, core.Default())
	if !bytes.Equal(m.Output, native.Output) {
		t.Errorf("output %q, native %q", m.Output, native.Output)
	}
	if r.Stats.TracesBuilt == 0 {
		t.Error("hot loop built no traces")
	}
}

func TestTraceReducesOverheadVersusNoTrace(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 30000
    xor ebx, ebx
again:
    call work
    dec ecx
    jnz again
    mov eax, 3
    int 0x80
`+exitSnippet+`
work:
    add ebx, 2
    cmp ebx, 1000000
    jl  ok
    sub ebx, 1000000
ok: ret
`)
	noTraces := core.Default()
	noTraces.EnableTraces = false
	mNo, _ := runUnder(t, img, noTraces)
	mYes, rYes := runUnder(t, img, core.Default())
	if rYes.Stats.TracesBuilt == 0 {
		t.Fatal("no traces built")
	}
	if mYes.Ticks >= mNo.Ticks {
		t.Errorf("traces did not help: with=%d without=%d ticks", mYes.Ticks, mNo.Ticks)
	}
}

func TestFeatureLadderMonotonic(t *testing.T) {
	// Each Table 1 feature must reduce execution time on an
	// indirect-branch-rich workload.
	// The indirect call target is heavily biased (as returns usually
	// are), so the trace's inlined target check mostly hits.
	img := imgOf(t, `
main:
    mov ecx, 20000
    xor ebx, ebx
loop:
    xor eax, eax
    test ecx, 15
    jnz pick
    mov eax, 1
pick:
    call [funcs+eax*4]
    dec ecx
    jnz loop
    mov eax, 3
    int 0x80
`+exitSnippet+`
f0: add ebx, 1
    ret
f1: add ebx, 2
    ret
.org 0x8000
funcs: .word f0, f1
`)
	native := runNative(t, img)
	var prev machine.Ticks
	for i, opts := range core.TableOneLadder() {
		m, _ := runUnder(t, img, opts)
		if !bytes.Equal(m.Output, native.Output) {
			t.Fatalf("config %d output mismatch", i)
		}
		if i > 0 && m.Ticks >= prev {
			t.Errorf("config %d (%d ticks) not faster than config %d (%d ticks)",
				i, m.Ticks, i-1, prev)
		}
		prev = m.Ticks
	}
	if native.Ticks >= prev {
		t.Logf("note: full config %d ticks vs native %d ticks (ratio %.2f)",
			prev, native.Ticks, float64(prev)/float64(native.Ticks))
	}
}

func TestLinkingReducesContextSwitches(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 1000
loop:
    dec ecx
    jnz loop
`+exitSnippet)
	unlinkedOpts := core.Default()
	unlinkedOpts.LinkDirect, unlinkedOpts.LinkIndirect, unlinkedOpts.EnableTraces = false, false, false
	_, rUn := runUnder(t, img, unlinkedOpts)

	linkedOpts := core.Default()
	linkedOpts.EnableTraces = false
	_, rLk := runUnder(t, img, linkedOpts)

	if rUn.Stats.ContextSwitches < 1000 {
		t.Errorf("unlinked: %d context switches, want >= 1000", rUn.Stats.ContextSwitches)
	}
	if rLk.Stats.ContextSwitches > 50 {
		t.Errorf("linked: %d context switches, want few", rLk.Stats.ContextSwitches)
	}
	if rLk.Stats.Links == 0 {
		t.Error("no links made")
	}
}

func TestIBLHitsAvoidDispatcher(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 2000
    xor ebx, ebx
loop:
    call f
    dec ecx
    jnz loop
    mov eax, 3
    int 0x80
`+exitSnippet+`
f:  inc ebx
    ret
`)
	opts := core.Default()
	opts.EnableTraces = false
	_, r := runUnder(t, img, opts)
	// The ret's target is hot: after warmup the in-cache lookup handles
	// it; context switches must be far fewer than iterations.
	if r.Stats.ContextSwitches > 200 {
		t.Errorf("IBL not effective: %d context switches for 2000 returns",
			r.Stats.ContextSwitches)
	}
}

func TestThreadPrivateCaches(t *testing.T) {
	// Each loop outlasts the machine's scheduling quantum, so the threads
	// interleave while both are building and running cache code.
	img := imgOf(t, `
main:
    mov eax, 5
    mov ebx, worker
    mov ecx, 0x200000
    int 0x80
    mov ecx, 30000
mainloop:
    dec ecx
    jnz mainloop
wait:
    mov eax, [done]
    test eax, eax
    jz wait
`+exitSnippet+`
worker:
    mov ecx, 30000
wloop:
    dec ecx
    jnz wloop
    mov dword [done], 1
    mov eax, 1
    mov ebx, 0
    int 0x80
.org 0x9000
done: .word 0
`)
	m, r := runUnder(t, img, core.Default())
	if len(m.Threads) != 2 {
		t.Fatalf("threads = %d", len(m.Threads))
	}
	for _, th := range m.Threads {
		if !th.Halted {
			t.Errorf("thread %d did not halt", th.ID)
		}
	}
	// Both threads built their own copies of the loop code.
	if r.Stats.BlocksBuilt < 6 {
		t.Errorf("blocks built = %d, want each thread building privately", r.Stats.BlocksBuilt)
	}

	// The shared-cache ablation also runs correctly: both threads allocate
	// from one region, so neither may overwrite the other's fragments.
	opts := core.Default()
	opts.SharedCache = true
	m2, r2 := runUnder(t, img, opts)
	if msg := oracle.Mismatch(oracle.Capture(runNative(t, img)), oracle.Capture(m2)); msg != "" {
		t.Errorf("shared cache diverged from native:\n%s", msg)
	}
	for _, th := range m2.Threads {
		if !th.Halted {
			t.Errorf("shared cache: thread %d did not halt", th.ID)
		}
		if err := r2.ContextOf(th).CheckCacheInvariants(); err != nil {
			t.Errorf("shared cache: thread %d: %v", th.ID, err)
		}
	}
}

func TestSignalDeliveryUnderRIO(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 60000
spin:
    dec ecx
    jnz spin
    mov eax, 3
    mov ebx, [hits]
    int 0x80
`+exitSnippet+`
handler:
    inc dword [hits]
    ret
.org 0x8000
hits: .word 0
`)
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Default(), nil)
	m.QueueSignal(m.Threads[0], img.Symbol("handler"))
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.OutputString(); got != "1" {
		t.Errorf("output = %q, want 1", got)
	}
}

// --- client hook tests ---

// countingClient exercises every hook.
type countingClient struct {
	inits, exits, tinits, texits int
	bbs, traces, deleted         int
	endTraceCalls                int
	sawTags                      map[machine.Addr]bool
}

func (c *countingClient) Name() string                 { return "counting" }
func (c *countingClient) Init(r *core.RIO)             { c.inits++ }
func (c *countingClient) Exit(r *core.RIO)             { c.exits++ }
func (c *countingClient) ThreadInit(ctx *core.Context) { c.tinits++ }
func (c *countingClient) ThreadExit(ctx *core.Context) { c.texits++ }
func (c *countingClient) BasicBlock(ctx *core.Context, tag machine.Addr, bb *instr.List) {
	c.bbs++
	if c.sawTags == nil {
		c.sawTags = map[machine.Addr]bool{}
	}
	c.sawTags[tag] = true
	if bb.InstrCount() == 0 {
		panic("empty block")
	}
}
func (c *countingClient) Trace(ctx *core.Context, tag machine.Addr, tr *instr.List) { c.traces++ }
func (c *countingClient) FragmentDeleted(ctx *core.Context, tag machine.Addr)       { c.deleted++ }
func (c *countingClient) EndTrace(ctx *core.Context, traceTag, nextTag machine.Addr) core.EndTraceDecision {
	c.endTraceCalls++
	return core.EndTraceDefault
}

func TestClientHooks(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 2000
    xor eax, eax
loop:
    add eax, 1
    dec ecx
    jnz loop
    mov ebx, eax
    mov eax, 3
    int 0x80
`+exitSnippet)
	cl := &countingClient{}
	m, r := runUnder(t, img, core.Default(), cl)
	if got := m.OutputString(); got != "2000" {
		t.Errorf("output = %q", got)
	}
	if cl.inits != 1 || cl.exits != 1 || cl.tinits != 1 || cl.texits != 1 {
		t.Errorf("lifecycle hooks: init=%d exit=%d tinit=%d texit=%d",
			cl.inits, cl.exits, cl.tinits, cl.texits)
	}
	// The bb hook fires once per block built plus once per block
	// incorporated into a trace.
	if cl.bbs < int(r.Stats.BlocksBuilt) {
		t.Errorf("bb hook calls = %d, blocks built = %d", cl.bbs, r.Stats.BlocksBuilt)
	}
	if cl.traces == 0 || uint64(cl.traces) != r.Stats.TracesBuilt {
		t.Errorf("trace hook calls = %d, traces = %d", cl.traces, r.Stats.TracesBuilt)
	}
	if !cl.sawTags[img.Entry] {
		t.Error("bb hook never saw the entry block")
	}
}

// insertingClient inserts a counting instruction into every basic block
// (instrumentation use of the interface).
type insertingClient struct {
	counterAddr machine.Addr
}

func (c *insertingClient) Name() string { return "inserter" }
func (c *insertingClient) BasicBlock(ctx *core.Context, tag machine.Addr, bb *instr.List) {
	// inc dword [counter] — wrapped in pushfd/popfd to preserve the
	// application's flags (the eflags discipline the paper emphasizes).
	first := bb.First()
	bb.InsertBefore(first, instr.CreatePushfd())
	bb.InsertBefore(first, instr.CreateInc(ia32.AbsMem(c.counterAddr)))
	bb.InsertBefore(first, instr.CreatePopfd())
}

func TestClientInstrumentation(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 100
loop:
    dec ecx
    jnz loop
`+exitSnippet)
	const counterAddr = 0x00300000
	native := runNative(t, img)
	cl := &insertingClient{counterAddr: counterAddr}
	m, _ := runUnder(t, img, core.Default(), cl)
	if !bytes.Equal(m.Output, native.Output) {
		t.Errorf("instrumented output %q != native %q", m.Output, native.Output)
	}
	count := m.Mem.Read32(counterAddr)
	// 1 entry block + 100 loop block executions + exit path; traces may
	// merge blocks, but every block execution must be counted once.
	if count < 100 || count > 120 {
		t.Errorf("block executions counted = %d, want ~102", count)
	}
}

// markerClient marks a function as a custom trace head and ends traces at
// its return (a miniature of the Section 4.4 client).
type markerClient struct {
	headTag machine.Addr
	marked  bool
}

func (c *markerClient) Name() string { return "marker" }
func (c *markerClient) BasicBlock(ctx *core.Context, tag machine.Addr, bb *instr.List) {
	if tag == c.headTag && !c.marked {
		ctx.MarkTraceHead(tag)
		c.marked = true
	}
}

func TestCustomTraceHead(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 2000
    xor ebx, ebx
loop:
    call f
    dec ecx
    jnz loop
    mov eax, 3
    int 0x80
`+exitSnippet+`
f:  add ebx, 1
    ret
`)
	cl := &markerClient{headTag: img.Symbol("f")}
	_, r := runUnder(t, img, core.Default(), cl)
	if r.Stats.TracesBuilt == 0 {
		t.Error("no traces built from custom head")
	}
}

func TestEndTraceHookForcesEnd(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 3000
    xor eax, eax
loop:
    add eax, 1
    cmp eax, 100000
    jl  cont
    xor eax, eax
cont:
    dec ecx
    jnz loop
    mov ebx, eax
    mov eax, 3
    int 0x80
`+exitSnippet)
	// Force every trace to end immediately: traces then have one block.
	ender := endTraceClient{decision: core.EndTraceEnd}
	_, r := runUnder(t, img, core.Default(), ender)
	if r.Stats.TracesBuilt == 0 {
		t.Fatal("no traces built")
	}
}

type endTraceClient struct{ decision core.EndTraceDecision }

func (endTraceClient) Name() string { return "ender" }
func (c endTraceClient) EndTrace(ctx *core.Context, traceTag, nextTag machine.Addr) core.EndTraceDecision {
	return c.decision
}

// --- adaptive replacement tests ---

type replacingClient struct {
	target    machine.Addr
	replaced  bool
	onTraceCb func(ctx *core.Context, tag machine.Addr, tr *instr.List)
}

func (c *replacingClient) Name() string { return "replacer" }
func (c *replacingClient) Trace(ctx *core.Context, tag machine.Addr, tr *instr.List) {
	if c.onTraceCb != nil {
		c.onTraceCb(ctx, tag, tr)
	}
}

func TestDecodeAndReplaceFragment(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 5000
    xor eax, eax
loop:
    add eax, 2
    dec ecx
    jnz loop
    mov ebx, eax
    mov eax, 3
    int 0x80
`+exitSnippet)
	var replacedTag machine.Addr
	cl := &replacingClient{}
	cl.onTraceCb = func(ctx *core.Context, tag machine.Addr, tr *instr.List) {
		if cl.replaced {
			return
		}
		cl.replaced = true
		replacedTag = tag
		// After emission, decode the trace back and replace it with an
		// identical copy via the sideline queue (we cannot re-enter
		// fragment creation from inside the trace hook).
		ctx.EnqueueSideline(func(ctx *core.Context) {
			il := ctx.DecodeFragment(tag)
			if il == nil {
				t.Error("DecodeFragment returned nil")
				return
			}
			if !ctx.ReplaceFragment(tag, il) {
				t.Error("ReplaceFragment failed")
			}
		})
	}
	deleted := &countingClient{}
	m, r := runUnder(t, img, core.Default(), cl, deleted)
	if got := m.OutputString(); got != "10000" {
		t.Errorf("output = %q, want 10000", got)
	}
	if !cl.replaced {
		t.Fatal("trace hook never ran")
	}
	if r.Stats.Replacements != 1 {
		t.Errorf("replacements = %d, want 1", r.Stats.Replacements)
	}
	if deleted.deleted == 0 {
		t.Errorf("no fragment-deleted event after replacement (tag %#x)", replacedTag)
	}
}

func TestFlushAll(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 400
    xor eax, eax
loop:
    add eax, 1
    dec ecx
    jnz loop
    mov ebx, eax
    mov eax, 3
    int 0x80
`+exitSnippet)
	flushed := false
	cl := &replacingClient{}
	cl.onTraceCb = func(ctx *core.Context, tag machine.Addr, tr *instr.List) {
		if flushed {
			return
		}
		flushed = true
		ctx.EnqueueSideline(func(ctx *core.Context) { ctx.FlushAll() })
	}
	opts := core.Default()
	opts.TraceThreshold = 10
	m, r := runUnder(t, img, opts, cl)
	if got := m.OutputString(); got != "400" {
		t.Errorf("output = %q, want 400", got)
	}
	if !flushed {
		t.Skip("loop too cold to trigger a trace")
	}
	if r.Stats.FragmentsDeleted == 0 {
		t.Error("flush deleted nothing")
	}
}

// --- clean call tests ---

type cleanCallClient struct {
	id    uint32
	hits  int
	rio   *core.RIO
	where machine.Addr
}

func (c *cleanCallClient) Name() string { return "cleancall" }
func (c *cleanCallClient) Init(r *core.RIO) {
	c.rio = r
	c.id = r.RegisterCleanCall(func(ctx *core.Context) { c.hits++ })
}
func (c *cleanCallClient) BasicBlock(ctx *core.Context, tag machine.Addr, bb *instr.List) {
	if tag != c.where {
		return
	}
	// Insert: spill eax (to the slot the runtime restores from);
	// mov eax, id; call trap.
	first := bb.First()
	bb.InsertBefore(first, instr.CreateMov(ctx.CleanCallSpillOp(), ia32.RegOp(ia32.EAX)))
	bb.InsertBefore(first, instr.CreateMov(ia32.RegOp(ia32.EAX), ia32.Imm32(int64(c.id))))
	bb.InsertBefore(first, instr.CreateCall(c.rio.CleanCallTrap()))
}

func TestCleanCall(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 50
loop:
    dec ecx
    jnz loop
`+exitSnippet)
	cl := &cleanCallClient{where: img.Symbol("loop")}
	opts := core.Default()
	opts.EnableTraces = false // keep the block intact
	m, _ := runUnder(t, img, opts, cl)
	if m.Threads[0].ExitCode != 0 {
		t.Errorf("exit = %d", m.Threads[0].ExitCode)
	}
	// The first iteration executes inside the entry block (discovered at
	// `main`, running through the loop body inline), whose tag is not
	// `loop`; the remaining 49 iterations run the instrumented block.
	if cl.hits != 49 {
		t.Errorf("clean call hits = %d, want 49", cl.hits)
	}
}

func TestEmulationModeIsSlow(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 3000
l:  dec ecx
    jnz l
`+exitSnippet)
	native := runNative(t, img)
	opts := core.Default()
	opts.Mode = core.ModeEmulate
	m, _ := runUnder(t, img, opts)
	ratio := float64(m.Ticks) / float64(native.Ticks)
	if ratio < 100 {
		t.Errorf("emulation ratio = %.0f, want a few hundred", ratio)
	}
	if !bytes.Equal(m.Output, native.Output) {
		t.Error("emulation output mismatch")
	}
}

func TestSpillSlotsAndTLS(t *testing.T) {
	img := imgOf(t, "main:\n nop\n"+exitSnippet)
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Default(), nil)
	ctx := r.ContextOf(m.Threads[0])
	if ctx == nil {
		t.Fatal("no context for thread 0")
	}
	a0, a1 := ctx.SpillSlotAddr(0), ctx.SpillSlotAddr(1)
	if a1 != a0+4 {
		t.Errorf("spill slots not contiguous: %#x %#x", a0, a1)
	}
	ctx.SetClientTLS("hello")
	if ctx.ClientTLS() != "hello" {
		t.Error("client TLS lost")
	}
	op := ctx.SpillSlotOp(2)
	if op.Kind != ia32.OperandMem || op.Base != ia32.RegNone {
		t.Errorf("spill slot operand = %v", op)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range spill slot should panic")
		}
	}()
	ctx.SpillSlotAddr(99)
}

func TestProcessorFamily(t *testing.T) {
	img := imgOf(t, "main:\n nop\n"+exitSnippet)
	m := machine.New(machine.PentiumIII())
	r := core.New(m, img, core.Default(), nil)
	if r.ProcessorFamily() != machine.FamilyPentium3 {
		t.Error("family wrong")
	}
}

func TestPrintfTransparency(t *testing.T) {
	img := imgOf(t, `
main:
    mov eax, 2
    mov ebx, 'A'
    int 0x80
`+exitSnippet)
	var clientOut strings.Builder
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Default(), &clientOut)
	r.Printf("client: %d\n", 42)
	if err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.OutputString() != "A" {
		t.Errorf("app output = %q", m.OutputString())
	}
	if clientOut.String() != "client: 42\n" {
		t.Errorf("client output = %q", clientOut.String())
	}
	if strings.Contains(m.OutputString(), "client") {
		t.Error("client output leaked into application stream")
	}
}

func TestStatsString(t *testing.T) {
	img := imgOf(t, "main:\n nop\n"+exitSnippet)
	_, r := runUnder(t, img, core.Default())
	s := fmt.Sprintf("%+v", r.Stats)
	if !strings.Contains(s, "BlocksBuilt") {
		t.Errorf("stats = %s", s)
	}
}
