package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/oracle"
)

// These tests check the fault-transparency contract of the paper's Section
// 3.3.4: a synchronous fault raised while the thread runs translated code in
// the cache must be observationally identical to the same fault raised
// natively — same faulting application EIP, same registers, same handler
// behaviour — across every runtime configuration.

func utoa(v uint32) string { return fmt.Sprintf("%d", v) }

// faultConfigs are the configurations the fault differential tests sweep:
// the full Table 1 ladder plus a tightly bounded FIFO-evicting cache.
func faultConfigs() []core.Options {
	configs := core.TableOneLadder()
	bounded := core.Default()
	bounded.BBCacheSize = 4 << 10
	bounded.TraceCacheSize = 4 << 10
	configs = append(configs, bounded)
	return configs
}

// TestFaultTranslationDivide raises an unhandled #DE after a hot loop (so
// trace-building configs fault inside a trace) and requires the recorded
// fault context to match the native run exactly.
func TestFaultTranslationDivide(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 300
spin:
    add eax, 1
    dec ecx
    jnz spin
    mov eax, 100
    xor edx, edx
    xor ebx, ebx
divhere:
    div ebx
    mov eax, 1
    mov ebx, 0
    int 0x80
`)
	native := runNative(t, img)
	nrec := native.Threads[0].FaultRecord
	if nrec == nil || nrec.Kind != machine.FaultDivide || nrec.EIP != img.Symbol("divhere") {
		t.Fatalf("native fault record = %+v, want #DE at %#x", nrec, img.Symbol("divhere"))
	}

	for i, opts := range faultConfigs() {
		m, r := runUnder(t, img, opts, nil...)
		rec := m.Threads[0].FaultRecord
		if rec == nil {
			t.Errorf("config %d: no fault record", i)
			continue
		}
		if rec.Kind != nrec.Kind || rec.EIP != nrec.EIP {
			t.Errorf("config %d: fault %v at %#x, native %v at %#x",
				i, rec.Kind, rec.EIP, nrec.Kind, nrec.EIP)
		}
		if len(m.FaultTrace) != len(native.FaultTrace) {
			t.Errorf("config %d: fault trace length %d, native %d",
				i, len(m.FaultTrace), len(native.FaultTrace))
		}
		c, nc := m.Threads[0].CPU, native.Threads[0].CPU
		for reg := 0; reg < 8; reg++ {
			if c.R[reg] != nc.R[reg] {
				t.Errorf("config %d: reg %d = %#x, native %#x", i, reg, c.R[reg], nc.R[reg])
			}
		}
		if opts.Mode == core.ModeCache && r.Stats.FaultsTranslated == 0 {
			t.Errorf("config %d: fault in cache code was never translated", i)
		}
	}
}

// TestFaultInMangledRet faults inside runtime-injected code: the mangled
// form of ret pops through ECX after spilling the application's ECX, so a
// #PF on the pop must restore ECX from the spill slot and report the ret's
// own application PC.
func TestFaultInMangledRet(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 0x12345678
    mov esp, 0x00300000
rethere:
    ret
`)
	run := func(opts *core.Options) *machine.Machine {
		m := machine.New(machine.PentiumIV())
		m.Mem.Protect(0x00300000, 0x00301000, machine.ProtNoRead)
		if opts == nil {
			img.Boot(m)
			if err := m.Run(0); err != nil {
				t.Fatal(err)
			}
		} else {
			r := core.New(m, img, *opts, nil)
			if err := r.Run(0); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	native := run(nil)
	nrec := native.Threads[0].FaultRecord
	if nrec == nil || nrec.Kind != machine.FaultPage || nrec.EIP != img.Symbol("rethere") ||
		nrec.Addr != 0x00300000 || nrec.Write {
		t.Fatalf("native record = %+v, want #PF read of 0x300000 at rethere", nrec)
	}

	for i, opts := range faultConfigs() {
		opts := opts
		m := run(&opts)
		rec := m.Threads[0].FaultRecord
		if rec == nil {
			t.Errorf("config %d: no fault record", i)
			continue
		}
		if rec.Kind != nrec.Kind || rec.EIP != nrec.EIP || rec.Addr != nrec.Addr || rec.Write != nrec.Write {
			t.Errorf("config %d: record %+v, native %+v", i, rec, nrec)
		}
		c, nc := m.Threads[0].CPU, native.Threads[0].CPU
		if c.R[1] != nc.R[1] { // ECX: must come back from the spill slot
			t.Errorf("config %d: ECX = %#x, native %#x", i, c.R[1], nc.R[1])
		}
		if c.R[4] != nc.R[4] { // ESP: the pop must be fully rewound
			t.Errorf("config %d: ESP = %#x, native %#x", i, c.R[4], nc.R[4])
		}
	}
}

// TestFaultHandlerUnderRIO registers an application fault handler, faults
// after a hot loop, and requires the handler (which prints the kind and the
// faulting EIP from its frame) to produce byte-identical output in every
// configuration — the handler frame is built from the translated context
// and the handler itself runs under the cache.
func TestFaultHandlerUnderRIO(t *testing.T) {
	img := imgOf(t, `
main:
    mov eax, 7
    mov ebx, handler
    int 0x80
    mov ecx, 200
spin:
    add edx, 1
    dec ecx
    jnz spin
    mov eax, 2222
    xor edx, edx
    xor ebx, ebx
divhere:
    div ebx
handler:
    mov eax, 3
    mov ebx, [esp]
    int 0x80
    mov eax, 2
    mov ebx, ':'
    int 0x80
    mov eax, 3
    mov ebx, [esp+8]
    int 0x80
    mov eax, 1
    mov ebx, 9
    int 0x80
`)
	native := runNative(t, img)
	want := "1:" + utoa(img.Symbol("divhere"))
	if got := native.OutputString(); got != want {
		t.Fatalf("native output = %q, want %q", got, want)
	}
	for i, opts := range faultConfigs() {
		m, _ := runUnder(t, img, opts, nil...)
		if got := m.OutputString(); got != want {
			t.Errorf("config %d: output = %q, want %q", i, got, want)
		}
		if m.Threads[0].ExitCode != native.Threads[0].ExitCode {
			t.Errorf("config %d: exit code %d, native %d",
				i, m.Threads[0].ExitCode, native.Threads[0].ExitCode)
		}
		if m.Threads[0].FaultRecord != nil {
			t.Errorf("config %d: handled fault left a record", i)
		}
	}
}

// TestFaultInSharedCacheFragmentOfAnotherThread faults inside a fragment
// one thread built and another executes: under SharedCache the threads share
// one region pair, so the faulting thread's translation must find fragments
// it never emitted itself. Main warms a divide routine up with 100 calls,
// then spawns a worker that registers a handler and divides by zero in the
// same routine; the handler prints the fault kind and releases main.
func TestFaultInSharedCacheFragmentOfAnotherThread(t *testing.T) {
	img := imgOf(t, `
main:
    mov esi, 100
warm:
    mov eax, 7
    mov ebx, 1
    call divide
    dec esi
    jnz warm
    mov eax, 5
    mov ebx, worker
    mov ecx, 0x200000
    int 0x80
wait:
    mov eax, [done]
    test eax, eax
    jz wait
`+exitSnippet+`
divide:
    xor edx, edx
    div ebx
    ret
worker:
    mov eax, 7
    mov ebx, handler
    int 0x80
    mov eax, 7
    xor ebx, ebx
    call divide
handler:
    mov eax, 3
    mov ebx, [esp]
    int 0x80
    mov dword [done], 1
    mov eax, 1
    mov ebx, 0
    int 0x80
.org 0x9000
done: .word 0
`)
	native := runNative(t, img)
	if got := native.OutputString(); got != "1" {
		t.Fatalf("native output = %q, want the divide fault kind 1", got)
	}
	for _, shared := range []bool{false, true} {
		opts := core.Default()
		opts.SharedCache = shared
		m, r := runUnder(t, img, opts)
		if msg := oracle.Mismatch(oracle.Capture(native), oracle.Capture(m)); msg != "" {
			t.Errorf("SharedCache=%v: diverged from native:\n%s", shared, msg)
		}
		if r.Stats.FaultsTranslated == 0 {
			t.Errorf("SharedCache=%v: the fault in cache code was never translated", shared)
		}
	}
}

// TestFaultSMCEvictionFIFO is the three-way interaction test: a bounded
// FIFO-evicting cache under pressure, self-modifying code invalidating
// fragments, and a handled fault at the end. Output and fault context must
// still match the native run, and the cache invariants must hold.
func TestFaultSMCEvictionFIFO(t *testing.T) {
	// Enough distinct functions to overflow a 4 KiB basic-block cache,
	// called in a loop hot enough to build traces; the loop body patches
	// an immediate in f0 each pass (stale-fragment rebuilds); finally a
	// handled divide fault reports its application EIP.
	var sb strings.Builder
	sb.WriteString(`
main:
    mov eax, 7
    mov ebx, handler
    int 0x80
    mov ecx, 120
loop:
`)
	const nf = 20
	for i := 0; i < nf; i++ {
		fmt.Fprintf(&sb, "    call f%d\n", i)
	}
	sb.WriteString(`
    mov byte [f0+2], 2
    dec ecx
    jnz loop
    mov eax, 3
    mov ebx, edx
    int 0x80
    mov eax, 4444
    xor edx, edx
    xor ebx, ebx
divhere:
    div ebx
handler:
    mov eax, 3
    mov ebx, [esp]
    int 0x80
    mov eax, 3
    mov ebx, [esp+8]
    int 0x80
    mov eax, 1
    mov ebx, 5
    int 0x80
`)
	for i := 0; i < nf; i++ {
		fmt.Fprintf(&sb, "f%d:\n    add edx, 1\n%s    ret\n",
			i, strings.Repeat("    add eax, 0x11111111\n", 10))
	}
	img := imgOf(t, sb.String())

	native := runNative(t, img)
	want := native.OutputString()
	if !strings.HasSuffix(want, "1"+utoa(img.Symbol("divhere"))) {
		t.Fatalf("native output %q does not end with the handled fault report", want)
	}

	opts := core.Default()
	opts.BBCacheSize = 4 << 10
	opts.TraceCacheSize = 4 << 10
	m, r := runUnder(t, img, opts, nil...)
	if got := m.OutputString(); got != want {
		t.Errorf("output = %q, native %q", got, want)
	}
	if r.Stats.Evictions == 0 {
		t.Error("no evictions despite 4 KiB cache")
	}
	if r.Stats.StaleFragments == 0 {
		t.Error("no stale fragments despite self-modifying loop")
	}
	if r.Stats.FaultsTranslated == 0 {
		t.Error("fault was never translated from cache context")
	}
	if err := r.ContextOf(m.Threads[0]).CheckCacheInvariants(); err != nil {
		t.Errorf("cache invariants after faulting run: %v", err)
	}
}

// ringCounts drains a runtime's event ring (Options.EventRing) and counts
// its events by type, failing the test if the ring overwrote any.
func ringCounts(t *testing.T, r *core.RIO) map[obs.EventType]int {
	t.Helper()
	n := map[obs.EventType]int{}
	for _, ev := range r.Tracer().Drain() {
		n[ev.Type]++
	}
	if d := r.Tracer().Dropped(); d != 0 {
		t.Errorf("event ring dropped %d events", d)
	}
	return n
}

// TestRecoveryOnInternalFailure injects an internal runtime failure at a
// mid-run dispatch and requires transactional recovery, not a detach: the
// rollback audit passes, the thread rides out a bounded native window, the
// run completes with native-identical output, and the thread stays attached.
func TestRecoveryOnInternalFailure(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 8
outer:
    mov eax, 3
    mov ebx, ecx
    int 0x80
    dec ecx
    jnz outer
`+exitSnippet)
	native := runNative(t, img)
	want := native.OutputString()

	opts := core.Default()
	opts.Chaos = dispatchFaults(chaos.Trigger{Nth: 6}) // fail partway through the printing loop
	opts.EventRing = 4096
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, opts, nil)
	if err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.OutputString(); got != want {
		t.Errorf("output after recovery = %q, native %q", got, want)
	}
	if r.Stats.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", r.Stats.Recoveries)
	}
	if r.Stats.NativeWindows == 0 {
		t.Error("recovery should run the failing tag in a native window")
	}
	if n := ringCounts(t, r)[obs.EvDetach]; r.Stats.Detaches != 0 || n != 0 {
		t.Errorf("Detaches = %d (ring %d), want 0: a clean rollback must not detach",
			r.Stats.Detaches, n)
	}
	if r.ContextOf(m.Threads[0]).Detached() {
		t.Error("context marked detached after a recoverable failure")
	}
	if err := r.ContextOf(m.Threads[0]).CheckCacheInvariants(); err != nil {
		t.Errorf("cache invariants after recovery: %v", err)
	}
	if m.Threads[0].ExitCode != native.Threads[0].ExitCode {
		t.Errorf("exit code %d, native %d", m.Threads[0].ExitCode, native.Threads[0].ExitCode)
	}
}

// TestPersistentFailureDegradesAndReattaches injects a failure at EVERY
// dispatch for a stretch long enough to exhaust the retry budget at each
// ladder level: the thread must degrade to interpret-only (native windows),
// keep producing native-identical output, and — once the injector goes
// quiet — cool down, re-attach to full service and rebuild fragments.
func TestPersistentFailureDegradesAndReattaches(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 40
outer:
    mov eax, 3
    mov ebx, ecx
    int 0x80
    mov edx, 900
inner:
    dec edx
    jnz inner
    dec ecx
    jnz outer
`+exitSnippet)
	native := runNative(t, img)
	want := native.OutputString()

	opts := core.Default()
	opts.Chaos = dispatchFaults(chaos.Trigger{Nth: 4, MaxFires: 15}) // a burst (hits 4–18), then quiet
	opts.EventRing = 4096
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, opts, nil)
	if err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.OutputString(); got != want {
		t.Errorf("output = %q, native %q", got, want)
	}
	if r.Stats.DegradeLevel == 0 {
		t.Error("persistent failures should walk the thread down the ladder")
	}
	if n := ringCounts(t, r)[obs.EvReattach]; r.Stats.Reattaches == 0 || uint64(n) != r.Stats.Reattaches {
		t.Errorf("Reattaches = %d (ring %d), want > 0 after the injector went quiet, one event each",
			r.Stats.Reattaches, n)
	}
	if r.Stats.Detaches != 0 {
		t.Errorf("Detaches = %d, want 0: the ladder replaces one-way detach", r.Stats.Detaches)
	}
	if h := r.ContextOf(m.Threads[0]).Health(); h != core.HealthFull {
		t.Errorf("final health = %v, want full after re-attach", h)
	}
	if err := r.ContextOf(m.Threads[0]).CheckCacheInvariants(); err != nil {
		t.Errorf("cache invariants after ladder round trip: %v", err)
	}
}

// TestUndecodableCodeDegradesToNativeFault runs a program that jumps into
// garbage bytes. The block builder cannot decode them (an internal failure),
// so the thread recovers and retries the tag in a native window; native
// execution then reaches the same bytes and raises the same #UD the native
// run reports — without the thread ever detaching.
func TestUndecodableCodeDegradesToNativeFault(t *testing.T) {
	img := imgOf(t, `
main:
    mov ebx, 42
    jmp bad
bad:
    .byte 0x0F
    .byte 0x0B
`)
	native := runNative(t, img)
	nrec := native.Threads[0].FaultRecord
	if nrec == nil || nrec.Kind != machine.FaultUD || nrec.EIP != img.Symbol("bad") {
		t.Fatalf("native record = %+v, want #UD at bad", nrec)
	}

	m, r := runUnder(t, img, core.Default(), nil...)
	rec := m.Threads[0].FaultRecord
	if rec == nil || rec.Kind != nrec.Kind || rec.EIP != nrec.EIP {
		t.Errorf("record = %+v, native %+v", rec, nrec)
	}
	if r.Stats.Recoveries == 0 {
		t.Error("undecodable block should recover, not crash")
	}
	if r.Stats.Detaches != 0 {
		t.Errorf("Detaches = %d, want 0: a native window reaches the #UD without detaching",
			r.Stats.Detaches)
	}
	if c := m.Threads[0].CPU; c.R[3] != 42 {
		t.Errorf("EBX = %#x, want 42 (context must be native at the fault)", c.R[3])
	}
}

// TestSignalQueueDrainUnderRIO queues several signals before the run starts
// and requires every one to be delivered through the dispatcher's safe
// point, in FIFO order, with none lost.
func TestSignalQueueDrainUnderRIO(t *testing.T) {
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
h1:
    inc dword [hits]
    ret
h2:
    mov eax, 2
    mov ebx, 'x'
    int 0x80
    inc dword [hits]
    ret
.org 0x8000
hits: .word 0
`)
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Default(), nil)
	m.QueueSignal(m.Threads[0], img.Symbol("h1"))
	m.QueueSignal(m.Threads[0], img.Symbol("h2"))
	m.QueueSignal(m.Threads[0], img.Symbol("h1"))
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.OutputString(); got != "x3" {
		t.Errorf("output = %q, want x3 (all three handlers ran)", got)
	}
	if m.Stats.SignalsDropped != 0 {
		t.Errorf("SignalsDropped = %d, want 0", m.Stats.SignalsDropped)
	}
}

// TestSignalsPendingAtExitAccounted halts the program from the first queued
// handler; the second signal can then never be delivered and must be
// counted, not silently lost.
func TestSignalsPendingAtExitAccounted(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 60000
spin:
    dec ecx
    jnz spin
`+exitSnippet+`
stopper:
    hlt
h2:
    inc dword [hits]
    ret
.org 0x8000
hits: .word 0
`)
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Default(), nil)
	m.QueueSignal(m.Threads[0], img.Symbol("stopper"))
	m.QueueSignal(m.Threads[0], img.Symbol("h2"))
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Threads[0].Halted {
		t.Fatal("thread did not halt")
	}
	if m.Stats.SignalsDropped != 1 {
		t.Errorf("SignalsDropped = %d, want 1 (the handler queued behind the stopper)", m.Stats.SignalsDropped)
	}
	if m.Mem.Read32(img.Symbol("hits")) != 0 {
		t.Error("second handler ran despite the halt")
	}
}
