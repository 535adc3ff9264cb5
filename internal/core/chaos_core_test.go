package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/machine"
	"repro/internal/oracle"
)

// These tests drive the chaos-injection framework against the core runtime:
// every named chaos site, fired mid-operation, must roll back to an
// invariant-clean state and leave the application's architectural outcome
// bit-identical to the native run (the oracle contract). They also prove the
// negative: a deliberately broken rollback path (core.MutateRollbackScrub) must
// be caught by the post-rollback invariant audit, not slip through.

// chaosWorkloadSrc builds a program that reaches every chaos site: many
// distinct functions called through a hot loop (block builds, emits, links,
// trace selection and unlinks, IBL inserts — and, under small caches and a
// small hashtable, evictions and IBL resizes), a registered fault handler
// with a terminal handled divide (fault translation), and a signal-counting
// routine for queued-signal delivery.
func chaosWorkloadSrc(nf, loops int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `
main:
    mov eax, 7
    mov ebx, handler
    int 0x80
    mov ecx, %d
loop:
`, loops)
	for i := 0; i < nf; i++ {
		fmt.Fprintf(&sb, "    call f%d\n", i)
	}
	sb.WriteString(`
    dec ecx
    jnz loop
    mov eax, 3
    mov ebx, edx
    int 0x80
    mov eax, 3
    mov ebx, [hits]
    int 0x80
    mov eax, 6666
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
    mov ebx, 6
    int 0x80
sig:
    inc dword [hits]
    ret
`)
	for i := 0; i < nf; i++ {
		fmt.Fprintf(&sb, "f%d:\n    add edx, 1\n%s    ret\n",
			i, strings.Repeat("    add eax, 0x11111111\n", 8))
	}
	sb.WriteString(".org 0x9000\nhits: .word 0\n")
	return sb.String()
}

// nativeOracle runs the image directly on the machine (queueing sigs first)
// and captures its architectural endpoint.
func nativeOracle(t *testing.T, img *image.Image, sigs []machine.Addr) oracle.State {
	t.Helper()
	m := machine.New(machine.PentiumIV())
	img.Boot(m)
	for _, s := range sigs {
		m.QueueSignal(m.Threads[0], s)
	}
	if err := m.Run(80_000_000); err != nil {
		t.Fatalf("native run: %v", err)
	}
	return oracle.Capture(m)
}

// runChaos runs the image under the runtime with the given injector wired in
// and captures the endpoint.
func runChaos(t *testing.T, img *image.Image, opts core.Options, inj *chaos.Injector,
	sigs []machine.Addr) (*machine.Machine, *core.RIO, oracle.State) {
	t.Helper()
	opts.Chaos = inj
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, opts, nil)
	for _, s := range sigs {
		m.QueueSignal(m.Threads[0], s)
	}
	if err := r.Run(80_000_000); err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	return m, r, oracle.Capture(m)
}

// TestChaosEverySiteRollsBackClean injects a failure at each chaos site in
// turn, under an unbounded configuration and under tightly bounded caches
// with a small IBL table (so eviction and resize sites are reachable), and
// requires: a bit-identical oracle state, a clean rollback audit (no
// detaches), invariants holding at the end, and — across the sweep — every
// site to have actually fired at least once.
func TestChaosEverySiteRollsBackClean(t *testing.T) {
	img := imgOf(t, chaosWorkloadSrc(20, 60))
	sigs := []machine.Addr{img.Symbol("sig"), img.Symbol("sig")}
	native := nativeOracle(t, img, sigs)

	small := core.Default()
	small.BBCacheSize = 2 << 10
	small.TraceCacheSize = 2 << 10
	small.IBLTableBits = 4
	configs := []struct {
		name string
		opts core.Options
	}{
		{"default", core.Default()},
		{"bounded-smallibl", small},
	}

	var fired [chaos.NumSites]uint64
	for _, cfg := range configs {
		for _, site := range chaos.AllSites() {
			name := fmt.Sprintf("%s/%s", cfg.name, site)
			inj := chaos.NewInjector(1000+int64(site), []chaos.Trigger{
				{Site: site, Nth: 1, MaxFires: 2},
			})
			m, r, got := runChaos(t, img, cfg.opts, inj, sigs)
			if msg := oracle.Mismatch(native, got); msg != "" {
				t.Errorf("%s: %s", name, msg)
			}
			if r.Stats.RecoveryAuditFailures != 0 || r.Stats.Detaches != 0 {
				t.Errorf("%s: audit failures=%d detaches=%d, want 0 (rollback must be clean)",
					name, r.Stats.RecoveryAuditFailures, r.Stats.Detaches)
			}
			fires := inj.Fires()[site]
			if fires > 0 && r.Stats.Recoveries == 0 {
				t.Errorf("%s: %d injections fired but no recovery was counted", name, fires)
			}
			if err := r.ContextOf(m.Threads[0]).CheckCacheInvariants(); err != nil {
				t.Errorf("%s: invariants after run: %v", name, err)
			}
			fired[site] += fires
		}
	}
	for _, site := range chaos.AllSites() {
		if fired[site] == 0 {
			t.Errorf("site %s never fired anywhere in the sweep — workload or gating lost coverage", site)
		}
	}
}

// TestChaosStormLadderRoundTrip runs the aggressive Storm schedule: repeated
// construction failures must walk the thread down the degradation ladder,
// and once the triggers exhaust the thread must cool down and re-attach —
// with the final output still bit-identical to native.
func TestChaosStormLadderRoundTrip(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("main:\n    mov ecx, 500\nloop:\n")
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&sb, "    call f%d\n", i)
	}
	sb.WriteString(`
    dec ecx
    jnz loop
    mov eax, 3
    mov ebx, edx
    int 0x80
` + exitSnippet)
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&sb, "f%d:\n    add edx, 1\n    mov eax, 20\nspin%d:\n    dec eax\n    jnz spin%d\n    ret\n", i, i, i)
	}
	img := imgOf(t, sb.String())
	native := nativeOracle(t, img, nil)

	for seed := int64(1); seed <= 3; seed++ {
		inj := chaos.NewInjector(seed, chaos.Storm(seed))
		m, r, got := runChaos(t, img, core.Default(), inj, nil)
		name := fmt.Sprintf("storm seed %d", seed)
		if msg := oracle.Mismatch(native, got); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
		if !inj.Exhausted() {
			t.Errorf("%s: schedule not exhausted (fires %v) — workload too short to ride out the storm",
				name, inj.FiresByName())
		}
		if r.Stats.DegradeLevel < 2 {
			t.Errorf("%s: DegradeLevel = %d, want >= 2 under a storm of %d failures",
				name, r.Stats.DegradeLevel, inj.TotalFires())
		}
		if r.Stats.Reattaches == 0 {
			t.Errorf("%s: Reattaches = 0, want > 0 after the triggers exhausted", name)
		}
		if r.Stats.Detaches != 0 || r.Stats.RecoveryAuditFailures != 0 {
			t.Errorf("%s: detaches=%d audit failures=%d, want 0",
				name, r.Stats.Detaches, r.Stats.RecoveryAuditFailures)
		}
		if r.Stats.BlocksBuilt == 0 {
			t.Errorf("%s: no fragments rebuilt after re-attach", name)
		}
		if err := r.ContextOf(m.Threads[0]).CheckCacheInvariants(); err != nil {
			t.Errorf("%s: invariants: %v", name, err)
		}
	}
}

// TestBrokenRollbackCaughtByAudit is the mutation-style gate on the audit
// itself: with core.MutateRollbackScrub the emit rollback deliberately forgets
// to scrub the IBL insert, and the post-rollback CheckCacheInvariants pass
// MUST catch the stale slot and detach. The control run — the same injection
// with the rollback intact — must recover cleanly. Both runs must still
// produce native-identical output.
func TestBrokenRollbackCaughtByAudit(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 20
loop:
    call fn
    dec ecx
    jnz loop
    mov eax, 3
    mov ebx, edx
    int 0x80
`+exitSnippet+`
fn:
    add edx, 1
    ret
`)
	native := nativeOracle(t, img, nil)
	trig := []chaos.Trigger{{Site: chaos.SiteIBLInsert, Nth: 1, MaxFires: 1}}

	// Control: intact rollback recovers without detaching.
	opts := core.Default()
	m, r, got := runChaos(t, img, opts, chaos.NewInjector(7, trig), nil)
	if msg := oracle.Mismatch(native, got); msg != "" {
		t.Errorf("control: %s", msg)
	}
	if r.Stats.Recoveries == 0 {
		t.Error("control: injection did not produce a recovery")
	}
	if r.Stats.RecoveryAuditFailures != 0 || r.Stats.Detaches != 0 {
		t.Errorf("control: audit failures=%d detaches=%d, want 0",
			r.Stats.RecoveryAuditFailures, r.Stats.Detaches)
	}
	if err := r.ContextOf(m.Threads[0]).CheckCacheInvariants(); err != nil {
		t.Errorf("control: invariants: %v", err)
	}

	// Mutant: the same injection with the IBL scrub broken must be caught by
	// the audit — if this assertion ever passes with zero audit failures, the
	// audit has lost its teeth.
	mopts := core.Default()
	mopts.Mutation = core.MutateRollbackScrub
	_, mr, mgot := runChaos(t, img, mopts, chaos.NewInjector(7, trig), nil)
	if mr.Stats.RecoveryAuditFailures == 0 {
		t.Error("mutant: broken rollback slipped past the invariant audit")
	}
	if mr.Stats.Detaches == 0 {
		t.Error("mutant: failed audit must detach the thread")
	}
	if msg := oracle.Mismatch(native, mgot); msg != "" {
		t.Errorf("mutant: even a detach must stay transparent: %s", msg)
	}
}

// TestSignalsRequeuedAtDetachDelivered queues signals, then forces a detach
// at the very first fragment registration (broken rollback + an IBL-insert
// injection) while one signal is still pending: the detach path must hand
// the pending handler back to the machine's native delivery, so every
// handler still runs and none is dropped.
func TestSignalsRequeuedAtDetachDelivered(t *testing.T) {
	img := imgOf(t, `
main:
    mov ecx, 2000
spin:
    dec ecx
    jnz spin
    mov eax, 3
    mov ebx, [hits]
    int 0x80
`+exitSnippet+`
sig:
    inc dword [hits]
    ret
.org 0x9000
hits: .word 0
`)
	sigs := []machine.Addr{img.Symbol("sig"), img.Symbol("sig")}
	native := nativeOracle(t, img, sigs)

	opts := core.Default()
	opts.Mutation = core.MutateRollbackScrub
	m, r, got := runChaos(t, img, opts,
		chaos.NewInjector(3, []chaos.Trigger{{Site: chaos.SiteIBLInsert, Nth: 1, MaxFires: 1}}), sigs)
	if r.Stats.Detaches != 1 {
		t.Fatalf("Detaches = %d, want 1 (forced by the broken rollback)", r.Stats.Detaches)
	}
	if msg := oracle.Mismatch(native, got); msg != "" {
		t.Errorf("detached run diverged: %s", msg)
	}
	if m.Stats.SignalsDropped != 0 {
		t.Errorf("SignalsDropped = %d, want 0: detach must requeue pending signals natively",
			m.Stats.SignalsDropped)
	}
	if hits := m.Mem.Read32(img.Symbol("hits")); hits != 2 {
		t.Errorf("hits = %d, want 2 (both handlers delivered)", hits)
	}
}

// TestDetachDuringFaultWorkload interleaves a forced detach with a faulting,
// signal-receiving workload: the thread detaches at its first registration,
// the still-pending signal is delivered natively, and the later divide fault
// — now raised in native execution — reaches the registered handler with the
// same application context the native run reports.
func TestDetachDuringFaultWorkload(t *testing.T) {
	img := imgOf(t, `
main:
    mov eax, 7
    mov ebx, handler
    int 0x80
    mov ecx, 300
spin:
    add edx, 1
    dec ecx
    jnz spin
    mov eax, 3
    mov ebx, [hits]
    int 0x80
    mov eax, 8888
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
    mov ebx, 6
    int 0x80
sig:
    inc dword [hits]
    ret
.org 0x9000
hits: .word 0
`)
	sigs := []machine.Addr{img.Symbol("sig")}
	native := nativeOracle(t, img, sigs)

	opts := core.Default()
	opts.Mutation = core.MutateRollbackScrub
	m, r, got := runChaos(t, img, opts,
		chaos.NewInjector(9, []chaos.Trigger{{Site: chaos.SiteIBLInsert, Nth: 1, MaxFires: 1}}), sigs)
	if r.Stats.Detaches != 1 {
		t.Fatalf("Detaches = %d, want 1", r.Stats.Detaches)
	}
	if msg := oracle.Mismatch(native, got); msg != "" {
		t.Errorf("detach + native fault diverged: %s", msg)
	}
	if m.Stats.SignalsDropped != 0 {
		t.Errorf("SignalsDropped = %d, want 0", m.Stats.SignalsDropped)
	}
}

// dispatchFaults arms an injector that fails dispatcher entries: each
// trigger's Nth/MaxFires pick the failing dispatch hits.
func dispatchFaults(triggers ...chaos.Trigger) *chaos.Injector {
	for i := range triggers {
		triggers[i].Site = chaos.SiteDispatch
	}
	return chaos.NewInjector(0, triggers)
}
