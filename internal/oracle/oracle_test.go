package oracle_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// loopSrc calls a routine in a loop (so the stack is used and the runtime
// builds traces and IBL entries), prints twice and exits.
const loopSrc = `
main:
    mov ecx, 300
loop:
    call f
    dec ecx
    jnz loop
    mov eax, 3
    mov ebx, edx
    int 0x80
    mov eax, 3
    mov ebx, 7
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
f:  add edx, 3
    ret
`

func loopCase(t *testing.T) oracle.Case {
	t.Helper()
	img, err := image.Assemble("loop", loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	return oracle.Case{Name: "loop", Image: img}
}

// runNative boots and runs the case on a bare machine.
func runNative(t *testing.T, c oracle.Case) *machine.Machine {
	t.Helper()
	m := machine.New(machine.PentiumIV())
	c.Image.Boot(m)
	if err := m.Run(oracle.RunLimit); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCaptureCanonicalizes: EIP is not part of the endpoint and the dead
// band below the final ESP is zeroed before digesting, while the live stack
// and memory below the band stay compared.
func TestCaptureCanonicalizes(t *testing.T) {
	c := loopCase(t)
	want := oracle.Capture(runNative(t, c))

	m := runNative(t, c)
	esp := m.Threads[0].CPU.R[4]
	m.Threads[0].CPU.EIP += 0x100
	m.Mem.WriteBytes(esp-64, []byte{0xde, 0xad, 0xbe, 0xef})
	if got := oracle.Capture(m); !oracle.Equal(want, got) {
		t.Fatalf("EIP or dead-band garbage changed the endpoint: %s", oracle.Mismatch(want, got))
	}
	if v := m.Mem.Read32(esp - 64); v != 0 {
		t.Errorf("dead band not zeroed: %#x", v)
	}

	for _, addr := range []uint32{esp, esp - oracle.DeadStackBand - 4} {
		m := runNative(t, c)
		m.Mem.WriteBytes(addr, []byte{0xde, 0xad, 0xbe, 0xef})
		if got := oracle.Capture(m); !strings.Contains(oracle.Mismatch(want, got), "digest") {
			t.Errorf("write at %#x (esp %#x): mismatch %q, want a digest divergence", addr, esp, oracle.Mismatch(want, got))
		}
	}
}

// TestMismatchNamesFirstChannel: the diagnostic names the first divergent
// channel in the order faults, output, syscalls, threads, digest.
func TestMismatchNamesFirstChannel(t *testing.T) {
	base := oracle.State{
		Threads:  []oracle.ThreadState{{Regs: [8]uint32{1}}},
		Output:   "out",
		Digest:   42,
		Syscalls: []machine.SyscallRecord{{Thread: 0}},
	}
	if msg := oracle.Mismatch(base, base); msg != "" || !oracle.Equal(base, base) {
		t.Fatalf("equal states: %q", msg)
	}
	clone := func(f func(*oracle.State)) oracle.State {
		s := base
		s.Threads = append([]oracle.ThreadState(nil), base.Threads...)
		s.Syscalls = append([]machine.SyscallRecord(nil), base.Syscalls...)
		f(&s)
		return s
	}
	everything := func(s *oracle.State) {
		s.Digest++
		s.Threads[0].Eflags = 1
		s.Syscalls = append(s.Syscalls, machine.SyscallRecord{Thread: 1})
		s.Output = "other"
		s.Faults = []oracle.FaultEvent{{Kind: machine.FaultDivide}}
	}
	cases := []struct {
		name string
		mod  func(*oracle.State)
		want string
	}{
		{"all channels", everything, "fault trace"},
		{"output first", func(s *oracle.State) { everything(s); s.Faults = nil }, "output"},
		{"syscalls", func(s *oracle.State) { s.Syscalls = nil; s.Digest++ }, "syscall trace"},
		{"threads", func(s *oracle.State) { s.Threads[0].Exit = 3; s.Digest++ }, "thread state"},
		{"digest", func(s *oracle.State) { s.Digest++ }, "digest"},
	}
	for _, tc := range cases {
		got := clone(tc.mod)
		if oracle.Equal(base, got) {
			t.Errorf("%s: Equal reports identical states", tc.name)
		}
		if msg := oracle.Mismatch(base, got); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: Mismatch = %q, want it to name %q", tc.name, msg, tc.want)
		}
	}
}

// TestPlanFaultsDeterministic: the same trace and seed always give the same
// 1–3 plans.
func TestPlanFaultsDeterministic(t *testing.T) {
	trace := runNative(t, loopCase(t)).SyscallTrace
	for _, seed := range []int64{1, 2, 3} {
		a, b := oracle.PlanFaults(trace, seed), oracle.PlanFaults(trace, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %+v != %+v", seed, a, b)
		}
		if len(a) == 0 || len(a) > 3 {
			t.Fatalf("seed %d: %d plans, want 1..3", seed, len(a))
		}
	}
}

// TestDiffDeterministicAcrossWorkers: a chaos-and-fault-perturbed matrix
// gives identical outcomes for any worker count — injectors are fresh per
// run and all randomness is seeded.
func TestDiffDeterministicAcrossWorkers(t *testing.T) {
	crafty := workload.ByName("crafty")
	cases := []oracle.Case{loopCase(t), {Name: crafty.Name, Image: crafty.Image()}}
	configs := []oracle.Config{
		{Name: "default", Opts: core.Default},
		{Name: "4k", Opts: func() core.Options {
			o := core.Default()
			o.BBCacheSize, o.TraceCacheSize = 4<<10, 4<<10
			return o
		}},
	}
	perts := []oracle.Perturbation{
		{Name: "none"},
		{Name: "chaos-11", Seed: 11, Faults: true, Triggers: chaos.Schedule(11, chaos.AllSites())},
		{Name: "storm-11", Seed: 11, Triggers: chaos.Storm(11)},
	}
	one, err := oracle.Diff(1, cases, configs, perts)
	if err != nil {
		t.Fatal(err)
	}
	four, err := oracle.Diff(4, cases, configs, perts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("outcomes differ between 1 and 4 workers:\n%+v\n%+v", one, four)
	}
	if len(one) != len(cases)*len(perts)*len(configs) {
		t.Fatalf("%d outcomes", len(one))
	}
	var fires uint64
	for i, o := range one {
		if f := o.Failure(); f != "" {
			t.Errorf("%s/%s/%s: %s", o.Case, o.Perturbation, o.Config, f)
		}
		if want := cases[i/(len(perts)*len(configs))].Name; o.Case != want {
			t.Errorf("outcome %d is %s, want case-major order (%s)", i, o.Case, want)
		}
		fires += o.TotalFires()
	}
	if fires == 0 {
		t.Error("the chaos perturbations never fired")
	}
}

// TestDiffPanickingCell: a cell that panics becomes an error outcome while
// every other cell still runs and matches.
func TestDiffPanickingCell(t *testing.T) {
	configs := []oracle.Config{
		{Name: "default", Opts: core.Default},
		{Name: "broken", Opts: core.Default, Clients: func() []core.Client { panic("client constructor failed") }},
		{Name: "emulate", Opts: func() core.Options { return core.TableOneLadder()[0] }},
	}
	outs, err := oracle.Diff(2, []oracle.Case{loopCase(t)}, configs, nil)
	if err == nil || !strings.Contains(err.Error(), "client constructor failed") {
		t.Fatalf("err = %v, want the panic reported", err)
	}
	if len(outs) != 3 {
		t.Fatalf("%d outcomes, want 3", len(outs))
	}
	for _, o := range outs {
		broken := o.Config == "broken"
		if (o.Failure() != "") != broken || (o.Err != "") != broken {
			t.Errorf("%s: failure %q", o.Config, o.Failure())
		}
	}
}
