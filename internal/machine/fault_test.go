package machine_test

import (
	"testing"

	"repro/internal/image"
	"repro/internal/machine"
)

// boot assembles src and returns a booted machine.
func boot(t *testing.T, src string) (*machine.Machine, *image.Image) {
	t.Helper()
	img, err := image.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.PentiumIV())
	img.Boot(m)
	return m, img
}

func TestDivInstruction(t *testing.T) {
	m, _ := boot(t, `
main:
    mov edx, 0
    mov eax, 100
    mov ecx, 7
    div ecx
    mov ebx, eax
    mov eax, 3
    int 0x80
    mov eax, 2
    mov ebx, ':'
    int 0x80
    mov ebx, edx
    mov eax, 3
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
`)
	if err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	if got := m.OutputString(); got != "14:2" {
		t.Errorf("output = %q, want 14:2 (100/7)", got)
	}
}

func TestDivideByZeroFault(t *testing.T) {
	m, img := boot(t, `
main:
    mov ebx, 42
    mov eax, 0
    mov edx, 0
    mov ecx, 0
divhere:
    div ecx
    mov eax, 1
    int 0x80
`)
	if err := m.Run(10000); err != nil {
		t.Fatalf("divide fault must not become a run error: %v", err)
	}
	th := m.Threads[0]
	if !th.Halted || th.FaultRecord == nil {
		t.Fatalf("halted=%v record=%v, want #DE halt", th.Halted, th.FaultRecord)
	}
	f := th.FaultRecord
	if f.Kind != machine.FaultDivide {
		t.Errorf("kind = %v, want #DE", f.Kind)
	}
	if f.EIP != img.Symbol("divhere") {
		t.Errorf("fault EIP = %#x, want divhere %#x", f.EIP, img.Symbol("divhere"))
	}
	// The fault is precise: ebx was untouched by the halt.
	if th.CPU.R[3] != 42 {
		t.Errorf("ebx = %d, want 42 (precise boundary)", th.CPU.R[3])
	}
	if len(m.FaultTrace) != 1 || m.FaultTrace[0].Kind != machine.FaultDivide {
		t.Errorf("fault trace = %+v, want one #DE", m.FaultTrace)
	}
}

func TestDivideOverflowFault(t *testing.T) {
	// edx:eax = 2^32, divisor 1: quotient does not fit 32 bits.
	m, _ := boot(t, `
main:
    mov edx, 1
    mov eax, 0
    mov ecx, 1
    div ecx
    mov eax, 1
    int 0x80
`)
	if err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	th := m.Threads[0]
	if th.FaultRecord == nil || th.FaultRecord.Kind != machine.FaultDivide {
		t.Errorf("record = %+v, want #DE on quotient overflow", th.FaultRecord)
	}
	// eax/edx must still hold the pre-instruction values.
	if th.CPU.R[0] != 0 || th.CPU.R[2] != 1 {
		t.Errorf("eax=%d edx=%d, want 0,1 (no partial result)", th.CPU.R[0], th.CPU.R[2])
	}
}

func TestUDKillsOnlyFaultingThread(t *testing.T) {
	// The spawned thread runs into bytes outside the subset; the main
	// thread must keep running and produce its output.
	m, _ := boot(t, `
main:
    mov eax, 5
    mov ebx, bad
    mov ecx, 0x7FE00000
    int 0x80
    mov ecx, 2000
spin:
    dec ecx
    jnz spin
    mov eax, 2
    mov ebx, 'k'
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
bad:
    .byte 0x0F
    .byte 0x0B
`)
	if err := m.Run(100000); err != nil {
		t.Fatalf("#UD on one thread must not stop the run: %v", err)
	}
	if got := m.OutputString(); got != "k" {
		t.Errorf("output = %q, want k", got)
	}
	if len(m.Threads) != 2 {
		t.Fatalf("threads = %d", len(m.Threads))
	}
	bad := m.Threads[1]
	if !bad.Halted || bad.FaultRecord == nil || bad.FaultRecord.Kind != machine.FaultUD {
		t.Errorf("spawned thread: halted=%v record=%+v, want #UD", bad.Halted, bad.FaultRecord)
	}
	if m.Threads[0].FaultRecord != nil {
		t.Errorf("main thread has a fault record: %+v", m.Threads[0].FaultRecord)
	}
}

func TestPageFaultPreciseBoundary(t *testing.T) {
	m, img := boot(t, `
main:
    mov eax, 1111
    mov ebx, 2222
storehere:
    mov [0x00300004], eax
    mov eax, 1
    mov ebx, 0
    int 0x80
`)
	m.Mem.Protect(0x00300000, 0x00310000, machine.ProtNoWrite)
	if err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	th := m.Threads[0]
	if th.FaultRecord == nil || th.FaultRecord.Kind != machine.FaultPage {
		t.Fatalf("record = %+v, want #PF", th.FaultRecord)
	}
	f := th.FaultRecord
	if f.Addr != 0x00300004 || !f.Write {
		t.Errorf("fault addr=%#x write=%v, want 0x300004 write", f.Addr, f.Write)
	}
	if f.EIP != img.Symbol("storehere") {
		t.Errorf("fault EIP = %#x, want %#x", f.EIP, img.Symbol("storehere"))
	}
	if th.CPU.R[0] != 1111 || th.CPU.R[3] != 2222 {
		t.Errorf("eax=%d ebx=%d, want 1111,2222", th.CPU.R[0], th.CPU.R[3])
	}
	if m.Mem.Read32(0x00300004) != 0 {
		t.Error("protected page was written")
	}
}

// TestFaultCrossPageStoreCommitsNothing: a 32-bit store whose last two
// bytes land on a write-protected page faults before storing any byte, so
// the two bytes on the writable page keep their old value too.
func TestFaultCrossPageStoreCommitsNothing(t *testing.T) {
	m, img := boot(t, `
main:
    mov eax, 7
    mov ebx, handler
    int 0x80
    mov eax, 0xDEADBEEF
storehere:
    mov [0x1FFFE], eax
    hlt
handler:
    mov eax, 1
    mov ebx, 0
    int 0x80
`)
	old := []byte{0x11, 0x22, 0x33, 0x44}
	m.Mem.WriteBytes(0x1FFFE, old)
	m.Mem.Protect(0x20000, 0x30000, machine.ProtNoWrite)
	if err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	if len(m.FaultTrace) != 1 {
		t.Fatalf("fault trace = %+v, want one #PF", m.FaultTrace)
	}
	f := m.FaultTrace[0]
	if f.Kind != machine.FaultPage || f.Addr != 0x20000 || !f.Write || f.EIP != img.Symbol("storehere") {
		t.Errorf("fault = %+v, want #PF write of 0x20000 at %#x", f, img.Symbol("storehere"))
	}
	if got := m.Mem.ReadBytes(0x1FFFE, 4); string(got) != string(old) {
		t.Errorf("bytes at 0x1FFFE = % x, want % x unchanged", got, old)
	}
}

func TestPageFaultReadProtect(t *testing.T) {
	m, _ := boot(t, `
main:
    mov eax, [0x00300000]
    mov eax, 1
    int 0x80
`)
	m.Mem.Protect(0x00300000, 0x00310000, machine.ProtNoRead)
	if err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	f := m.Threads[0].FaultRecord
	if f == nil || f.Kind != machine.FaultPage || f.Write || f.Addr != 0x00300000 {
		t.Errorf("record = %+v, want #PF read of 0x300000", f)
	}
	// Unprotecting restores access.
	m.Mem.Protect(0x00300000, 0x00310000, 0)
	if got := m.Mem.Read32(0x00300000); got != 0 {
		t.Errorf("read after unprotect = %d", got)
	}
}

func TestFaultHandlerFrame(t *testing.T) {
	// The handler receives [esp]=kind, [esp+4]=addr, [esp+8]=EIP and
	// prints all three.
	m, img := boot(t, `
main:
    mov eax, 7
    mov ebx, handler
    int 0x80
    mov edx, 0
    mov eax, 5
    mov ecx, 0
divhere:
    div ecx
    hlt
handler:
    mov eax, 3
    mov ebx, [esp]
    int 0x80
    mov eax, 2
    mov ebx, ':'
    int 0x80
    mov eax, 3
    mov ebx, [esp+4]
    int 0x80
    mov eax, 2
    mov ebx, ':'
    int 0x80
    mov eax, 3
    mov ebx, [esp+8]
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
`)
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	want := "1:0:" + uitoa(img.Symbol("divhere"))
	if got := m.OutputString(); got != want {
		t.Errorf("output = %q, want %q (kind:addr:eip)", got, want)
	}
	if m.Threads[0].FaultRecord != nil {
		t.Errorf("handled fault left a record: %+v", m.Threads[0].FaultRecord)
	}
	if len(m.FaultTrace) != 1 {
		t.Errorf("fault trace length = %d, want 1", len(m.FaultTrace))
	}
}

func uitoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var b [10]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestInjectFaultAtSyscall(t *testing.T) {
	m, _ := boot(t, `
main:
    mov eax, 2
    mov ebx, 'a'
    int 0x80
    mov eax, 2
    mov ebx, 'b'
    int 0x80
    mov eax, 2
    mov ebx, 'c'
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
`)
	m.InjectFaultAtSyscall(0, 1, machine.FaultSoftware, 0)
	if err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	// Syscall 1 ('b') was displaced by the fault; with no handler the
	// thread halts, so 'c' and the exit never run either.
	if got := m.OutputString(); got != "a" {
		t.Errorf("output = %q, want a", got)
	}
	if len(m.SyscallTrace) != 1 {
		t.Errorf("syscall trace length = %d, want 1 (displaced call not traced)", len(m.SyscallTrace))
	}
	f := m.Threads[0].FaultRecord
	if f == nil || f.Kind != machine.FaultSoftware {
		t.Errorf("record = %+v, want injected software fault", f)
	}
}

func TestSignalQueueFIFO(t *testing.T) {
	// Two signals queued back-to-back must both be delivered, in order.
	m, img := boot(t, `
main:
    mov ecx, 100
spin:
    dec ecx
    jnz spin
    mov eax, 4
    mov ebx, log
    mov ecx, 2
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
h1:
    mov byte [log], 'A'
    ret
h2:
    mov byte [log+1], 'B'
    ret
.org 0x8000
log: .word 0
`)
	th := m.Threads[0]
	m.QueueSignal(th, img.Symbol("h1"))
	m.QueueSignal(th, img.Symbol("h2"))
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if got := m.OutputString(); got != "AB" {
		t.Errorf("output = %q, want AB (both signals delivered in order)", got)
	}
	if m.Stats.SignalsTaken != 2 {
		t.Errorf("signals taken = %d, want 2", m.Stats.SignalsTaken)
	}
	if m.Stats.SignalsDropped != 0 {
		t.Errorf("signals dropped = %d, want 0", m.Stats.SignalsDropped)
	}
}

func TestSignalsDroppedAccounting(t *testing.T) {
	m, _ := boot(t, `
main:
    mov eax, 1
    mov ebx, 0
    int 0x80
`)
	th := m.Threads[0]
	if err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	if !th.Halted {
		t.Fatal("thread did not exit")
	}
	// Queued on a halted thread: accounted immediately.
	m.QueueSignal(th, 0x1234)
	if m.Stats.SignalsDropped != 1 {
		t.Errorf("signals dropped = %d, want 1", m.Stats.SignalsDropped)
	}
}

func TestSignalsDroppedAtExitHalt(t *testing.T) {
	// Two signals queued; the first handler halts the thread in its first
	// instruction (before the second can be delivered at the next step),
	// so the second must be accounted as dropped, not silently lost.
	m, img := boot(t, `
main:
    mov ecx, 1000
spin:
    dec ecx
    jnz spin
    hlt
stopper:
    hlt
other:
    ret
`)
	th := m.Threads[0]
	m.QueueSignal(th, img.Symbol("stopper"))
	m.QueueSignal(th, img.Symbol("other"))
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if !th.Halted {
		t.Fatal("thread still live")
	}
	if m.Stats.SignalsTaken != 1 {
		t.Errorf("signals taken = %d, want 1", m.Stats.SignalsTaken)
	}
	if m.Stats.SignalsDropped != 1 {
		t.Errorf("signals dropped = %d, want 1 (second queued signal)", m.Stats.SignalsDropped)
	}
}
