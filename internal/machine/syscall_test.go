package machine_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/image"
	"repro/internal/machine"
)

func runErr(t *testing.T, src string) error {
	t.Helper()
	img, err := image.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.PentiumIV())
	img.Boot(m)
	return m.Run(100000)
}

func TestSyscallErrors(t *testing.T) {
	// Unknown system call number.
	err := runErr(t, `
main:
    mov eax, 999
    int 0x80
`)
	if err == nil || !strings.Contains(err.Error(), "unknown system call") {
		t.Errorf("unknown syscall: %v", err)
	}

	// A non-syscall interrupt vector is an architectural software fault on
	// the issuing thread, not a machine failure.
	img := image.MustAssemble("t", `
main:
    int 0x21
`)
	m := machine.New(machine.PentiumIV())
	img.Boot(m)
	if err := m.Run(100000); err != nil {
		t.Errorf("bad vector should fault the thread, not the run: %v", err)
	}
	th := m.Threads[0]
	if !th.Halted || th.FaultRecord == nil || th.FaultRecord.Kind != machine.FaultSoftware {
		t.Errorf("bad vector: halted=%v record=%+v, want software fault", th.Halted, th.FaultRecord)
	}

	// Oversized SysWriteMem.
	err = runErr(t, `
main:
    mov eax, 4
    mov ebx, 0
    mov ecx, 0x10000000
    int 0x80
`)
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Errorf("oversized write: %v", err)
	}
}

func TestSysYieldIsHarmless(t *testing.T) {
	img := image.MustAssemble("t", `
main:
    mov eax, 6
    int 0x80
    mov eax, 1
    mov ebx, 5
    int 0x80
`)
	m := machine.New(machine.PentiumIV())
	img.Boot(m)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.Threads[0].ExitCode != 5 {
		t.Errorf("exit = %d", m.Threads[0].ExitCode)
	}
}

func TestRunInstructionLimit(t *testing.T) {
	img := image.MustAssemble("t", `
main:
    jmp main
`)
	m := machine.New(machine.PentiumIV())
	img.Boot(m)
	err := m.Run(1000)
	if err != machine.ErrLimit {
		t.Errorf("err = %v, want ErrLimit", err)
	}
	if m.Stats.Instructions > 1100 {
		t.Errorf("ran %d instructions past the limit", m.Stats.Instructions)
	}
}

func TestRASDeepRecursionOverflow(t *testing.T) {
	// Recursion deeper than the 16-entry return-address stack: the
	// predictor mispredicts the overflowed frames but execution is
	// correct.
	img := image.MustAssemble("t", `
main:
    mov eax, 40         ; depth beyond the RAS
    call down
    mov ebx, eax
    mov eax, 3
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
down:
    test eax, eax
    jz bottom
    dec eax
    call down
    inc eax
bottom:
    ret
`)
	m := machine.New(machine.PentiumIV())
	img.Boot(m)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.OutputString(); got != "40" {
		t.Errorf("output = %q, want 40", got)
	}
	if m.Stats.RetMispred == 0 {
		t.Error("deep recursion should overflow the RAS and mispredict")
	}
	if m.Stats.RetMispred > 30 {
		t.Errorf("mispredicts = %d; shallow frames should still predict", m.Stats.RetMispred)
	}
}

func TestStepHaltedThreadIsNoop(t *testing.T) {
	m := machine.New(machine.PentiumIV())
	th := m.Threads[0]
	th.Halted = true
	if err := m.Step(th); err != nil {
		t.Errorf("step on halted thread: %v", err)
	}
}

func TestUndecodableApplicationCode(t *testing.T) {
	m := machine.New(machine.PentiumIV())
	m.Mem.WriteBytes(0x1000, []byte{0x0F, 0x0B}) // not in the subset
	m.Threads[0].CPU.EIP = 0x1000
	if err := m.Step(m.Threads[0]); err != nil {
		t.Errorf("undecodable bytes should raise #UD, not a run error: %v", err)
	}
	th := m.Threads[0]
	if !th.Halted || th.FaultRecord == nil || th.FaultRecord.Kind != machine.FaultUD {
		t.Fatalf("halted=%v record=%+v, want #UD record", th.Halted, th.FaultRecord)
	}
	if th.FaultRecord.EIP != 0x1000 {
		t.Errorf("fault EIP = %#x, want 0x1000", th.FaultRecord.EIP)
	}
}

// TestSysWriteMemProtectedBuffer: a SysWriteMem whose buffer runs onto a
// no-read page raises #PF at the int, with Output untouched by it. The call
// is counted and traced before its buffer faults. The second write runs in
// the block runner (the first decoded its instructions), and a step-only
// machine must agree.
func TestSysWriteMemProtectedBuffer(t *testing.T) {
	img := image.MustAssemble("t", `
main:
    mov eax, 7
    mov ebx, handler
    int 0x80
    mov ebx, msg
write:
    mov eax, 4
    mov ecx, 2
wr:
    int 0x80
    mov ebx, 0x3FFFFF   ; one readable byte, then the protected page
    jmp write
handler:
    mov eax, 1
    mov ebx, 0
    int 0x80
msg:
    .byte 'h', 'i'
`)
	for _, stepOnly := range []bool{false, true} {
		m := machine.New(machine.PentiumIV())
		if stepOnly {
			machine.SetStepOnly(m)
		}
		img.Boot(m)
		m.Mem.Protect(0x400000, 0x410000, machine.ProtNoRead)
		if err := m.Run(100000); err != nil {
			t.Fatal(err)
		}
		if got := m.OutputString(); got != "hi" {
			t.Errorf("stepOnly=%v: output %q, want %q", stepOnly, got, "hi")
		}
		want := machine.Fault{Kind: machine.FaultPage, EIP: img.Symbol("wr"), Addr: 0x400000}
		if len(m.FaultTrace) != 1 || m.FaultTrace[0] != want {
			t.Errorf("stepOnly=%v: fault trace %+v, want [%+v]", stepOnly, m.FaultTrace, want)
		}
		wantCalls := []machine.SyscallRecord{
			{Num: machine.SysSetFaultHandler, Arg1: img.Symbol("handler")},
			{Num: machine.SysWriteMem, Arg1: img.Symbol("msg"), Arg2: 2},
			{Num: machine.SysWriteMem, Arg1: 0x3FFFFF, Arg2: 2},
			{Num: machine.SysExit, Arg2: 2}, // ecx still holds the length
		}
		if !reflect.DeepEqual(m.SyscallTrace, wantCalls) {
			t.Errorf("stepOnly=%v: syscall trace %+v, want %+v", stepOnly, m.SyscallTrace, wantCalls)
		}
	}
}
