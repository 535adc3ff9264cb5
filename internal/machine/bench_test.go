package machine_test

import (
	"runtime"
	"testing"

	"repro/internal/image"
	"repro/internal/machine"
)

// hotLoopSource is a tight arithmetic/branch kernel dominated by the
// instruction forms the fused-dispatch thunks specialize: 32-bit reg/reg
// and reg/imm ALU ops, memory moves, inc/dec, cmp and a conditional
// back-edge. It retires ~5M instructions per run.
const hotLoopSource = `
main:
    mov ecx, 500000
    xor eax, eax
    xor edx, edx
    mov esi, 0x100000
outer:
    mov ebx, ecx
    and ebx, 0xff
    add eax, ebx
    sub eax, 1
    xor eax, edx
    mov [esi], eax
    mov edi, [esi]
    add edx, edi
    inc edx
    dec ecx
    cmp ecx, 0
    jnz outer
    mov eax, 1
    mov ebx, 0
    int 0x80
`

// BenchmarkInterpreterHotLoop measures raw interpreter throughput (reported
// as instructions/sec via SetBytes: 1 byte == 1 retired instruction),
// isolating the decoded-instruction thunk dispatch from the harness and
// runtime.
func BenchmarkInterpreterHotLoop(b *testing.B) {
	img, err := image.Assemble("hotloop", hotLoopSource)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var instret uint64
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.PentiumIV())
		img.Boot(m)
		if err := m.Run(20_000_000); err != nil {
			b.Fatal(err)
		}
		instret = m.Stats.Instructions
	}
	b.SetBytes(int64(instret))
}

// BenchmarkMachineNew measures the fixed cost of a fresh machine, which
// dominates runs of many tiny programs (the fuzzer's).
func BenchmarkMachineNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newSink = machine.New(machine.PentiumIV())
	}
}

var newSink *machine.Machine

// TestMachineNewAllocatesUnder1MiB: a fresh machine allocates no decode
// storage up front; decoded instructions live in the pages they were
// fetched from.
func TestMachineNewAllocatesUnder1MiB(t *testing.T) {
	const n = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		newSink = machine.New(machine.PentiumIV())
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1<<20 {
		t.Errorf("machine.New allocates %d KiB, want under 1024 KiB", per>>10)
	}
}

// redecodeStep returns a step that rewrites "add ebx, 1" at 0x1000 with its
// own bytes and executes it: the write drops the decode, so every call is a
// decode miss, and the thread's run counts them.
func redecodeStep(tb testing.TB) (step func(), m *machine.Machine) {
	m = machine.New(machine.PentiumIV())
	t := m.Threads[0]
	code := []byte{0x81, 0xC3, 0x01, 0x00, 0x00, 0x00}
	return func() {
		m.Mem.WriteBytes(0x1000, code)
		t.CPU.EIP = 0x1000
		if err := m.Step(t); err != nil {
			tb.Fatal(err)
		}
	}, m
}

// BenchmarkRedecode measures one write-driven decode miss in steady state:
// a write that drops a decode, the re-decode and one execution. It reports
// allocs/op, which is 0 while dropped decodes are recycled.
func BenchmarkRedecode(b *testing.B) {
	step, _ := redecodeStep(b)
	step() // the page, its decode tables and the first decode
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestRedecodeAllocatesNothing: once a decode has been dropped, the next
// miss reuses it, so a steady-state re-decode allocates nothing.
func TestRedecodeAllocatesNothing(t *testing.T) {
	step, m := redecodeStep(t)
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("a steady-state re-decode allocates %v objects, want 0", n)
	}
	if got := m.Stats.DecodeMisses; got != 102 {
		t.Errorf("decode misses = %d, want 102 (every step re-decodes)", got)
	}
}
