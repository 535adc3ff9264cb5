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
