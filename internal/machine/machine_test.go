package machine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ia32"
	"repro/internal/image"
	"repro/internal/machine"
)

// run assembles source, boots it on a fresh Pentium 4 machine and runs it to
// completion, returning the machine.
func run(t *testing.T, source string) *machine.Machine {
	t.Helper()
	img, err := image.Assemble("test", source)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.PentiumIV())
	img.Boot(m)
	if err := m.Run(2_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

const exitSnippet = `
    mov eax, 1
    mov ebx, 0
    int 0x80
`

func TestExecArithmetic(t *testing.T) {
	m := run(t, `
main:
    mov eax, 10
    add eax, 32        ; 42
    mov ebx, eax
    sub ebx, 2         ; 40
    imul ebx, ebx, 2   ; 80
    mov ecx, ebx
    shl ecx, 2         ; 320
    shr ecx, 1         ; 160
    xor edx, edx
    or edx, ecx
    and edx, 0xff      ; 160
    mov eax, 3
    int 0x80           ; print ebx=... wait: prints ebx
    mov ebx, edx
    mov eax, 3
    int 0x80
`+exitSnippet)
	// First print: ebx=80, second: edx->ebx=160.
	if got := m.OutputString(); got != "80160" {
		t.Errorf("output = %q, want 80160", got)
	}
}

func TestExecFlagsAndBranches(t *testing.T) {
	m := run(t, `
main:
    mov ecx, 5
    xor eax, eax
loop:
    add eax, ecx
    dec ecx
    jnz loop
    mov ebx, eax        ; 15
    mov eax, 3
    int 0x80
`+exitSnippet)
	if got := m.OutputString(); got != "15" {
		t.Errorf("output = %q, want 15", got)
	}
}

func TestExecSignedComparisons(t *testing.T) {
	m := run(t, `
main:
    mov eax, -5
    cmp eax, 3
    jl  less           ; signed: -5 < 3
    mov ebx, 0
    jmp done
less:
    mov ebx, 1
done:
    cmp eax, 3         ; unsigned: 0xfffffffb > 3
    jb  below
    add ebx, 2         ; not below
below:
    mov eax, 3
    int 0x80
`+exitSnippet)
	if got := m.OutputString(); got != "3" {
		t.Errorf("output = %q, want 3 (signed-less and not unsigned-below)", got)
	}
}

func TestExecCallRetStack(t *testing.T) {
	m := run(t, `
main:
    mov ebx, 7
    call double
    call double
    mov eax, 3
    int 0x80           ; 28
`+exitSnippet+`
double:
    add ebx, ebx
    ret
`)
	if got := m.OutputString(); got != "28" {
		t.Errorf("output = %q, want 28", got)
	}
	if m.Stats.RetMispred != 0 {
		t.Errorf("well-paired returns mispredicted %d times", m.Stats.RetMispred)
	}
}

func TestExecMemoryAndAddressing(t *testing.T) {
	m := run(t, `
main:
    mov esi, array
    xor eax, eax
    xor ecx, ecx
sum:
    add eax, [esi+ecx*4]
    inc ecx
    cmp ecx, 4
    jnz sum
    mov ebx, eax
    mov eax, 3
    int 0x80
`+exitSnippet+`
.org 0x8000
array: .word 10, 20, 30, 40
`)
	if got := m.OutputString(); got != "100" {
		t.Errorf("output = %q, want 100", got)
	}
}

func TestExecByteOps(t *testing.T) {
	m := run(t, `
main:
    mov esi, str
next:
    mov al, byte [esi]
    test al, al
    jz done
    mov bl, al
    mov eax, 2
    int 0x80
    inc esi
    jmp next
done:
`+exitSnippet+`
.org 0x8000
str: .ascii "hello"
     .byte 0
`)
	if got := m.OutputString(); got != "hello" {
		t.Errorf("output = %q, want hello", got)
	}
}

func TestExecHighLowByteRegs(t *testing.T) {
	m := run(t, `
main:
    mov eax, 0x11223344
    mov bl, al          ; 0x44
    mov cl, ah          ; 0x33
    movzx ebx, bl
    movzx ecx, cl
    add ebx, ecx        ; 0x77
    mov eax, 3
    int 0x80
`+exitSnippet)
	if got := m.OutputString(); got != "119" {
		t.Errorf("output = %q, want 119 (0x77)", got)
	}
}

func TestExecMovsxSar(t *testing.T) {
	m := run(t, `
main:
    mov al, -8
    movsx ebx, al      ; -8
    sar ebx, 1         ; -4
    neg ebx            ; 4
    mov eax, 3
    int 0x80
`+exitSnippet)
	if got := m.OutputString(); got != "4" {
		t.Errorf("output = %q, want 4", got)
	}
}

func TestExecAdcSbb(t *testing.T) {
	// 64-bit add via adc: 0xFFFFFFFF + 1 = carry into high word.
	m := run(t, `
main:
    mov eax, 0xffffffff
    mov edx, 0
    add eax, 1
    adc edx, 0
    mov ebx, edx       ; 1
    mov eax, 3
    int 0x80
`+exitSnippet)
	if got := m.OutputString(); got != "1" {
		t.Errorf("output = %q, want 1", got)
	}
}

func TestExecIncPreservesCF(t *testing.T) {
	m := run(t, `
main:
    mov eax, 0xffffffff
    add eax, 1          ; sets CF
    mov ebx, 0
    inc ebx             ; must NOT clear CF
    adc ebx, 0          ; ebx = 1 + CF = 2
    mov eax, 3
    int 0x80
`+exitSnippet)
	if got := m.OutputString(); got != "2" {
		t.Errorf("output = %q, want 2 (inc must preserve CF)", got)
	}
}

func TestExecIndirectBranches(t *testing.T) {
	m := run(t, `
main:
    mov ecx, 0
    mov esi, 0
dispatch:
    mov eax, [table+esi*4]
    jmp eax
case0:
    add ecx, 1
    jmp next
case1:
    add ecx, 10
    jmp next
next:
    inc esi
    cmp esi, 2
    jnz dispatch
    mov ebx, ecx
    mov eax, 3
    int 0x80
`+exitSnippet+`
.org 0x8000
table: .word case0, case1
`)
	if got := m.OutputString(); got != "11" {
		t.Errorf("output = %q, want 11", got)
	}
	if m.Stats.IndBranches < 2 {
		t.Errorf("indirect branches = %d, want >= 2", m.Stats.IndBranches)
	}
}

func TestExecPushPopFlags(t *testing.T) {
	m := run(t, `
main:
    mov eax, 1
    add eax, 0x7fffffff  ; overflow: OF set
    pushfd
    mov ebx, 0
    add ebx, 0           ; clears OF
    popfd
    jo  overflow
    mov ebx, 0
    jmp out
overflow:
    mov ebx, 1
out:
    mov eax, 3
    int 0x80
`+exitSnippet)
	if got := m.OutputString(); got != "1" {
		t.Errorf("output = %q, want 1 (popfd must restore OF)", got)
	}
}

func TestExecWriteMemSyscall(t *testing.T) {
	m := run(t, `
main:
    mov eax, 4
    mov ebx, msg
    mov ecx, 5
    int 0x80
`+exitSnippet+`
.org 0x8000
msg: .ascii "tests"
`)
	if got := m.OutputString(); got != "tests" {
		t.Errorf("output = %q", got)
	}
}

func TestExitCode(t *testing.T) {
	m := run(t, `
main:
    mov eax, 1
    mov ebx, 42
    int 0x80
`)
	if m.Threads[0].ExitCode != 42 {
		t.Errorf("exit code = %d, want 42", m.Threads[0].ExitCode)
	}
	if !m.Threads[0].Halted {
		t.Error("thread should be halted")
	}
}

func TestThreadsSpawn(t *testing.T) {
	m := run(t, `
main:
    mov eax, 5
    mov ebx, worker
    mov ecx, 0x100000   ; worker stack
    int 0x80
    mov ecx, 0
wait:
    mov eax, [flag]
    test eax, eax
    jz wait
    mov eax, 1
    mov ebx, 0
    int 0x80
worker:
    mov dword [flag], 1
    mov eax, 1
    mov ebx, 0
    int 0x80
.org 0x9000
flag: .word 0
`)
	if len(m.Threads) != 2 {
		t.Fatalf("threads = %d, want 2", len(m.Threads))
	}
	for _, th := range m.Threads {
		if !th.Halted {
			t.Errorf("thread %d not halted", th.ID)
		}
	}
}

func TestTrapHandlers(t *testing.T) {
	img := image.MustAssemble("t", `
main:
    mov eax, [target]
    jmp eax
back:
    mov eax, 1
    mov ebx, 9
    int 0x80
.org 0x8000
target: .word 0
`)
	m := machine.New(machine.PentiumIV())
	img.Boot(m)
	fired := 0
	trap := m.AllocTrap(func(th *machine.Thread) (machine.TrapAction, error) {
		fired++
		th.CPU.EIP = img.Symbol("back")
		return machine.TrapContinue, nil
	})
	m.Mem.Write32(img.Symbol("target"), trap)
	if err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("trap fired %d times, want 1", fired)
	}
	if m.Threads[0].ExitCode != 9 {
		t.Errorf("exit = %d, want 9", m.Threads[0].ExitCode)
	}
}

func TestUnregisteredTrapErrors(t *testing.T) {
	m := machine.New(machine.PentiumIV())
	m.Threads[0].CPU.EIP = machine.TrapBase + 0x100
	err := m.Run(10)
	if err == nil || !strings.Contains(err.Error(), "unregistered trap") {
		t.Errorf("err = %v", err)
	}
}

func TestSignalDefaultDelivery(t *testing.T) {
	img := image.MustAssemble("t", `
main:
    mov ecx, 100000
spin:
    dec ecx
    jnz spin
    mov eax, 3
    mov ebx, [hits]
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
handler:
    inc dword [hits]
    ret
.org 0x8000
hits: .word 0
`)
	m := machine.New(machine.PentiumIV())
	th := img.Boot(m)
	m.QueueSignal(th, img.Symbol("handler"))
	if err := m.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.OutputString(); got != "1" {
		t.Errorf("output = %q, want 1 (handler ran once)", got)
	}
	if m.Stats.SignalsTaken != 1 {
		t.Errorf("signals taken = %d", m.Stats.SignalsTaken)
	}
}

func TestSignalInterceptor(t *testing.T) {
	img := image.MustAssemble("t", `
main:
    nop
    mov eax, 1
    mov ebx, 0
    int 0x80
`)
	m := machine.New(machine.PentiumIV())
	th := img.Boot(m)
	intercepted := false
	m.SetSignalInterceptor(func(t2 *machine.Thread, h machine.Addr) bool {
		intercepted = true
		return true // swallow it
	})
	m.QueueSignal(th, 0xdead)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if !intercepted {
		t.Error("interceptor not called")
	}
}

func TestPredictorEffects(t *testing.T) {
	// A loop branch is predictable; cycles must reflect few mispredicts.
	m := run(t, `
main:
    mov ecx, 10000
loop:
    dec ecx
    jnz loop
`+exitSnippet)
	if m.Stats.CondBranches < 10000 {
		t.Fatalf("cond branches = %d", m.Stats.CondBranches)
	}
	if m.Stats.CondMispred > 10 {
		t.Errorf("mispredicts = %d, want just warmup misses", m.Stats.CondMispred)
	}
}

func TestRetMispredictWhenUnpaired(t *testing.T) {
	// A ret whose address was pushed manually (no call) defeats the RAS.
	m := run(t, `
main:
    mov ecx, 100
loop:
    push target
    ret                 ; pops the pushed address: RAS mismatch
target:
    dec ecx
    jnz loop
`+exitSnippet)
	if m.Stats.RetMispred < 90 {
		t.Errorf("ret mispredicts = %d, want ~100", m.Stats.RetMispred)
	}
}

func TestTicksAdvance(t *testing.T) {
	m := run(t, `
main:
    mov ecx, 1000
l:  dec ecx
    jnz l
`+exitSnippet)
	if m.Ticks == 0 {
		t.Fatal("no time passed")
	}
	cpi := float64(m.Ticks) / machine.TicksPerCycle / float64(m.Stats.Instructions)
	if cpi < 0.5 || cpi > 4 {
		t.Errorf("CPI = %.2f, outside plausible range", cpi)
	}
}

func TestIncSlowerThanAddOnP4Only(t *testing.T) {
	// Compare inc/inc against an equivalent add/add program on both
	// profiles. (Using inc twice keeps instruction counts equal.)
	incSrc := `
main:
    mov ecx, 10000
l:  inc eax
    inc eax
    dec ecx
    jnz l
` + exitSnippet
	addSrc := `
main:
    mov ecx, 10000
l:  add eax, 1
    add eax, 1
    dec ecx
    jnz l
` + exitSnippet
	runOn := func(p *machine.Profile, src string) machine.Ticks {
		img := image.MustAssemble("t", src)
		m := machine.New(p)
		img.Boot(m)
		if err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		return m.Ticks
	}
	p4inc := runOn(machine.PentiumIV(), incSrc)
	p4add := runOn(machine.PentiumIV(), addSrc)
	if p4add >= p4inc {
		t.Errorf("P4: add-1 (%d) should beat inc (%d)", p4add, p4inc)
	}
	p3inc := runOn(machine.PentiumIII(), incSrc)
	p3add := runOn(machine.PentiumIII(), addSrc)
	if p3inc >= p3add {
		t.Errorf("P3: inc (%d) should beat add-1 (%d)", p3inc, p3add)
	}
}

func TestSelfModifyingCodeInvalidation(t *testing.T) {
	// Overwrite an instruction in the loop body and observe the change:
	// the write must drop the stale decode.
	m := run(t, `
main:
    mov ecx, 2
    mov ebx, 0
loop:
    add ebx, 1          ; will be patched to add ebx,2 (83 C3 02)
    mov byte [loop+2], 2
    dec ecx
    jnz loop
    mov eax, 3
    int 0x80
`+exitSnippet)
	// First iteration adds 1, then the byte patch makes it add 2.
	if got := m.OutputString(); got != "3" {
		t.Errorf("output = %q, want 3 (1 then 2)", got)
	}
}

// TestDecodeStoreCoherence pins the decode store's contract: a write drops
// exactly the decoded instructions whose bytes it overlaps, wherever they
// lie. Each of the loop's 100 iterations adds 1 (through edi) or 2 (through
// esi) and stores 0xE6 into [target]. Patching the ModRM byte of "jmp edi"
// (FF E7) turns it into "jmp esi": every later iteration adds 2 and
// re-decodes the jmp once. The jmp's ModRM byte is the only byte of it on
// the far side of the edge, and nothing else is ever fetched there. A store
// into data that shares the hot loop's 256-byte chunk, right after its last
// instruction, re-decodes nothing: that run decodes each of the 17
// instructions it executes (all but "add ebx, 2") once.
func TestDecodeStoreCoherence(t *testing.T) {
	for _, tc := range []struct {
		name       string
		edge       uint32 // address of "jmp edi"
		target     string
		want       string
		wantMisses uint64
	}{
		// The jmp's ModRM byte opens the next 256-byte chunk.
		{"chunk-edge", 0x10FF, "edge+1", "199", 18 + 98},
		// The jmp's ModRM byte opens the next 64 KiB page.
		{"page-edge", 0x1FFFF, "edge+1", "199", 18 + 98},
		{"data-in-code-chunk", 0x10FF, "data", "100", 17},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := run(t, fmt.Sprintf(`
main:
    mov ecx, 100
    mov ebx, 0
    mov edi, add1
    mov esi, add2
    jmp add1
add1:
    add ebx, 1
    jmp body
add2:
    add ebx, 2
body:
    mov byte [%s], 0xE6
    dec ecx
    jz done
    jmp edge
data:
    .byte 0
done:
    mov eax, 3
    int 0x80
`+exitSnippet+`
.org %#x
edge:
    jmp edi
`, tc.target, tc.edge))
			if got := m.OutputString(); got != tc.want {
				t.Errorf("output = %q, want %q", got, tc.want)
			}
			if got := m.Stats.DecodeMisses; got != tc.wantMisses {
				t.Errorf("decode misses = %d, want %d", got, tc.wantMisses)
			}
		})
	}
}

func TestCPURegisterWidths(t *testing.T) {
	var c machine.CPU
	c.SetReg(ia32.EAX, 0xAABBCCDD)
	if c.Reg(ia32.AL) != 0xDD || c.Reg(ia32.AH) != 0xCC || c.Reg(ia32.AX) != 0xCCDD {
		t.Error("sub-register reads wrong")
	}
	c.SetReg(ia32.AH, 0x11)
	if c.Reg(ia32.EAX) != 0xAABB11DD {
		t.Errorf("AH write = %#x", c.Reg(ia32.EAX))
	}
	c.SetReg(ia32.AL, 0x22)
	if c.Reg(ia32.EAX) != 0xAABB1122 {
		t.Errorf("AL write = %#x", c.Reg(ia32.EAX))
	}
	c.SetReg(ia32.AX, 0x3344)
	if c.Reg(ia32.EAX) != 0xAABB3344 {
		t.Errorf("AX write = %#x", c.Reg(ia32.EAX))
	}
}

func TestMemoryPageCrossing(t *testing.T) {
	mem := machine.NewMemory()
	base := uint32(0x1FFFE) // near a 64K page boundary
	mem.Write32(base, 0xDEADBEEF)
	if mem.Read32(base) != 0xDEADBEEF {
		t.Error("cross-page 32-bit rw failed")
	}
	mem.Write16(0xFFFF, 0x1234)
	if mem.Read16(0xFFFF) != 0x1234 {
		t.Error("cross-page 16-bit rw failed")
	}
	b := mem.ReadBytes(base-2, 8)
	if b[2] != 0xEF || b[5] != 0xDE {
		t.Errorf("ReadBytes = % x", b)
	}
}

// TestDigestSeesEveryByte: flipping any one byte of the digested range —
// at an unaligned start, in the byte tail, on either side of a page edge,
// anywhere in between — changes the digest, flipping a byte just outside
// it does not, and paging in an all-zero page does not either.
func TestDigestSeesEveryByte(t *testing.T) {
	const lo, hi = 0x1FFF3, 0x30005 // 13 bytes of one page, a whole page, 5 of the next
	mem := machine.NewMemory()
	for a := machine.Addr(lo); a < hi; a += 7 {
		mem.Write8(a, uint8(a>>3)|1)
	}
	base := mem.Digest(lo, hi)
	flip := func(a machine.Addr) uint64 {
		v := mem.Read8(a)
		mem.Write8(a, v^0x40)
		d := mem.Digest(lo, hi)
		mem.Write8(a, v)
		return d
	}
	in := []machine.Addr{lo, lo + 1, lo + 7, lo + 8, 0x1FFFF, 0x20000, 0x20001, 0x2FFFF, 0x30000, hi - 5, hi - 2, hi - 1}
	for a := machine.Addr(lo); a < hi; a += 251 {
		in = append(in, a)
	}
	for _, a := range in {
		if flip(a) == base {
			t.Errorf("flipping the byte at %#x leaves the digest unchanged", a)
		}
	}
	for _, a := range []machine.Addr{lo - 1, hi, hi + 8} {
		if flip(a) != base {
			t.Errorf("flipping the byte at %#x, outside the range, changes the digest", a)
		}
	}
	if mem.Digest(lo, hi) != base {
		t.Fatal("restoring every flipped byte does not restore the digest")
	}
	before := mem.Digest(lo, 0x60000)
	mem.Read8(0x50000) // pages in an all-zero page
	if mem.Digest(lo, 0x60000) != before {
		t.Error("paging in an all-zero page changes the digest")
	}
}
