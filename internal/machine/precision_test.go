package machine_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/image"
	"repro/internal/machine"
)

// The fault-precision table. Every thunk makes the accesses that can fault
// before its first write to CPU state or memory, so a #PF must leave the
// CPU (registers, EIP and exact Eflags) and memory exactly as they were
// before the faulting instruction. Each case is one instruction form that
// touches memory, run under two protections of the page at precEdge (no
// read and no write; no write only) with its operand at two addresses
// (inside the page; across its lower edge, so the first bytes lie on the
// writable page below), through Step and through Run's block runner. A flag
// producer runs right before the instruction, so under Run its lazy record
// is still pending when the instruction faults.

const (
	precEdge   = 0x00400000 // first byte of the protected page
	precStack  = 0x00200100 // ESP of the forms whose stack is not the operand
	precEflags = 0x8d7      // all six arithmetic flags and bit 1, before the producer
)

// precCase is one instruction form. form renders it for operand address
// addr, where op is the sized memory operand ("dword [0x400100]"). esp, if
// set, places the stack from addr instead (the stack forms, whose operand
// is the stack slot).
type precCase struct {
	name string
	size int
	form func(op string, addr uint32) string
	esp  func(addr uint32) uint32
}

func precCases() []precCase {
	var cs []precCase
	add := func(name string, size int, text string) {
		cs = append(cs, precCase{name: name, size: size, form: func(op string, _ uint32) string {
			return fmt.Sprintf(text, op)
		}})
	}
	for _, size := range []int{1, 4} {
		r := map[int]string{1: "cl", 4: "ecx"}[size]
		for _, op := range []string{"add", "adc", "sub", "sbb", "and", "or", "xor"} {
			add(op+" [m], r", size, op+" %s, "+r)
			add(op+" [m], imm", size, op+" %s, 5")
			add(op+" r, [m]", size, op+" "+r+", %s")
		}
		for _, op := range []string{"inc", "dec", "neg", "not"} {
			add(op, size, op+" %s")
		}
		for _, op := range []string{"shl", "shr", "sar", "rol", "ror"} {
			add(op+" [m], imm", size, op+" %s, 3")
			add(op+" [m], cl", size, op+" %s, cl")
		}
		add("xadd", size, "xadd %s, "+r)
		add("mov [m], r", size, "mov %s, "+r)
		add("mov [m], imm", size, "mov %s, 5")
		add("mov r, [m]", size, "mov "+r+", %s")
		add("cmp [m], r", size, "cmp %s, "+r)
		add("test [m], r", size, "test %s, "+r)
	}
	for _, size := range []int{1, 2} {
		add("movzx", size, "movzx ecx, %s")
		add("movsx", size, "movsx ecx, %s")
	}
	add("xchg [m], r", 4, "xchg %s, ecx")
	add("xchg r, [m]", 4, "xchg ecx, %s")
	add("setz", 1, "setz %s")
	add("setnz", 1, "setnz %s")
	add("imul r, [m]", 4, "imul ecx, %s")
	add("imul r, [m], imm", 4, "imul ecx, %s, 7")
	add("div", 4, "div %s")
	add("jmp [m]", 4, "jmp %s")
	add("call [m]", 4, "call %s")
	add("push [m]", 4, "push %s")
	add("pop [m]", 4, "pop %s")
	add("cmovz", 4, "cmovz ecx, %s")
	add("cmovnz", 4, "cmovnz ecx, %s")
	// pop's store address is computed with the popped ESP.
	cs = append(cs, precCase{name: "pop [esp+d]", size: 4, form: func(_ string, addr uint32) string {
		return fmt.Sprintf("pop dword [esp+%d]", addr-(precStack+4))
	}})
	// The stack forms, with the slot they store or load on the page.
	pushes := func(a uint32) uint32 { return a + 4 }
	pops := func(a uint32) uint32 { return a }
	for _, s := range []struct {
		text string
		esp  func(uint32) uint32
	}{
		{"push ecx", pushes}, {"push 5", pushes}, {"pushfd", pushes}, {"call done", pushes},
		{"pop ecx", pops}, {"popfd", pops}, {"ret", pops}, {"ret 4", pops},
	} {
		text := s.text
		cs = append(cs, precCase{name: text, size: 4, esp: s.esp,
			form: func(string, uint32) string { return text }})
	}
	return cs
}

// precState is what a #PF must leave as it was.
type precState struct {
	R      [8]uint32
	Eflags uint32
	EIP    uint32
	Mem    uint64 // digest of memory below the trap range
}

func precCapture(m *machine.Machine, th *machine.Thread) precState {
	return precState{th.CPU.R, th.CPU.Eflags, th.CPU.EIP, m.Mem.Digest(0, machine.TrapBase)}
}

// precBoot boots the case's program at operand address addr: the producer
// at main, the form at fault, and hlt at done, which is also the value in
// memory at addr (a valid target for the jumps, calls and rets).
func precBoot(t *testing.T, c precCase, addr uint32) (*machine.Machine, *machine.Thread) {
	t.Helper()
	op := fmt.Sprintf("%s [%#x]", map[int]string{1: "byte", 2: "word", 4: "dword"}[c.size], addr)
	img, err := image.Assemble("prec", fmt.Sprintf("main:\n add esi, edi\nfault:\n %s\ndone:\n hlt\n", c.form(op, addr)))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.PentiumIV())
	th := img.Boot(m)
	esp := uint32(precStack)
	if c.esp != nil {
		esp = c.esp(addr)
	}
	// eax ecx edx ebx esp ebp esi edi; esi+edi sets OF, SF, AF and PF.
	th.CPU.R = [8]uint32{0x11, 3, 0, 0x5a5a5a5a, esp, 0x1234, 0x7fffffff, 1}
	th.CPU.Eflags = precEflags
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], img.Symbol("done"))
	m.Mem.WriteBytes(addr, v[:])
	return m, th
}

// precRuns runs one case both ways and returns each path's fault (nil if
// it ran to hlt) and end state, and the state before the form.
func precRuns(t *testing.T, c precCase, addr uint32, prot uint8) (want precState, faults [2]*machine.Fault, got [2]precState) {
	t.Helper()
	// Step: the producer, then the form.
	m, th := precBoot(t, c, addr)
	m.Mem.Protect(precEdge, precEdge+1, prot)
	if err := m.Step(th); err != nil {
		t.Fatal(err)
	}
	want = precCapture(m, th)
	if err := m.Step(th); err != nil {
		t.Fatal(err)
	}
	if !th.Halted {
		if err := m.Run(100); err != nil {
			t.Fatal(err)
		}
	}
	faults[0], got[0] = th.FaultRecord, precCapture(m, th)

	// Run: run the program once unprotected so that every instruction is
	// decoded, restore the CPU and the bytes it wrote, protect, and run it
	// again. With every decode present the block runner executes both the
	// producer and the form.
	m, th = precBoot(t, c, addr)
	cpu := th.CPU
	spots := []uint32{addr - 8, precStack - 8}
	var saved [][]byte
	for _, a := range spots {
		saved = append(saved, m.Mem.ReadBytes(a, 16))
	}
	if err := m.Run(100); err != nil || !th.Halted || th.FaultRecord != nil {
		t.Fatalf("unprotected run: err=%v halted=%v record=%+v", err, th.Halted, th.FaultRecord)
	}
	th.CPU, th.Halted = cpu, false
	for i, a := range spots {
		m.Mem.WriteBytes(a, saved[i])
	}
	m.Mem.Protect(precEdge, precEdge+1, prot)
	misses := m.Stats.DecodeMisses
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.Stats.DecodeMisses != misses {
		t.Fatalf("protected run decoded %d instructions: Step, not the block runner, ran it", m.Stats.DecodeMisses-misses)
	}
	faults[1], got[1] = th.FaultRecord, precCapture(m, th)
	return want, faults, got
}

func TestFaultPrecisionTable(t *testing.T) {
	faulting := 0
	for _, c := range precCases() {
		for _, prot := range []uint8{machine.ProtNoRead | machine.ProtNoWrite, machine.ProtNoWrite} {
			// Inside the page, and across its lower edge (a 1-byte
			// operand cannot cross; it sits on the edge).
			for _, addr := range []uint32{precEdge + 0x100, precEdge - uint32(c.size)/2} {
				name := fmt.Sprintf("%s/prot%d/%#x", c.name, prot, addr)
				want, faults, got := precRuns(t, c, addr, prot)
				if prot&machine.ProtNoRead != 0 && faults[0] == nil {
					t.Errorf("%s: no fault, but every form touches the page", name)
				}
				for i, path := range []string{"Step", "Run"} {
					f := faults[i]
					if f == nil {
						if faults[1-i] != nil {
							t.Errorf("%s: %s ran to the end, the other path faulted", name, path)
						}
						continue
					}
					faulting++
					if f.Kind != machine.FaultPage || f.EIP != want.EIP {
						t.Errorf("%s: %s fault %+v, want #PF at %#x", name, path, f, want.EIP)
					}
					if got[i] != want {
						t.Errorf("%s: %s after the #PF\n got %+v\nwant %+v", name, path, got[i], want)
					}
				}
				if faults[0] != nil && faults[1] != nil && *faults[0] != *faults[1] {
					t.Errorf("%s: Step fault %+v, Run fault %+v", name, faults[0], faults[1])
				}
				if faults[0] == nil && got[0] != got[1] {
					t.Errorf("%s: unfaulted endpoints differ: Step %+v, Run %+v", name, got[0], got[1])
				}
			}
		}
	}
	t.Logf("%d forms, %d faulting runs", len(precCases()), faulting)
}
