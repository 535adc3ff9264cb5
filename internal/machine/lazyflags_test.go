package machine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/image"
	"repro/internal/oracle"
)

// The lazy-flag sequence tests. The tests in flags_test.go drive single
// Steps, and Step materializes the flags after every instruction, so they
// never see a flag record outlive its instruction. These programs pair each
// flag producer with each kind of flag consumer and run them through Run,
// where the block runner keeps the producer's record pending across
// instructions; the endpoint must equal the same program run one Step at a
// time. Sizes are 1 and 4 bytes: the instruction subset has no
// operand-size prefix, so no flag producer operates on 16 bits.

// seqPairs are the operand pairs every producer runs on: sign, carry,
// auxiliary-carry and zero boundaries at both sizes, and a few arbitrary
// values.
var seqPairs = [][2]uint32{
	{0, 0}, {1, 1}, {0, 1}, {0x7f, 1}, {0x80, 0x80}, {0xff, 1}, {0x0f, 0x01},
	{0x7fffffff, 1}, {0x80000000, 0xffffffff}, {0xffffffff, 1}, {0x80000000, 1},
	{0x12345678, 0x9abcdef0}, {5, 9}, {0xfedcba98, 0x3f}, {0x1f, 0x1f},
}

// seqProducer emits one flag-producing instruction on dst (al or eax) and
// src (cl or ecx), which hold the pair's operands; b, the second operand,
// is passed too for the forms that take it as an immediate or a count.
type seqProducer struct {
	name  string
	sizes []int
	emit  func(dst, src string, b uint32) string
}

func binaryProducer(op string) seqProducer {
	return seqProducer{op, []int{1, 4}, func(d, s string, _ uint32) string { return fmt.Sprintf("%s %s, %s", op, d, s) }}
}

func immProducer(op string) seqProducer {
	return seqProducer{op + "-imm", []int{1, 4}, func(d, _ string, b uint32) string {
		if d == "al" {
			b &= 0xff
		}
		return fmt.Sprintf("%s %s, %d", op, d, b)
	}}
}

func unaryProducer(op string) seqProducer {
	return seqProducer{op, []int{1, 4}, func(d, _ string, _ uint32) string { return op + " " + d }}
}

func shiftProducer(op string) seqProducer {
	// The count is b mod 32, so it is 0 (flags unchanged) for some pairs.
	return seqProducer{op, []int{1, 4}, func(d, _ string, b uint32) string { return fmt.Sprintf("%s %s, %d", op, d, b&31) }}
}

var seqProducers = []seqProducer{
	binaryProducer("add"), binaryProducer("adc"), binaryProducer("sub"), binaryProducer("sbb"),
	binaryProducer("cmp"), binaryProducer("and"), binaryProducer("or"), binaryProducer("xor"),
	binaryProducer("test"),
	immProducer("add"), immProducer("sub"), immProducer("cmp"), immProducer("and"),
	immProducer("or"), immProducer("xor"), immProducer("test"),
	unaryProducer("neg"), unaryProducer("inc"), unaryProducer("dec"),
	shiftProducer("shl"), shiftProducer("shr"), shiftProducer("sar"),
	shiftProducer("rol"), shiftProducer("ror"),
	{"imul", []int{4}, func(d, s string, _ uint32) string { return fmt.Sprintf("imul %s, %s", d, s) }},
	{"div", []int{4}, func(_, s string, _ uint32) string { return "mov edx, 0\n    div " + s }},
	{"popfd", []int{4}, func(_, _ string, b uint32) string { return fmt.Sprintf("push %d\n    popfd", b) }},
}

// seqConsumer emits the code after the producer of block k that reads the
// flags and stores what it read at res[slot], allocating slots with next.
type seqConsumer struct {
	name string
	emit func(k int, next func() int) string
}

var ccNames = []string{"o", "no", "b", "nb", "z", "nz", "be", "nbe", "s", "ns", "p", "np", "l", "nl", "le", "nle"}

// storeFlags stores the materialized flags in a fresh slot.
func storeFlags(next func() int) string {
	return fmt.Sprintf("pushfd\n    pop esi\n    mov [res + %d], esi", 4*next())
}

// seqConsumers are the 16 conditional branches, then the other readers.
var seqConsumers = append(jccConsumers(), []seqConsumer{
	{"setcc", func(k int, next func() int) string {
		var b strings.Builder
		for _, cc := range ccNames {
			fmt.Fprintf(&b, "set%s dl\n    mov [res + %d], edx\n    ", cc, 4*next())
		}
		return b.String()
	}},
	{"cmovcc", func(k int, next func() int) string {
		var b strings.Builder
		for _, cc := range ccNames {
			fmt.Fprintf(&b, "mov edx, 0x5a5a\n    cmov%s edx, ecx\n    mov [res + %d], edx\n    ", cc, 4*next())
		}
		return b.String()
	}},
	{"adc", func(k int, next func() int) string {
		return fmt.Sprintf("mov edx, %d\n    adc edx, ecx\n    mov [res + %d], edx\n    ", k*0x01010101, 4*next()) + storeFlags(next)
	}},
	{"sbb", func(k int, next func() int) string {
		return fmt.Sprintf("mov edx, %d\n    sbb dl, cl\n    mov [res + %d], edx\n    ", k*0x01010101, 4*next()) + storeFlags(next)
	}},
	{"inc-keeps-cf", func(k int, next func() int) string {
		return fmt.Sprintf("mov edx, %d\n    inc edx\n    jc ic%d\n    mov edx, 7\nic%d:\n    mov [res + %d], edx\n    ", uint32(k*0x10000001), k, k, 4*next()) + storeFlags(next)
	}},
	{"dec-keeps-cf", func(k int, next func() int) string {
		return fmt.Sprintf("mov edx, %d\n    dec dl\n    adc edx, 0\n    mov [res + %d], edx\n    ", k*3, 4*next()) + storeFlags(next)
	}},
	{"pushfd", func(k int, next func() int) string { return storeFlags(next) }},
	{"divide-fault", func(k int, next func() int) string {
		// de_handler stores the flags it sees at res[ebx] and resumes
		// after the 2-byte div.
		return fmt.Sprintf("mov edx, 0\n    mov ebp, 0\n    mov ebx, %d\n    div ebp", next())
	}},
}...)

// jccConsumers branch on each condition; the not-taken path falls through
// within the run, the taken one ends it.
func jccConsumers() []seqConsumer {
	var cs []seqConsumer
	for _, cc := range ccNames {
		cs = append(cs, seqConsumer{"j" + cc, func(k int, next func() int) string {
			return fmt.Sprintf("mov edx, 0\n    j%s jt%d\n    mov edx, 1\njt%d:\n    mov [res + %d], edx", cc, k, k, 4*next())
		}})
	}
	return cs
}

// seqProgram renders a program that runs produce then consume once per
// operand pair and size, each block from fresh operands and with CF
// alternating before the producer (set by a cmp, itself a pending record).
func seqProgram(p seqProducer, c seqConsumer) string {
	var b strings.Builder
	b.WriteString("main:\n    mov eax, 7\n    mov ebx, de_handler\n    int 0x80\n")
	slot := 0
	next := func() int { slot++; return slot - 1 }
	k := 0
	for _, size := range p.sizes {
		dst, src := "eax", "ecx"
		if size == 1 {
			dst, src = "al", "cl"
		}
		for _, pr := range seqPairs {
			cf := k & 1
			fmt.Fprintf(&b, "    mov eax, %d\n    mov ecx, %d\n    mov esi, %d\n    mov edi, %d\n    cmp esi, edi\n", pr[0], pr[1], 1-cf, cf)
			if p.name == "div" {
				b.WriteString("    or ecx, 1\n    cmp esi, edi\n")
			}
			fmt.Fprintf(&b, "    %s\n    %s\n    mov [res + %d], eax\n", p.emit(dst, src, pr[1]), c.emit(k, next), 4*next())
			k++
		}
	}
	b.WriteString("    mov eax, 1\n    mov ebx, 0\n    int 0x80\n")
	b.WriteString("de_handler:\n    pushfd\n    pop esi\n    mov [res + ebx*4], esi\n    mov esi, [esp + 8]\n    add esi, 2\n    add esp, 12\n    jmp esi\n")
	fmt.Fprintf(&b, "res: .space %d\n", 4*slot+4)
	return b.String()
}

// checkSeq runs src through Run and one Step at a time and requires the
// same endpoint.
func checkSeq(t *testing.T, name, src string) {
	t.Helper()
	img, err := image.Assemble(name, src)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src)
	}
	block, err := runEndpoint(oracle.Case{Image: img}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	step, err := runEndpoint(oracle.Case{Image: img}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if d := endpointDiff(step, block); d != "" {
		t.Errorf("Run differs from single steps: %s", d)
	}
	if block.Stats.Faults == 0 && strings.Contains(src, "div ebp") {
		t.Error("no #DE was delivered")
	}
}

// TestLazyFlagSequences pairs every producer with every consumer.
func TestLazyFlagSequences(t *testing.T) {
	for _, p := range seqProducers {
		for _, c := range seqConsumers {
			t.Run(p.name+"/"+c.name, func(t *testing.T) { checkSeq(t, p.name, seqProgram(p, c)) })
		}
	}
}

// TestLazyFlagsAtExit ends a program right after each producer, so the
// endpoint's eflags (oracle.Capture reads CPU.Eflags) come from a record
// the exit system call had to materialize.
func TestLazyFlagsAtExit(t *testing.T) {
	for _, p := range seqProducers {
		t.Run(p.name, func(t *testing.T) {
			for _, size := range p.sizes {
				dst, src := "eax", "ecx"
				if size == 1 {
					dst, src = "al", "cl"
				}
				for k, pr := range seqPairs {
					b := pr[1]
					if p.name == "div" {
						b |= 1
					}
					prog := fmt.Sprintf("main:\n    mov eax, %d\n    mov ecx, %d\n    mov esi, %d\n    cmp esi, 1\n    %s\n    mov ebx, eax\n    mov eax, 1\n    int 0x80\n",
						pr[0], b, k&1, p.emit(dst, src, b))
					checkSeq(t, p.name, prog)
				}
			}
		})
	}
}
