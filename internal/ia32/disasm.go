package ia32

import (
	"fmt"
	"strings"
)

// String renders the instruction in the DynamoRIO disassembly style used by
// the paper's Figure 2: mnemonic, source operands, "->", destination
// operands, e.g.
//
//	sub    0x1c(%esi) %eax -> %eax
//	jnl    $0x77f52269
//
// All operands are shown, including implicit ones, since that is the view
// the Level-3 representation exposes.
func (in *Inst) String() string {
	var b strings.Builder
	if in.Prefixes&PrefixLock != 0 {
		b.WriteString("lock ")
	}
	if in.Prefixes&PrefixRep != 0 {
		b.WriteString("rep ")
	}
	if in.Prefixes&PrefixRepne != 0 {
		b.WriteString("repne ")
	}
	fmt.Fprintf(&b, "%-6s", in.Op.String())
	for _, o := range in.Srcs {
		b.WriteByte(' ')
		b.WriteString(o.String())
	}
	if len(in.Dsts) > 0 {
		b.WriteString(" ->")
		for _, o := range in.Dsts {
			b.WriteByte(' ')
			b.WriteString(o.String())
		}
	}
	return b.String()
}

// DisasmBytes decodes and formats every instruction in mem, assuming the
// first byte lives at address pc. It is a debugging aid; decoding stops at
// the first invalid instruction.
func DisasmBytes(mem []byte, pc uint32) string {
	var b strings.Builder
	off := 0
	for off < len(mem) {
		in, err := Decode(mem[off:], pc+uint32(off))
		if err != nil {
			fmt.Fprintf(&b, "%08x: <%v>\n", pc+uint32(off), err)
			break
		}
		fmt.Fprintf(&b, "%08x: % -24x %s\n", pc+uint32(off), mem[off:off+int(in.Len)], &in)
		off += int(in.Len)
	}
	return b.String()
}

func init() {
	verifyTables()
}

// verifyTables checks structural invariants of the template table that the
// decoder relies on: all templates reachable from one dispatch key agree on
// ModRM presence, /digit templates under a key do not collide, and no
// template has more than MaxOperands operands.
func verifyTables() {
	for _, tm := range templates {
		if len(tm.Dsts)+len(tm.Srcs) > MaxOperands {
			panic(fmt.Sprintf("ia32: %s template has more than MaxOperands operands", tm.Op))
		}
	}
	for key, cands := range decodeTable {
		if len(cands) == 0 {
			continue
		}
		modrm := cands[0].ModRM
		seen := map[int8]Opcode{}
		for _, tm := range cands {
			if tm.ModRM != modrm {
				panic(fmt.Sprintf("ia32: dispatch key %#x mixes ModRM and non-ModRM templates", key))
			}
			if tm.ModRM {
				if prev, dup := seen[tm.Ext]; dup && prev != tm.Op {
					panic(fmt.Sprintf("ia32: dispatch key %#x /%d claimed by both %s and %s",
						key, tm.Ext, prev, tm.Op))
				}
				seen[tm.Ext] = tm.Op
			} else if len(cands) > 1 && !tm.PlusReg {
				panic(fmt.Sprintf("ia32: dispatch key %#x has %d non-ModRM templates", key, len(cands)))
			}
		}
	}
}
