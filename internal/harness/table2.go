package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ia32"
	"repro/internal/instr"
	"repro/internal/workload"
)

// Table2Row is one level row of the paper's Table 2: the average time and
// memory used to decode and then encode a basic block at that level of
// representation, across the basic blocks of the whole suite.
type Table2Row struct {
	Level       instr.Level
	MicrosPerBB float64
	BytesPerBB  float64
}

// Block is one harvested static basic block.
type Block struct {
	Raw []byte
	PC  uint32
}

// HarvestBlocks extracts every static basic block (maximal run of
// instructions ending with a control transfer) from the code sections of
// all suite benchmarks — the population the paper's Table 2 averages over.
func HarvestBlocks() []Block {
	var out []Block
	for _, b := range workload.All() {
		img := b.Image()
		sec := img.Sections[0] // code section (data lives at 0x400000)
		off := 0
		start := 0
		for off < len(sec.Bytes) {
			op, n, _, err := ia32.DecodeOpcode(sec.Bytes[off:])
			if err != nil {
				break
			}
			off += n
			if op.IsCTI() || op == ia32.OpInt || op == ia32.OpHlt {
				out = append(out, Block{sec.Bytes[start:off], sec.Addr + uint32(start)})
				start = off
			}
		}
	}
	return out
}

// DecodeEncodeAt builds the block's InstrList at the given level and encodes
// it, returning the list (for memory measurement). It is the unit of work
// Table 2 measures.
func DecodeEncodeAt(raw []byte, pc uint32, level instr.Level) *instr.List {
	l := instr.NewList(instr.FromRawBundle(raw, pc))
	switch level {
	case instr.Level0:
		// A single bundle; encoding is one memory copy.
	case instr.Level1:
		l.ExpandAll()
	case instr.Level2:
		l.DecodeAll(instr.Level2)
	case instr.Level3:
		l.DecodeAll(instr.Level3)
	case instr.Level4:
		l.DecodeAll(instr.Level3)
		l.Instrs(func(i *instr.Instr) bool {
			i.MarkModified()
			return true
		})
	}
	if _, err := l.Encode(pc); err != nil {
		panic(fmt.Sprintf("harness: table2 encode at level %v: %v", level, err))
	}
	return l
}

// Table2 reproduces the paper's Table 2: for each of the five levels, the
// mean per-block wall-clock time (µs, each block's best of 40 rounds) and
// memory (bytes) to decode and then encode the suite's basic blocks.
// Absolute numbers reflect this Go implementation on the host machine; the reproduction target is the shape:
// Level 0 is far cheaper than everything else, Levels 1 and 2 are close,
// Level 3 costs more, and Level 4 — the only level that must run the
// template-matching encoder — is by far the most expensive.
func Table2() []Table2Row {
	blocks := HarvestBlocks()
	rows := make([]Table2Row, 5)
	for lv := instr.Level0; lv <= instr.Level4; lv++ {
		// Memory: average footprint of the representation.
		var bytesTotal int
		for _, blk := range blocks {
			l := DecodeEncodeAt(blk.Raw, blk.PC, lv)
			bytesTotal += l.MemUsage()
		}
		rows[lv] = Table2Row{Level: lv, BytesPerBB: float64(bytesTotal) / float64(len(blocks))}
	}
	// Time: each block is timed at every level in turn, and each (block,
	// level) pair keeps its best of 40 rounds — the per-op-best estimator
	// the repo benchmark (bench/) uses. Host load then hits every level
	// alike, and a preemption or GC pause that lands on one timing is
	// measured again clean in another round.
	const rounds = 40
	best := make([][]time.Duration, len(rows))
	for lv := range best {
		best[lv] = make([]time.Duration, len(blocks))
	}
	for r := 0; r < rounds; r++ {
		for i, blk := range blocks {
			for lv := range rows {
				start := time.Now()
				DecodeEncodeAt(blk.Raw, blk.PC, instr.Level(lv))
				if d := time.Since(start); r == 0 || d < best[lv][i] {
					best[lv][i] = d
				}
			}
		}
	}
	for lv := range rows {
		var sum time.Duration
		for _, d := range best[lv] {
			sum += d
		}
		rows[lv].MicrosPerBB = sum.Seconds() * 1e6 / float64(len(blocks))
	}
	return rows
}

// FormatTable2 renders rows in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: average time and memory to decode and then encode\n")
	b.WriteString("the basic blocks of the suite at each representation level\n")
	fmt.Fprintf(&b, "%-8s %12s %16s\n", "Level", "Time (µs)", "Memory (bytes)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %12.3f %16.2f\n", int(r.Level), r.MicrosPerBB, r.BytesPerBB)
	}
	return b.String()
}
