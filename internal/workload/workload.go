// Package workload provides the synthetic SPEC CPU2000 benchmark suite used
// to reproduce the paper's evaluation (Table 1 and Figure 5).
//
// The real evaluation ran the SPEC2000 binaries (excluding the Fortran 90
// benchmarks) compiled with gcc -O3 on Linux. Those inputs are not
// reproducible here, so each benchmark is replaced by a synthetic program in
// the subset ISA, assembled from a library of parameterized kernels chosen
// to reproduce the *behavioural signature* that determines that benchmark's
// bar in the paper's figures: indirect-branch density (hashtable-lookup
// pressure), call/return density (return-predictor pressure), redundant
// load density (redundant load removal headroom), inc/dec usage (strength
// reduction headroom), branch predictability, and code footprint versus
// reuse (overhead amortization). See DESIGN.md for the substitution
// argument and per-benchmark table below.
//
// Every program writes a checksum through the machine's output system call,
// so a run under the code-cache runtime can be validated byte-for-byte
// against a native run.
package workload

import (
	"fmt"
	"sync"

	"repro/internal/image"
)

// Class groups benchmarks the way the paper's Figure 5 does.
type Class int

// Benchmark classes.
const (
	ClassInt Class = iota
	ClassFP
)

func (c Class) String() string {
	if c == ClassFP {
		return "FP"
	}
	return "INT"
}

// Benchmark is one synthetic SPEC2000 program.
type Benchmark struct {
	Name  string
	Class Class
	// Signature summarizes the behavioural profile being modeled.
	Signature string

	build func() *program

	once   sync.Once
	source string
	img    *image.Image
}

// Source returns the program's assembly source.
func (b *Benchmark) Source() string {
	b.compile()
	return b.source
}

// Image returns the assembled program, building it on first use.
func (b *Benchmark) Image() *image.Image {
	b.compile()
	return b.img
}

func (b *Benchmark) compile() {
	b.once.Do(func() {
		p := b.build()
		b.source = p.emit()
		img, err := image.Assemble(b.Name, b.source)
		if err != nil {
			panic(fmt.Sprintf("workload %s: %v", b.Name, err))
		}
		b.img = img
	})
}

var registry []*Benchmark

func register(name string, class Class, signature string, build func() *program) {
	registry = append(registry, &Benchmark{
		Name:      name,
		Class:     class,
		Signature: signature,
		build:     build,
	})
}

// All returns every benchmark in Figure 5 order (alphabetical within the
// suite, as the paper plots them).
func All() []*Benchmark { return registry }

// ByName returns the named benchmark or nil.
func ByName(name string) *Benchmark {
	for _, b := range registry {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Select returns the named benchmarks in the order given, or every benchmark
// when no names are given; an unknown name is an error.
func Select(names ...string) ([]*Benchmark, error) {
	if len(names) == 0 {
		return All(), nil
	}
	benches := make([]*Benchmark, len(names))
	for i, n := range names {
		if benches[i] = ByName(n); benches[i] == nil {
			return nil, fmt.Errorf("unknown benchmark %s", n)
		}
	}
	return benches, nil
}

// ByClass returns the benchmarks of one class.
func ByClass(c Class) []*Benchmark {
	var out []*Benchmark
	for _, b := range registry {
		if b.Class == c {
			out = append(out, b)
		}
	}
	return out
}

// program accumulates kernels into a complete assembly source.
type program struct {
	kernels []*kernel
	// outer is the number of main-loop iterations calling every kernel.
	outer int
	// phases, when > 1, splits the kernels into sequential phases (each
	// kernel list run in its own outer loop), modelling programs whose
	// behaviour changes over time.
	phases int
}

// kernel is one generated routine plus its data.
type kernel struct {
	entry string // label to call
	code  string
	data  string
}

func newProgram(outer int) *program { return &program{outer: outer, phases: 1} }

func (p *program) add(k *kernel) *program {
	p.kernels = append(p.kernels, k)
	return p
}

// emit assembles the final program text: a driver main loop (or per-phase
// loops) calling each kernel, the kernels, and a single data section.
func (p *program) emit() string {
	var code, data string
	for _, k := range p.kernels {
		code += k.code
		data += k.data
	}

	driver := ".org 0x1000\nmain:\n"
	perPhase := (len(p.kernels) + p.phases - 1) / p.phases
	for ph := 0; ph < p.phases; ph++ {
		lo := ph * perPhase
		hi := min(lo+perPhase, len(p.kernels))
		if lo >= hi {
			continue
		}
		driver += fmt.Sprintf("    mov ecx, %d\nphase%d:\n    push ecx\n", p.outer, ph)
		for _, k := range p.kernels[lo:hi] {
			driver += fmt.Sprintf("    call %s\n", k.entry)
		}
		driver += fmt.Sprintf("    pop ecx\n    dec ecx\n    jnz phase%d\n", ph)
	}
	driver += `
    mov eax, 3
    mov ebx, [checksum]
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
`
	return driver + code + "\n.org 0x400000\nchecksum: .word 0\n" + data
}
