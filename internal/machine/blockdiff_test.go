package machine_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/image"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// The block-vs-step differential. The native-vs-runtime oracle cannot see
// an interpreter bug, because both of its sides run on the interpreter; this
// test instead runs every case twice on the same side — once through Run's
// block runner and once one Step at a time (machine.SetStepOnly) — and
// requires every simulated value to agree: the full oracle endpoint, each
// thread's EIP and Instret, Ticks, every machine.Stats counter and, under
// the runtime, core.Stats.

// endpoint is everything one run must reproduce exactly.
type endpoint struct {
	State   oracle.State
	EIP     []machine.Addr
	Instret []uint64
	Ticks   machine.Ticks
	Stats   machine.Stats
	RIO     core.Stats
}

// runEndpoint runs case c natively (opts nil) or under the runtime with
// opts, through the block runner or, with stepOnly, one Step at a time.
func runEndpoint(c oracle.Case, opts *core.Options, stepOnly bool) (endpoint, error) {
	m := machine.New(machine.PentiumIV())
	if stepOnly {
		machine.SetStepOnly(m)
	}
	var e endpoint
	var r *core.RIO
	if opts == nil {
		c.Image.Boot(m)
	} else {
		r = core.New(m, c.Image, *opts, nil)
	}
	if c.Setup != nil {
		c.Setup(m)
	}
	if r == nil {
		if err := m.Run(oracle.RunLimit); err != nil {
			return e, err
		}
	} else {
		if err := r.Run(oracle.RunLimit); err != nil {
			return e, err
		}
		e.RIO = r.StatsSnapshot()
	}
	e.State = oracle.Capture(m)
	for _, t := range m.Threads {
		e.EIP = append(e.EIP, t.CPU.EIP)
		e.Instret = append(e.Instret, t.Instret)
	}
	e.Ticks, e.Stats = m.Ticks, m.Stats
	return e, nil
}

// checkBlockVsStep runs case c both ways under each configuration.
func checkBlockVsStep(t *testing.T, c oracle.Case) {
	t.Helper()
	tiny := core.Default()
	tiny.BBCacheSize, tiny.TraceCacheSize = 1<<10, 1<<10
	def := core.Default()
	for _, cfg := range []struct {
		name string
		opts *core.Options
	}{{"native", nil}, {"default", &def}, {"1k", &tiny}} {
		block, err := runEndpoint(c, cfg.opts, false)
		if err != nil {
			t.Fatalf("%s: block runner: %v", cfg.name, err)
		}
		step, err := runEndpoint(c, cfg.opts, true)
		if err != nil {
			t.Fatalf("%s: step only: %v", cfg.name, err)
		}
		if d := endpointDiff(step, block); d != "" {
			t.Errorf("%s: block runner differs from Step: %s", cfg.name, d)
		}
	}
}

// endpointDiff names the first component of got that differs from want.
func endpointDiff(want, got endpoint) string {
	switch {
	case !oracle.Equal(want.State, got.State):
		return oracle.Mismatch(want.State, got.State)
	case !reflect.DeepEqual(want.EIP, got.EIP):
		return fmt.Sprintf("EIP %#x, want %#x", got.EIP, want.EIP)
	case !reflect.DeepEqual(want.Instret, got.Instret):
		return fmt.Sprintf("Instret %v, want %v", got.Instret, want.Instret)
	case want.Ticks != got.Ticks:
		return fmt.Sprintf("Ticks %d, want %d", got.Ticks, want.Ticks)
	case want.Stats != got.Stats:
		return fmt.Sprintf("machine stats %+v, want %+v", got.Stats, want.Stats)
	case !reflect.DeepEqual(want.RIO, got.RIO):
		return fmt.Sprintf("runtime stats %+v, want %+v", got.RIO, want.RIO)
	}
	return ""
}

// TestBlockVsStepWorkloads runs all 22 workloads natively, under the
// default runtime and under 1 KiB caches.
func TestBlockVsStepWorkloads(t *testing.T) {
	for _, b := range workload.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			checkBlockVsStep(t, oracle.Case{Name: b.Name, Image: b.Image()})
		})
	}
}

// TestBlockVsStepFuzz runs 200 generated programs the same way, each with
// its guard page unarmed and then, in the armed subtest, armed. Armed, a
// program's guarded read may take a #PF, which the block runner and Step
// must deliver alike (the fault precision table covers the other forms).
func TestBlockVsStepFuzz(t *testing.T) {
	const seeds = 200
	for seed := int64(1); seed <= seeds; seed++ {
		c, err := fuzz.Case(fuzz.Generate(seed, 40))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			checkBlockVsStep(t, oracle.Case{Image: c.Image})
			t.Run("armed", func(t *testing.T) { checkBlockVsStep(t, c) })
		})
	}
}

// rewriteMidRunSource loops 64 times over a straight-line run. In every
// even iteration it rewrites the imm32 of Q ("add edx, imm") and then of P
// ("add ebx, imm", in the middle of the run that starts at loop), Q first,
// so that Q's re-decode, right after the stores, reuses P's dropped decode.
// A link left in P's predecessor would then run Q in P's place; a reused
// decode that kept its free-list link as succ would, in the next odd
// iteration, run a dropped decode after Q. It prints ebx and edx.
const rewriteMidRunSource = `
main:
    mov ecx, 64
    xor ebx, ebx
    xor edx, edx
loop:
    mov eax, ecx
    add ebx, eax
patch:
    add ebx, 0x01010101
    add ebx, eax
    test ecx, 1
    jnz skip
    mov [qpatch+2], ecx
    mov [patch+2], eax
skip:
    add edx, ebx
qpatch:
    add edx, 0x02020202
    xor edx, ecx
    dec ecx
    jnz loop
    mov eax, 3
    int 0x80
    mov eax, 2
    mov ebx, 32
    int 0x80
    mov ebx, edx
    mov eax, 3
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
`

// TestBlockVsStepRewriteMidRun runs rewriteMidRunSource through the block
// runner and one Step at a time, natively and under the runtime, and
// requires both to print what the loop's arithmetic gives.
func TestBlockVsStepRewriteMidRun(t *testing.T) {
	img, err := image.Assemble("rewrite", rewriteMidRunSource)
	if err != nil {
		t.Fatal(err)
	}
	checkBlockVsStep(t, oracle.Case{Name: "rewrite", Image: img})
	var ebx, edx uint32
	p, q := uint32(0x01010101), uint32(0x02020202)
	for ecx := uint32(64); ecx > 0; ecx-- {
		ebx += ecx + p + ecx
		if ecx&1 == 0 {
			q, p = ecx, ecx
		}
		edx = (edx + ebx + q) ^ ecx
	}
	for _, stepOnly := range []bool{false, true} {
		e, err := runEndpoint(oracle.Case{Image: img}, nil, stepOnly)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := e.State.Output, fmt.Sprintf("%d %d", ebx, edx); got != want {
			t.Errorf("stepOnly=%v: output %q, want %q", stepOnly, got, want)
		}
	}
}
