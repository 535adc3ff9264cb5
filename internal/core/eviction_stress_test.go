package core_test

// Eviction stress: simulated threads thrashing tiny thread-private caches,
// and Go-level concurrency over the same runtime code. The first test drives
// multiple simulated threads whose private caches are far too small for
// their working sets, so evictions happen constantly while threads make
// interleaved progress. The second runs many independent runtimes in
// parallel goroutines over shared workload images and requires bit-identical
// statistics — under `go test -race` (the CI race job) it is the regression
// test for any shared mutable state on the dispatch path.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// stressWorkers is the number of spawned simulated threads (plus main).
const stressWorkers = 3

// stressSource builds a shared-nothing multithreaded program: each worker
// walks a long chain of distinct code chunks calling per-thread helpers
// (rets populate the IBL hashtable) and accumulates a checksum, looping many
// times so the chain is rebuilt repeatedly once the cache is too small to
// hold it. Workers publish results to private words; only main prints, in a
// fixed order after joining, so output is deterministic regardless of how
// thread interleaving differs between native and cached runs.
func stressSource() string {
	var sb strings.Builder
	sb.WriteString("main:\n")
	for w := 0; w < stressWorkers; w++ {
		fmt.Fprintf(&sb, `
    mov eax, 5
    mov ebx, worker%d
    mov ecx, %#x
    int 0x80
`, w, 0x00300000+0x40000*(w+1))
	}
	// Join: spin until every worker has set its done flag.
	for w := 0; w < stressWorkers; w++ {
		fmt.Fprintf(&sb, `
join%d:
    mov eax, [done%d]
    test eax, eax
    jz join%d
`, w, w, w)
	}
	// Print each worker's checksum, then exit.
	for w := 0; w < stressWorkers; w++ {
		fmt.Fprintf(&sb, `
    mov eax, 3
    mov ebx, [result%d]
    int 0x80
    mov eax, 2
    mov ebx, 10
    int 0x80
`, w)
	}
	sb.WriteString(`
    mov eax, 1
    mov ebx, 0
    int 0x80
`)
	const chunks = 20
	for w := 0; w < stressWorkers; w++ {
		fmt.Fprintf(&sb, `
worker%d:
    mov esi, 0
    mov edi, 40
outer%d:
`, w, w)
		// A chain of distinct chunks: each is its own basic block (the call
		// ends it), so one iteration touches ~chunks fragments per thread.
		for c := 0; c < chunks; c++ {
			fmt.Fprintf(&sb, `
chunk%d_%d:
    add esi, %d
    rol esi, 1
    call helper%d
`, w, c, w*131+c*17+1, w)
		}
		fmt.Fprintf(&sb, `
    dec edi
    jnz outer%d
    mov [result%d], esi
    mov dword [done%d], 1
    mov eax, 1
    mov ebx, 0
    int 0x80
helper%d:
    xor esi, %d
    ret
`, w, w, w, w, 0x5A5A+w)
	}
	// Private result/flag words, one cache line apart.
	sb.WriteString("\n.org 0xA000\n")
	for w := 0; w < stressWorkers; w++ {
		fmt.Fprintf(&sb, "result%d: .word 0\n.org %#x\ndone%d: .word 0\n.org %#x\n",
			w, 0xA040+w*0x80, w, 0xA080+w*0x80)
	}
	return sb.String()
}

// TestEvictionStressMultiThread thrashes tiny thread-private caches from
// several simulated threads at once and checks transparency plus the full
// structural invariants on every thread's context afterwards.
func TestEvictionStressMultiThread(t *testing.T) {
	img := imgOf(t, stressSource())

	native := machine.New(machine.PentiumIV())
	img.Boot(native)
	if err := native.Run(oracle.RunLimit); err != nil {
		t.Fatalf("native: %v", err)
	}

	for _, budget := range []int{256, 1024} {
		budget := budget
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			t.Parallel()
			o := core.Default()
			o.BBCacheSize, o.TraceCacheSize = budget, budget
			m := machine.New(machine.PentiumIV())
			r := core.New(m, img, o, nil)
			if err := r.Run(oracle.RunLimit); err != nil {
				t.Fatal(err)
			}
			if len(m.Threads) != stressWorkers+1 {
				t.Fatalf("threads = %d, want %d", len(m.Threads), stressWorkers+1)
			}
			for _, th := range m.Threads {
				if !th.Halted {
					t.Errorf("thread %d did not halt", th.ID)
				}
				if ctx := r.ContextOf(th); ctx != nil {
					if err := ctx.CheckCacheInvariants(); err != nil {
						t.Errorf("thread %d: %v", th.ID, err)
					}
				}
			}
			if got, want := string(m.Output), string(native.Output); got != want {
				t.Errorf("output diverged:\n got %q\nwant %q", got, want)
			}
			if r.Stats.Evictions == 0 {
				t.Error("no evictions under a thrashing-sized cache")
			}
		})
	}
}

// TestEvictionStatsDeterminism runs the same benchmark under the same
// pressured configuration from many goroutines at once. Per-run state must
// be confined to its own machine and runtime, so every run's statistics are
// bit-identical; a data race on a dispatch-path counter (or any shared
// mutable state behind the workload images) shows up here as a diff — or,
// under the race detector, as a report.
func TestEvictionStatsDeterminism(t *testing.T) {
	b := workload.ByName("crafty")
	if b == nil {
		t.Fatal("crafty not in suite")
	}
	const runs = 8
	stats := make([]core.Stats, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := core.Default()
			o.BBCacheSize, o.TraceCacheSize = 1024, 1024
			m := machine.New(machine.PentiumIV())
			r := core.New(m, b.Image(), o, nil)
			if err := r.Run(oracle.RunLimit); err != nil {
				errs[i] = err
				return
			}
			stats[i] = r.Stats
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if stats[0].Evictions == 0 {
		t.Error("no evictions: determinism was not tested under cache pressure")
	}
	for i := 1; i < runs; i++ {
		if stats[i] != stats[0] {
			t.Errorf("run %d stats diverged:\n got %+v\nwant %+v", i, stats[i], stats[0])
		}
	}
}
