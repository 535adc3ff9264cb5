package fuzz

import (
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
)

// corpusDir is the committed repro corpus, relative to this package.
const corpusDir = "testdata/corpus"

// forcedElision is the mutation-testing lever applied to the matrix: it makes
// flag-save elision unsound in every configuration that has elision enabled.
func forcedElision() []oracle.Config {
	configs := Configs()
	for i := range configs {
		opts := configs[i].Opts
		configs[i].Opts = func() core.Options {
			o := opts()
			o.Mutation = core.MutateFlagsDead
			return o
		}
	}
	return configs
}

// diff runs programs natively and under configs through the engine.
func diff(t *testing.T, configs []oracle.Config, progs ...*Prog) []oracle.Outcome {
	t.Helper()
	cases := make([]oracle.Case, len(progs))
	for i, p := range progs {
		c, err := Case(p)
		if err != nil {
			t.Fatal(err)
		}
		cases[i] = c
	}
	outs, err := oracle.Diff(0, cases, configs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// firstFailure returns the first failing outcome, or nil.
func firstFailure(outs []oracle.Outcome) *oracle.Outcome {
	for i := range outs {
		if outs[i].Failure() != "" {
			return &outs[i]
		}
	}
	return nil
}

func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		a, b := Generate(seed, 40), Generate(seed, 40)
		if Render(a) != Render(b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
	if Render(Generate(1, 40)) == Render(Generate(2, 40)) {
		t.Fatal("different seeds rendered identically")
	}
}

func TestGeneratedProgramShape(t *testing.T) {
	// Every generated program must exercise the indirect machinery the
	// matrix is built to stress.
	for seed := int64(1); seed <= 10; seed++ {
		p := Generate(seed, 40)
		kinds := map[string]bool{}
		var walk func(ss []Stmt)
		walk = func(ss []Stmt) {
			for _, s := range ss {
				kinds[s.Kind] = true
				walk(s.Body)
				for _, c := range s.Cases {
					walk(c)
				}
			}
		}
		walk(p.Body)
		for _, want := range []string{"loop", "icall", "dispatch"} {
			if !kinds[want] {
				t.Errorf("seed %d: generated body has no %q statement", seed, want)
			}
		}
		if p.Outer <= 50 {
			t.Errorf("seed %d: outer count %d not past the trace threshold", seed, p.Outer)
		}
	}
}

// TestDifferentialSmoke runs seeded programs across the full four-column
// matrix; every program must be bit-identical to native everywhere, with
// elision confined to its columns. The CI smoke step runs the larger
// 200-seed suite through drbench -diff fuzz.
func TestDifferentialSmoke(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	progs := make([]*Prog, n)
	for i := range progs {
		progs[i] = Generate(int64(i+1), 40)
	}
	outs := diff(t, Configs(), progs...)
	if len(outs) != n*len(Configs()) {
		t.Fatalf("got %d outcomes, want %d", len(outs), n*len(Configs()))
	}
	for _, o := range outs {
		if f := o.Failure(); f != "" {
			t.Errorf("%s under %s: %s", o.Case, o.Config, f)
		}
	}
	if err := Coverage(outs); err != nil {
		t.Error(err)
	}
}

// TestCorpusReplay replays every committed repro through the full
// configuration matrix: each entry must match native with stock options, and
// entries marked force_flags_dead must still diverge when the mutation lever
// is armed — while the elision-off column stays clean, localizing the
// divergence to the elision machinery.
func TestCorpusReplay(t *testing.T) {
	entries, err := LoadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("corpus is empty; expected at least the forced-elision repro")
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			if o := firstFailure(diff(t, Configs(), &e.Prog)); o != nil {
				t.Fatalf("stock runtime failed under %s: %s", o.Config, o.Failure())
			}
			if !e.FlagsDeadMutant {
				return
			}
			mutated := diff(t, forcedElision(), &e.Prog)
			if firstFailure(mutated) == nil {
				t.Fatal("mutation lever armed but no divergence: the repro lost its teeth")
			}
			for _, o := range mutated {
				if o.Config == "noelide" && !o.Match {
					t.Errorf("elision-off column diverged (%s): mismatch is not elision-caused", o.Mismatch)
				}
			}
		})
	}
}

// TestMutationForcedElisionCaught is the end-to-end mutation test: arming
// the intentionally injected elision bug on a pinned seed must produce a
// divergence, and the shrinker must reduce the program to a minimal repro
// that still fails.
func TestMutationForcedElisionCaught(t *testing.T) {
	const seed = 7 // known locally-diverging seed, pinned for determinism
	p := Generate(seed, 40)
	if firstFailure(diff(t, forcedElision(), p)) == nil {
		t.Fatal("forced-elision mutation not caught: the oracle is blind to stale eflags")
	}

	failing := func(q *Prog) bool { return Diverges(q, forcedElision()) }
	shrunk := Shrink(p, failing, 400)
	if !failing(shrunk) {
		t.Fatal("shrunk program no longer fails")
	}
	if got := shrunk.NumStmts(); got > 12 {
		t.Errorf("shrunk repro has %d statements, want <= 12", got)
	}
	if shrunk.NumStmts() >= p.NumStmts() {
		t.Errorf("shrinker made no progress: %d -> %d statements", p.NumStmts(), shrunk.NumStmts())
	}
	// The minimal repro must be sound under the stock runtime.
	if Diverges(shrunk, Configs()) {
		t.Error("shrunk repro diverges even without the mutation")
	}
}

// TestFaultingProgramsAgree pins the fault path: a seed whose program takes
// the guarded guard-page read must deliver the same fault sequence (kind,
// address, *native* EIP) everywhere.
func TestFaultingProgramsAgree(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p := Generate(seed, 40)
		if !p.Fault {
			continue
		}
		for _, o := range diff(t, Configs(), p) {
			if f := o.Failure(); f != "" {
				t.Errorf("seed %d: %s: %s", seed, o.Config, f)
			}
			if o.Faults == 0 {
				t.Errorf("seed %d under %s: fault site generated but no fault delivered", seed, o.Config)
			}
		}
		return
	}
	t.Fatal("no seed in 1..20 generated a fault site")
}

// FuzzDifferential is the Go-native fuzzing entry point: the input is a
// generator seed, the property is four-way bit-identity with native.
// Run with: go test -fuzz=FuzzDifferential ./internal/fuzz/
func FuzzDifferential(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		f.Add(seed)
	}
	if entries, err := LoadCorpus(corpusDir); err == nil {
		for _, e := range entries {
			f.Add(e.Prog.Seed)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if o := firstFailure(diff(t, Configs(), Generate(seed, 40))); o != nil {
			t.Errorf("seed %d failed under %s: %s", seed, o.Config, o.Failure())
		}
	})
}
