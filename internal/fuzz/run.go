package fuzz

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/machine"
	"repro/internal/oracle"
)

// Configs returns the four-column matrix every generated program runs under:
// the full default runtime, FIFO-evicting 4 KiB caches, the fixed-size IBL
// table (adaptive growth off), and flag-save elision off. The last column
// doubles as the ablation oracle: a mismatch that appears in the elision-on
// columns but not here is localized to the elision machinery.
func Configs() []oracle.Config {
	with := func(mod func(*core.Options)) func() core.Options {
		return func() core.Options {
			o := core.Default()
			mod(&o)
			return o
		}
	}
	return []oracle.Config{
		{Name: "default", Opts: core.Default},
		{Name: "4k", Opts: with(func(o *core.Options) { o.BBCacheSize, o.TraceCacheSize = 4<<10, 4<<10 })},
		{Name: "ibl-fixed", Opts: with(func(o *core.Options) { o.IBL, o.IBLTableBits = core.IBLOpenFixed, 6 })},
		{Name: "noelide", Opts: with(func(o *core.Options) { o.FlagsElision = false })},
	}
}

// Case renders and assembles the program as a differential case whose every
// run, native or under the runtime, arms the guard page identically.
func Case(p *Prog) (oracle.Case, error) {
	name := fmt.Sprintf("fuzz-%d", p.Seed)
	img, err := image.Assemble(name, Render(p))
	if err != nil {
		return oracle.Case{}, fmt.Errorf("seed %d: %w", p.Seed, err)
	}
	return oracle.Case{Name: name, Image: img, Setup: func(m *machine.Machine) {
		m.Mem.Protect(GuardPage, GuardPage+0x1000, machine.ProtNoRead|machine.ProtNoWrite)
	}}, nil
}

// Coverage is the matrix's confinement check: elision never runs in the
// noelide column, so a mismatch localized there cannot be elision-caused,
// and it does run in the other columns.
func Coverage(outs []oracle.Outcome) error {
	var elided uint64
	for _, o := range outs {
		e := o.Stats.FlagsElisions + o.Stats.InlineChecksElided
		if o.Config == "noelide" && e != 0 {
			return fmt.Errorf("%s: elision ran in the noelide column", o.Case)
		}
		elided += e
	}
	if elided == 0 {
		return errors.New("no flag-save elision anywhere: the elision columns are vacuous")
	}
	return nil
}

// Diverges reports whether p fails under configs — the shrinker's predicate.
// A program that does not assemble does not count as failing.
func Diverges(p *Prog, configs []oracle.Config) bool {
	c, err := Case(p)
	if err != nil {
		return false
	}
	outs, err := oracle.Diff(1, []oracle.Case{c}, configs, nil)
	return err == nil && slices.ContainsFunc(outs, func(o oracle.Outcome) bool { return o.Failure() != "" })
}
