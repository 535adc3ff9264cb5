package fuzz

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A corpus entry is one shrunk, seed-pinned repro: the exact program (not
// just the seed, so generator evolution cannot silently change what the
// entry tests), the mismatch it produced, and whether reproducing it needs
// the mutation-testing lever. Entries live as JSON files under
// testdata/corpus and replay as deterministic regression tests.

// Entry is one stored repro.
type Entry struct {
	Name     string `json:"name"`
	Note     string `json:"note,omitempty"`
	Config   string `json:"config"`   // matrix column that diverged
	Mismatch string `json:"mismatch"` // oracle description at capture time
	// FlagsDeadMutant marks an entry that diverges only under the
	// intentionally injected elision bug (core.MutateFlagsDead): replay
	// asserts it matches with stock options and mismatches with the lever
	// on — the regression test that the oracle still catches the mutation.
	FlagsDeadMutant bool `json:"force_flags_dead,omitempty"`
	Prog            Prog `json:"prog"`
}

// WriteEntry stores e as <dir>/<name>.json, creating dir if needed.
func WriteEntry(dir string, e *Entry) error {
	if e.Name == "" {
		return fmt.Errorf("fuzz: corpus entry needs a name")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, e.Name+".json"), append(raw, '\n'), 0o644)
}

// LoadCorpus reads every *.json entry under dir, sorted by name. A missing
// directory is an empty corpus, not an error.
func LoadCorpus(dir string) ([]*Entry, error) {
	des, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []*Entry
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return nil, err
		}
		var e Entry
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("fuzz: corpus %s: %w", de.Name(), err)
		}
		if e.Name == "" {
			e.Name = strings.TrimSuffix(de.Name(), ".json")
		}
		out = append(out, &e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
