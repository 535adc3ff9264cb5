// Package chaos provides deterministic internal fault injection for the
// runtime's robustness testing: named injection sites at every fragile
// boundary (block build, mid-emit, trace extension, link/unlink, eviction
// scrub, IBL insert/resize/re-emit, fault translation, signal delivery),
// driven by seeded schedules of nth-hit and per-site probability triggers.
// The runtime consults an Injector at each site; a firing trigger makes the
// site panic, exercising the transactional rollback and degradation-ladder
// recovery paths. Everything is deterministic in the seed, so any failure a
// chaos run finds is replayable from (seed, trigger set) alone.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
)

// Site names one injection point in the runtime.
type Site uint8

// The chaos sites, one per fragile boundary.
const (
	// SiteDispatch fires at dispatcher entry, before any state is touched.
	SiteDispatch Site = iota
	// SiteBlockBuild fires during basic-block construction, after decode
	// but before emission.
	SiteBlockBuild
	// SiteEmit fires mid-emit: cache bytes allocated and written, nothing
	// registered yet.
	SiteEmit
	// SiteTraceExtend fires during trace selection/extension.
	SiteTraceExtend
	// SiteLink fires at fragment link entry.
	SiteLink
	// SiteUnlink fires at fragment unlink entry.
	SiteUnlink
	// SiteEvictScrub fires between a victim's unlinking and the lookup-table
	// scrub of FIFO eviction.
	SiteEvictScrub
	// SiteIBLInsert fires immediately after an IBL hashtable insert.
	SiteIBLInsert
	// SiteIBLResize fires mid-resize of the IBL hashtable, after the old
	// table is cleared and before the entries are rehashed.
	SiteIBLResize
	// SiteIBLReemit fires while the IBL lookup routines are re-emitted.
	SiteIBLReemit
	// SiteFaultXl8 fires during fault state translation.
	SiteFaultXl8
	// SiteSignal fires during deferred signal delivery, before the handler
	// is dequeued.
	SiteSignal

	// NumSites is the number of injection sites.
	NumSites
)

var siteNames = [NumSites]string{
	"dispatch", "block-build", "emit", "trace-extend", "link", "unlink",
	"evict-scrub", "ibl-insert", "ibl-resize", "ibl-reemit", "fault-xl8",
	"signal",
}

func (s Site) String() string {
	if s < NumSites {
		return siteNames[s]
	}
	return fmt.Sprintf("site-%d", uint8(s))
}

// ParseSite resolves a site name (as printed by String) back to its Site.
func ParseSite(name string) (Site, bool) {
	for i, n := range siteNames {
		if n == name {
			return Site(i), true
		}
	}
	return NumSites, false
}

// AllSites returns every injection site.
func AllSites() []Site {
	out := make([]Site, NumSites)
	for i := range out {
		out[i] = Site(i)
	}
	return out
}

// Trigger is one firing rule of a schedule. Nth > 0 selects hit-count mode:
// the trigger fires on every hit of Site from the Nth on, until MaxFires is
// reached. Nth == 0 selects probability mode: each hit fires with
// probability Prob. MaxFires <= 0 means one fire.
type Trigger struct {
	Site     Site    `json:"site"`
	Nth      uint64  `json:"nth,omitempty"`
	Prob     float64 `json:"prob,omitempty"`
	MaxFires int     `json:"maxFires,omitempty"`
}

func (t Trigger) String() string {
	max := t.MaxFires
	if max <= 0 {
		max = 1
	}
	if t.Nth > 0 {
		return fmt.Sprintf("%s@nth=%d x%d", t.Site, t.Nth, max)
	}
	return fmt.Sprintf("%s@p=%.3f x%d", t.Site, t.Prob, max)
}

// Injector evaluates a trigger schedule deterministically. The runtime is
// single-goroutine, so firing order (and hence every rng draw) is a pure
// function of the seed and the program; the mutex only protects concurrent
// snapshot readers (harness progress displays) from racing the counters.
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	triggers []trigState
	hits     [NumSites]uint64
	fires    [NumSites]uint64
	total    uint64
}

type trigState struct {
	Trigger
	fired int
}

// NewInjector builds an injector for one run from a seed and trigger set.
// Injectors hold per-run counters and must not be shared across runs.
func NewInjector(seed int64, triggers []Trigger) *Injector {
	in := &Injector{rng: rand.New(rand.NewSource(seed))}
	for _, t := range triggers {
		in.triggers = append(in.triggers, trigState{Trigger: t})
	}
	return in
}

// Fire records a hit at site and reports whether a trigger fires on it.
func (in *Injector) Fire(site Site) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hits[site]++
	hit := in.hits[site]
	for i := range in.triggers {
		t := &in.triggers[i]
		if t.Site != site {
			continue
		}
		max := t.MaxFires
		if max <= 0 {
			max = 1
		}
		if t.fired >= max {
			continue
		}
		fire := false
		if t.Nth > 0 {
			fire = hit >= t.Nth
		} else {
			fire = in.rng.Float64() < t.Prob
		}
		if fire {
			t.fired++
			in.fires[site]++
			in.total++
			return true
		}
	}
	return false
}

// Hits returns the per-site hit counts so far.
func (in *Injector) Hits() [NumSites]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits
}

// Fires returns the per-site fire counts so far.
func (in *Injector) Fires() [NumSites]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fires
}

// TotalFires returns how many injections have fired.
func (in *Injector) TotalFires() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total
}

// Exhausted reports whether every trigger has reached its fire cap: no
// further injection can occur, so the run's tail is failure-free.
func (in *Injector) Exhausted() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.triggers {
		t := &in.triggers[i]
		max := t.MaxFires
		if max <= 0 {
			max = 1
		}
		if t.fired < max {
			return false
		}
	}
	return true
}

// FiresByName returns the nonzero per-site fire counts keyed by site name
// (the JSON-friendly form the harness reports).
func (in *Injector) FiresByName() map[string]uint64 {
	fires := in.Fires()
	out := map[string]uint64{}
	for i, n := range fires {
		if n > 0 {
			out[Site(i).String()] = n
		}
	}
	return out
}

// Schedule derives a deterministic trigger set from a seed over the given
// sites: per site, one nth-hit trigger with a small hit index and, with
// probability one half, an additional low-probability trigger. Total fires
// are bounded, so every schedule eventually goes quiet and lets the
// degradation ladder's cool-down re-attach logic run.
func Schedule(seed int64, sites []Site) []Trigger {
	rng := rand.New(rand.NewSource(seed))
	var out []Trigger
	for _, s := range sites {
		out = append(out, Trigger{
			Site:     s,
			Nth:      uint64(1 + rng.Intn(6)),
			MaxFires: 1 + rng.Intn(2),
		})
		if rng.Float64() < 0.5 {
			out = append(out, Trigger{
				Site:     s,
				Prob:     0.005 + 0.02*rng.Float64(),
				MaxFires: 1 + rng.Intn(2),
			})
		}
	}
	return out
}

// Storm returns an aggressive schedule: repeated early failures on the
// construction sites, enough to exhaust the per-level retry budget several
// times over and drive a thread down the full degradation ladder to
// interpret-only — after which the triggers exhaust, the thread cools down
// and must re-attach.
func Storm(seed int64) []Trigger {
	rng := rand.New(rand.NewSource(seed))
	return []Trigger{
		{Site: SiteBlockBuild, Nth: uint64(1 + rng.Intn(3)), MaxFires: 10},
		{Site: SiteEmit, Nth: uint64(2 + rng.Intn(4)), MaxFires: 4},
	}
}

// FormatTriggers renders a trigger set compactly for logs.
func FormatTriggers(ts []Trigger) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}
