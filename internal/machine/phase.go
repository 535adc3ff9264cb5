package machine

import "repro/internal/obs"

// Phase accounting: attributing every simulated tick to the execution phase
// it was spent in (the paper's Section 4 overhead breakdown), plus the
// machine-side half of per-fragment profiling.
//
// The mechanism has two halves. Modeled runtime work arrives through
// Charge, which the runtime brackets with SetChargePhase around each
// mechanism (dispatch, block construction, eviction, ...). Executed
// instructions are attributed by *where they ran*: the runtime classifies
// its emitted code regions with MapCodeRange (fragment bodies, exit stubs,
// the indirect-branch lookup routines) at 16-byte granularity — fragments
// are 16-aligned — and Step looks the executing PC up in that
// map. The per-instruction tick delta, minus any in-window Charges (which
// carry their own phase), goes to the region's phase; unmapped PCs are
// native application code. Conservation — the phase ticks summing exactly
// to Ticks — holds by construction: every tick mutation is either a Charge
// or inside an instruction window.
//
// The same classification drives per-fragment counters: region entries
// carry a fragment id, and transitions between regions count fragment
// entries, exit-stub traversals, and lookup-routine hits without any
// instrumentation code in the cache (so profiling changes no emitted bytes,
// no digests, and no tick totals).

const (
	// granuleShift is the classification granularity: 16 bytes, the cache
	// allocator's fragment alignment.
	granuleShift = 4

	// Region-entry packing: fid<<9 | stubBit<<8 | phase.
	metaPhaseMask = 0xFF
	metaStubBit   = 0x100
	metaFidShift  = 9

	// fragSuppress marks "just trapped": the next cache instruction must
	// not count as a machine-observed fragment entry (the runtime counts
	// dispatcher-mediated entries itself, and a clean call's return into
	// the middle of a fragment is not an entry at all).
	fragSuppress = ^uint32(0)
)

// metaPage classifies one 64 KiB page of runtime code at 16-byte granules.
type metaPage [PageSize >> granuleShift]uint32

// phaseState is the machine's phase-accounting and fragment-profiling
// state, embedded in Machine and inert until EnablePhaseAccounting.
type phaseState struct {
	phaseOn    bool
	phaseTicks obs.PhaseTicks

	// chargePhase is the phase Charges are attributed to; the runtime
	// brackets its mechanisms with SetChargePhase.
	chargePhase obs.Phase
	// charged accumulates Charge ticks during the current instruction
	// window so they are not double-counted by the window delta.
	charged Ticks

	// codeMeta maps runtime-code pages to their granule classifications;
	// codeMetaMin fast-rejects application PCs below any mapped region.
	codeMeta    map[Addr]*metaPage
	codeMetaMin Addr
	metaPageIdx Addr // 1-entry lookup cache
	metaPage    *metaPage
	metaValid   bool

	// fragCounts is indexed by fragment id (AllocFragID; 0 is unused).
	fragCounts []obs.FragCounts

	// Transition-detection state: the region the previous instruction
	// executed in.
	curFrag       uint32
	curStub       bool
	lastExecPhase obs.Phase
}

// EnablePhaseAccounting turns on per-tick phase attribution and fragment
// profiling. It must be called before any ticks accrue for the conservation
// invariant (phase ticks sum == Ticks) to hold.
func (m *Machine) EnablePhaseAccounting() {
	m.phaseOn = true
	m.chargePhase = obs.PhaseDispatch
	m.lastExecPhase = obs.PhaseContextSwitch
	m.curFrag = fragSuppress
	if m.codeMeta == nil {
		m.codeMeta = map[Addr]*metaPage{}
		m.codeMetaMin = ^Addr(0)
		m.fragCounts = make([]obs.FragCounts, 1) // id 0 unused
	}
}

// PhaseAccounting reports whether phase attribution is on.
func (m *Machine) PhaseAccounting() bool { return m.phaseOn }

// PhaseTicks returns the per-phase tick breakdown.
func (m *Machine) PhaseTicks() obs.PhaseTicks { return m.phaseTicks }

// SetChargePhase sets the phase subsequent Charge calls are attributed to
// and returns the previous one, for bracket-style restore. Cheap and valid
// even when accounting is off.
func (m *Machine) SetChargePhase(p obs.Phase) obs.Phase {
	prev := m.chargePhase
	m.chargePhase = p
	return prev
}

// AllocFragID allocates a stable fragment-profile id. Ids survive eviction
// and rebuild of the fragment they profile: the runtime allocates one per
// fragment identity, not per emission, so the counters accumulate across
// the fragment's whole lifetime.
func (m *Machine) AllocFragID() uint32 {
	if !m.phaseOn {
		return 0
	}
	m.fragCounts = append(m.fragCounts, obs.FragCounts{})
	id := uint32(len(m.fragCounts) - 1)
	if id >= fragSuppress>>metaFidShift {
		panic("machine: fragment profile ids exhausted")
	}
	return id
}

// FragCounts returns the machine-side counters of a fragment id.
func (m *Machine) FragCounts(fid uint32) obs.FragCounts {
	if !m.phaseOn || fid == 0 || int(fid) >= len(m.fragCounts) {
		return obs.FragCounts{}
	}
	return m.fragCounts[fid]
}

// FragEntered counts one dispatcher-mediated entry into a fragment (the
// runtime calls it when it re-enters the cache; link- and IBL-mediated
// entries are observed by the machine itself as region transitions).
func (m *Machine) FragEntered(fid uint32) {
	if m.phaseOn && fid != 0 && int(fid) < len(m.fragCounts) {
		m.fragCounts[fid].Execs++
	}
}

// MapCodeRange classifies the granules overlapping [start, end) as runtime
// code of the given phase, owned by fragment fid (0 = none), with stub
// marking the fragment's exit-stub area. Later mappings overwrite earlier
// ones, which is exactly right for cache memory reuse.
func (m *Machine) MapCodeRange(start, end Addr, p obs.Phase, fid uint32, stub bool) {
	if !m.phaseOn || end <= start {
		return
	}
	if start < m.codeMetaMin {
		m.codeMetaMin = start
	}
	entry := uint32(p) | fid<<metaFidShift
	if stub {
		entry |= metaStubBit
	}
	for g := start >> granuleShift; g <= (end-1)>>granuleShift; g++ {
		pg := g >> (pageShift - granuleShift)
		page := m.codeMeta[pg]
		if page == nil {
			page = &metaPage{}
			m.codeMeta[pg] = page
			m.metaValid = false // the lookup cache may hold this page's nil
		}
		page[g&(PageSize>>granuleShift-1)] = entry
	}
}

// classifyExec returns the phase, fragment id and stub flag of the code at
// pc. Unmapped addresses are native application code.
func (m *Machine) classifyExec(pc Addr) (obs.Phase, uint32, bool) {
	if pc < m.codeMetaMin {
		return obs.PhaseAppNative, 0, false
	}
	pg := pc >> pageShift
	if !m.metaValid || pg != m.metaPageIdx {
		m.metaPage, m.metaPageIdx, m.metaValid = m.codeMeta[pg], pg, true
	}
	if m.metaPage == nil {
		return obs.PhaseAppNative, 0, false
	}
	e := m.metaPage[pc&(PageSize-1)>>granuleShift]
	if e == 0 {
		return obs.PhaseAppNative, 0, false
	}
	return obs.Phase(e & metaPhaseMask), e >> metaFidShift, e&metaStubBit != 0
}

// noteTrap records a transfer out of simulated execution into a runtime
// trap handler: the transition tracker is reset so the next cache
// instruction is not miscounted as a link- or IBL-mediated fragment entry.
func (m *Machine) noteTrap() {
	m.curFrag = fragSuppress
	m.curStub = false
	m.lastExecPhase = obs.PhaseContextSwitch
}

// attribute charges one executed instruction's tick window to the phase of
// the code region at pc, updating the owning fragment's counters. delta is
// the window's tick delta minus in-window Charges, which carry their own
// phase.
func (m *Machine) attribute(pc Addr, delta Ticks) {
	ph, fid, stub := m.classifyExec(pc)
	// The per-instruction interpretation overhead (ModeEmulate) is
	// dispatcher work, not application work.
	if over := m.PerInstrOverhead; over > 0 && over <= delta {
		m.phaseTicks[obs.PhaseDispatch] += uint64(over)
		delta -= over
	}
	m.phaseTicks[ph] += uint64(delta)

	if fid != 0 && fid != fragSuppress && int(fid) < len(m.fragCounts) {
		fc := &m.fragCounts[fid]
		fc.Ticks += uint64(delta)
		if stub {
			if m.curFrag != fid || !m.curStub {
				fc.StubWalks++
			}
		} else if m.curFrag != fid || m.curStub {
			if m.curFrag != fragSuppress {
				fc.Execs++
				if m.lastExecPhase == obs.PhaseIBLLookup {
					fc.IBLHits++
				}
			}
		}
	}
	m.curFrag, m.curStub, m.lastExecPhase = fid, stub, ph
}
