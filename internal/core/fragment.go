package core

import (
	"fmt"
	"sort"

	"repro/internal/instr"
	"repro/internal/machine"
)

// FragmentKind distinguishes basic blocks from traces; the paper uses
// "fragment" for either.
type FragmentKind uint8

// Fragment kinds.
const (
	KindBasicBlock FragmentKind = iota
	KindTrace
)

func (k FragmentKind) String() string {
	if k == KindTrace {
		return "trace"
	}
	return "bb"
}

// ExitKind classifies a fragment exit.
type ExitKind uint8

// Exit kinds.
const (
	// ExitDirect is a direct branch to a known application tag,
	// linkable to the target fragment.
	ExitDirect ExitKind = iota
	// ExitIndirect leaves through an indirect branch: the target
	// application address is in the spilled-ECX convention. Linked form
	// jumps to the in-cache indirect-branch lookup routine; unlinked
	// form exits to the dispatcher.
	ExitIndirect
)

// Exit-class values stored on exit CTIs in an InstrList via
// instr.SetExitClass, telling emission how to wire each exit.
//
// ClassDirect exits target a known application tag. The indirect classes
// carry the branch type (so the right lookup-routine copy is used); the
// flags-pushed bit marks indirect exits taken from inside a trace's inline
// target check, where the application's eflags are already pushed on the
// stack and the stub must pop them first. ClassInternal marks CTIs the
// runtime emitted for its own plumbing (never exits).
const (
	ClassDirect uint8 = 0

	ClassIndirectRet  = 1 + uint8(BranchRet)
	ClassIndirectJmp  = 1 + uint8(BranchJmpInd)
	ClassIndirectCall = 1 + uint8(BranchCallInd)

	ClassFlagsPushedBit uint8 = 0x10

	ClassInternal uint8 = 0xFF
)

// ClassBranchType reports whether an exit class is indirect, and its branch
// type.
func ClassBranchType(c uint8) (BranchType, bool) {
	base := c &^ ClassFlagsPushedBit
	if c != ClassInternal && base >= 1 && base <= 3 {
		return BranchType(base - 1), true
	}
	return 0, false
}

// linkState describes how an exit is currently wired.
type linkState uint8

const (
	stateUnlinked   linkState = iota // exit goes through its stub to the dispatcher
	stateLinkedFrag                  // exit jumps straight to a fragment
	stateLinkedIBL                   // exit jumps to the indirect-branch lookup routine
)

// Exit is one way out of a fragment.
type Exit struct {
	Owner *Fragment
	Index int

	Kind       ExitKind
	BranchType BranchType   // for indirect exits
	TargetTag  machine.Addr // application target (ExitDirect only)

	// CTI patch location: the exit branch instruction in the cache.
	ctiAddr machine.Addr
	ctiLen  int

	// Stub location. The tail is the 15-byte spill/identify/trap sequence
	// that is overwritten with a direct jump when a via-stub exit is
	// linked, and restored when it is unlinked.
	stubAddr     machine.Addr
	stubTailAddr machine.Addr

	// viaStub routes control through the stub even when linked: set for
	// client-requested always-via-stub exits (Section 3.2) and for exits
	// with stub prefix code (custom stub instructions or the runtime's
	// flags-restoring popfd).
	viaStub bool

	state    linkState
	linkedTo *Fragment // valid in stateLinkedFrag

	// class is the exit-class byte the exit CTI carried at emission,
	// kept so DecodeFragment can reconstruct it.
	class uint8

	// clientStub and clientAlways preserve client-attached custom stub
	// code across fragment re-decoding.
	clientStub   *instr.List
	clientAlways bool

	// id is the linkstub identifier the stub loads into EAX before
	// trapping to the dispatcher.
	id uint32
}

// Fragment is a basic block or trace resident in the code cache.
type Fragment struct {
	Tag   machine.Addr
	Kind  FragmentKind
	Entry machine.Addr
	Size  int

	// BodyLen is the length of the fragment body (the code before the
	// exit stubs), needed to re-decode the fragment from the cache.
	BodyLen int

	// PrefixLen is the length of the IBL target prefix preceding the body
	// (0 when the open-address lookup is not in use). Entry is the prefix
	// start — only the lookup routine's hit path (via the hashtable) jumps
	// there; direct links and dispatcher entries use body(). The prefix
	// finishes the lookup's register/eflags restore, which lets a fragment
	// whose head rewrites all six arithmetic flags elide its popfd.
	PrefixLen int

	Exits []*Exit

	// inLinks are exits of other fragments currently linked to this one.
	inLinks map[*Exit]struct{}

	// shadowedBy points at the trace that replaced this basic block in
	// the lookup tables, if any.
	shadowedBy *Fragment

	// dead marks a fragment that was replaced or flushed and awaits the
	// deletion event at the next safe point.
	dead bool

	// spans records the application code pages this fragment was built
	// from, with their write-generations at build time. The dispatcher
	// validates them on lookup: a stale fragment (source code modified
	// since it was copied) is discarded and rebuilt — the cache
	// consistency mechanism for self-modifying code. Like the original
	// system's, it is dispatcher-mediated: transfers that stay inside
	// the cache (links, lookup-routine hits) do not revalidate; use
	// Context.InvalidateRange for explicit cross-modification.
	spans []srcSpan

	// xl8 is the fault-translation table, recorded at emit time: for every
	// cache offset, the application PC a fault there reports, and the
	// scratch state the translator must fold back into the context. Sorted
	// by offset; each entry covers [off, next.off).
	xl8 []xl8Entry

	// prof is this fragment identity's profile record (nil unless
	// Options.Profile); it outlives the fragment across evict/rebuild.
	prof *fragProf

	// birthEpoch is the owning region's eviction epoch when the fragment
	// was registered — the reference point for the
	// fragment-lifetime-in-epochs telemetry histogram.
	birthEpoch int

	ctx *Context // owning thread context
}

// xl8Entry maps one run of fragment bytes back to application state for
// precise fault reporting (the paper's Section 3.3.4 state translation).
type xl8Entry struct {
	off     uint32       // fragment-relative start of the run
	app     machine.Addr // application PC (0 = untranslatable: client/meta code)
	scratch uint8        // instr.Xl8* bits: spilled registers, pushed eflags
	ident   bool         // identity run (copied app code): app += pc - off
}

// translate maps a cache PC inside f back to the application PC whose
// native context a fault there corresponds to, plus the scratch-state bits
// needed to reconstruct it. ok is false for untranslatable bytes (meta or
// client-inserted code with no application equivalent).
func (f *Fragment) translate(pc machine.Addr) (app machine.Addr, scratch uint8, ok bool) {
	if pc < f.Entry || pc >= f.Entry+machine.Addr(f.Size) {
		return 0, 0, false
	}
	rel := uint32(pc - f.Entry)
	idx := sort.Search(len(f.xl8), func(i int) bool { return f.xl8[i].off > rel }) - 1
	if idx < 0 {
		return 0, 0, false
	}
	e := f.xl8[idx]
	if e.app == 0 {
		return 0, 0, false
	}
	if e.ident {
		return e.app + machine.Addr(rel-e.off), e.scratch, true
	}
	return e.app, e.scratch, true
}

// body returns the fragment body's cache address: where direct links and
// dispatcher entries land, skipping the IBL target prefix.
func (f *Fragment) body() machine.Addr {
	return f.Entry + machine.Addr(f.PrefixLen)
}

// contains reports whether a cache PC lies within f's emitted bytes
// (prefix, body and stubs).
func (f *Fragment) contains(pc machine.Addr) bool {
	return pc >= f.Entry && pc < f.Entry+machine.Addr(f.Size)
}

// srcSpan is one source page and its generation at fragment-build time.
type srcSpan struct {
	page machine.Addr
	gen  uint32
}

func (f *Fragment) String() string {
	return fmt.Sprintf("%s[tag=%#x entry=%#x size=%d exits=%d]",
		f.Kind, f.Tag, f.Entry, f.Size, len(f.Exits))
}

// Linked reports whether exit e currently bypasses the dispatcher.
func (e *Exit) Linked() bool { return e.state != stateUnlinked }

// Target returns the fragment this exit is linked to (nil if unlinked or
// linked to the lookup routine).
func (e *Exit) Target() *Fragment { return e.linkedTo }
