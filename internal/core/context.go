package core

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/ia32"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Simulated-memory layout of the runtime's own state. Each thread owns a
// slice of the code cache region (thread-private basic block and trace
// caches) and a TLS block holding register spill slots, the
// indirect-branch-lookup hashtable, and the lookup routines themselves.
const (
	bbCacheBase    machine.Addr = 0xC0000000
	traceCacheBase machine.Addr = 0xC8000000
	cacheStride    machine.Addr = 0x00200000 // 2 MiB per thread per cache

	tlsBase   machine.Addr = 0xD0000000
	tlsStride machine.Addr = 0x00020000

	// TLS offsets.
	offSpillEAX   = 0x00
	offSpillECX   = 0x04
	offSpillEDX   = 0x08
	offSpillEBX   = 0x0C
	offIBLDest    = 0x10
	offClientTLS  = 0x14
	offSpillSlots = 0x20 // 8 generic client spill slots (4 bytes each)
	numSpillSlots = 8

	offIBLTable  = 0x1000  // hashtable: entries of [tag u32, dest u32]
	offIBLCode   = 0x8000  // the lookup routines
	offLocalHeap = 0x10000 // thread-private client allocations

	// maxIBLTableBits bounds adaptive hashtable growth: 2^11 entries at 8
	// bytes each is 16 KiB, comfortably inside the [offIBLTable,
	// offIBLCode) reservation.
	maxIBLTableBits = 11

	// iblRoutineStride is the fixed spacing of the per-branch-type lookup
	// routines in the TLS code area. Re-emitting the routines after a
	// table resize rewrites them in place at the same addresses, so exits
	// linked to a routine never need re-patching.
	iblRoutineStride = 128
)

// iblEmptySlot marks an unoccupied IBL hashtable slot. It must be a value no
// application tag can take (it lies in trap space): address 0 is a legal
// application PC, and a zero sentinel would make a lookup of tag 0 hit an
// empty slot and jump to cache address 0 — escaping the cache entirely.
const iblEmptySlot = 0xFFFFFFFF

// RuntimeBase is the lowest runtime-reserved simulated address: everything
// below it is application memory. The differential tests digest [0,
// RuntimeBase) to compare application memory across cache configurations.
const RuntimeBase = bbCacheBase

// IsRuntimeAddress reports whether a simulated address belongs to the
// runtime's reserved regions (code caches, TLS, transparent allocations)
// rather than to the application. Client analyses use it to know that
// stores to such addresses cannot alias application memory.
func IsRuntimeAddress(a machine.Addr) bool { return a >= RuntimeBase }

// BranchType distinguishes the three kinds of indirect control transfer;
// each gets its own lookup routine copy (as in DynamoRIO), giving the
// hardware's last-target predictor a fighting chance.
type BranchType uint8

// Branch types.
const (
	BranchRet BranchType = iota
	BranchJmpInd
	BranchCallInd
	numBranchTypes
)

// Context is the per-thread runtime context: the opaque pointer passed to
// every client hook in the paper's Table 3 (here a concrete type, since Go
// has no need for the opacity).
type Context struct {
	rio    *RIO
	thread *machine.Thread

	tls machine.Addr

	// Thread-private fragment lookup (shared instance when the
	// SharedCache ablation is on).
	frags map[machine.Addr]*Fragment

	// Cache allocators (see eviction.go): thread-private, or the RIO's
	// one shared pair under the SharedCache ablation.
	bb    *cacheRegion
	trace *cacheRegion

	// evicted remembers tags whose fragments were evicted under capacity
	// pressure (one bit per FragmentKind), so that a rebuild is counted as
	// a regeneration — the signal driving adaptive cache sizing.
	evicted map[machine.Addr]uint8

	// inReplace is set while ReplaceFragment emits the new version: a
	// thread may still be executing old cache code then, so the allocator
	// must not reuse resident bytes.
	inReplace bool

	iblEntry  [numBranchTypes]machine.Addr
	iblPrefix [2]iblTargetPrefix // popfd form, elided (lea) form
	tableBase machine.Addr
	tableBits uint
	tableMask uint32

	// tableLive counts occupied hashtable slots (open addressing only):
	// the load-factor input to adaptive growth and the ceiling guard that
	// keeps probe chains finite in fixed-size tables.
	tableLive uint32

	// inlineRestores records each trace inline check's popfd/ECX-restore
	// pair during trace construction, so the flags-elision pass can rewrite
	// surviving hit paths after the client trace hooks have run.
	inlineRestores []inlineRestore

	// Trace-head bookkeeping.
	headCounter map[machine.Addr]int
	isHead      map[machine.Addr]bool

	// Trace selection mode state.
	selecting   bool
	selTags     []machine.Addr
	selUnlinked *Fragment // fragment whose exits are temporarily unlinked
	selSnapshot linkSnapshot

	// lastExit is the exit the dispatcher was last entered through.
	lastExit *Exit

	// Deferred fragment-deleted events, delivered at the next dispatcher
	// entry (the "safe point" of the paper's replacement scheme).
	pendingDeleted []*Fragment

	// clientTLS is the generic thread-local storage field for clients.
	clientTLS any

	// startTag is the first application target after thread creation.
	startTag machine.Addr

	// pendingSignals are intercepted signal handlers awaiting delivery at
	// the next safe point.
	pendingSignals []machine.Addr

	// sideline holds work queued by EnqueueSideline, run at the next
	// dispatcher entry.
	sideline []func(*Context)

	// detached marks a thread that has fallen back to native execution
	// after an unrecoverable internal failure; the runtime no longer
	// intercepts its control flow or signals.
	detached bool

	// Degradation-ladder state (recover.go): the thread's health level,
	// its consecutive-failure streak against the current level's retry
	// budget, the dispatch entry of the last failure (the cool-down
	// reference point), a dispatch-entry counter (the ladder's clock),
	// per-tag quarantine/backoff records, and the application PC a native
	// cool-down window resumes the dispatcher at.
	health        HealthLevel
	failStreak    int
	lastFailEntry uint64
	dispatchCount uint64
	quar          map[machine.Addr]*quarRecord
	windowResume  machine.Addr

	// localNext is the thread-private runtime heap bump pointer.
	localNext machine.Addr

	// profs is the per-fragment profile table (Options.Profile), keyed by
	// fragment identity and parallel to frags: profile records survive
	// eviction of the fragments they describe (see profile.go).
	profs map[fragProfKey]*fragProf

	// fromIBLMiss marks that the current dispatch was entered through the
	// IBL miss path, so the miss can be attributed to the fragment the
	// dispatcher resolves.
	fromIBLMiss bool

	// Native-window telemetry: the thread's retired-instruction count when
	// the current cool-down window started, observed as a window-length
	// sample at the dispatch entry that ends the window.
	windowStartInstret uint64
	windowActive       bool

	// Emission scratch, reused by every fragment build on this thread and
	// holding no pointer past the build: the fragment's bytes before they
	// are written to the cache, and the per-exit working state.
	emitCode  []byte
	emitExits []exitInfo
}

// Detached reports whether this thread has detached from the runtime and
// now runs natively.
func (c *Context) Detached() bool { return c.detached }

// fragmentAt finds the fragment whose emitted bytes contain the cache PC
// among the residents of the region the PC lies in: every fragment whose
// bytes are still reserved, live or dead-awaiting-reuse (a thread can fault
// inside replaced code it is still executing). Residents are pairwise
// disjoint, so at most one matches. Under SharedCache the regions are
// shared, so a fault inside a fragment another thread built translates too.
// Cold path: only walked on faults.
func (c *Context) fragmentAt(pc machine.Addr) *Fragment {
	for _, reg := range [...]*cacheRegion{c.bb, c.trace} {
		if pc < reg.base || pc >= reg.max {
			continue
		}
		for _, f := range reg.resident {
			if f.contains(pc) {
				return f
			}
		}
	}
	return nil
}

// Thread returns the simulated thread this context belongs to.
func (c *Context) Thread() *machine.Thread { return c.thread }

// RIO returns the owning runtime.
func (c *Context) RIO() *RIO { return c.rio }

// ClientTLS returns the client's thread-local storage field.
func (c *Context) ClientTLS() any { return c.clientTLS }

// SetClientTLS sets the client's thread-local storage field.
func (c *Context) SetClientTLS(v any) { c.clientTLS = v }

// TLSAddr returns the simulated address of the client-visible TLS word,
// usable as a memory operand in inserted code.
func (c *Context) TLSAddr() machine.Addr { return c.tls + offClientTLS }

// SpillSlotAddr returns the simulated address of generic client spill slot
// n (0-7). Inserted code can save a register there without touching
// application memory, as the paper's API provides.
func (c *Context) SpillSlotAddr(n int) machine.Addr {
	if n < 0 || n >= numSpillSlots {
		panic(fmt.Sprintf("core: spill slot %d out of range", n))
	}
	return c.tls + offSpillSlots + machine.Addr(n)*4
}

// SpillSlotOp returns a 32-bit memory operand addressing client spill slot
// n.
func (c *Context) SpillSlotOp(n int) ia32.Operand {
	return ia32.AbsMem(c.SpillSlotAddr(n))
}

// CleanCallSpillOp returns the memory operand a clean-call sequence must
// spill EAX to before loading the callback id; the runtime restores EAX
// from this slot when the callback runs.
func (c *Context) CleanCallSpillOp() ia32.Operand {
	return ia32.AbsMem(c.tls + offSpillEAX)
}

// IndirectSpillOp returns the memory operand holding the application's ECX
// inside the runtime's indirect-branch sequences. Client code extending
// those sequences (Section 4.3's dispatch chains) restores ECX from it.
func (c *Context) IndirectSpillOp() ia32.Operand {
	return ia32.AbsMem(c.tls + offSpillECX)
}

// AllocLocal reserves n bytes of thread-private runtime memory that does
// not interfere with the application (the paper's transparent thread-local
// allocation) and returns its simulated address.
func (c *Context) AllocLocal(n int) machine.Addr {
	a := c.localNext
	if a == 0 {
		a = c.tls + offLocalHeap
	}
	next := a + machine.Addr((n+7)&^7)
	if next > c.tls+tlsStride {
		panic("core: thread-local runtime heap exhausted")
	}
	c.localNext = next
	return a
}

// scratchAddr returns runtime-internal spill slot addresses.
func (c *Context) spillAddr(off machine.Addr) machine.Addr { return c.tls + off }

func (c *Context) spillOp(off machine.Addr) ia32.Operand {
	return ia32.AbsMem(c.tls + off)
}

// lookup finds the fragment for an application tag, preferring the trace
// that shadows a basic block. Fragments whose source code has been modified
// since they were copied are discarded (and rebuilt by the caller).
func (c *Context) lookup(tag machine.Addr) *Fragment {
	f := c.frags[tag]
	if f == nil {
		return nil
	}
	if c.stale(f) || (f.shadowedBy != nil && c.stale(f.shadowedBy)) {
		c.invalidateTag(tag)
		return nil
	}
	if f.shadowedBy != nil {
		return f.shadowedBy
	}
	return f
}

// stale reports whether any source page of f has been written since build.
func (c *Context) stale(f *Fragment) bool {
	for _, s := range f.spans {
		if c.rio.M.Mem.Gen(s.page) != s.gen {
			statInc(&c.rio.Stats.StaleFragments)
			return true
		}
	}
	return false
}

// invalidateTag discards the fragment chain registered for tag: all links
// in and out are severed, the lookup tables forget it, and deletion events
// are delivered at the next safe point. Cache memory is not reused here
// (dead code stays valid for any thread still inside it); the allocator
// reclaims the bytes at a later safe point.
func (c *Context) invalidateTag(tag machine.Addr) {
	f := c.frags[tag]
	if f == nil {
		return
	}
	r := c.rio
	txn := r.txnMark()
	r.txnPush(func() {
		// Roll FORWARD: an invalidation interrupted midway (a chaos point
		// inside the unlink walk) finishes rather than resurrects — the
		// source code is known stale, so the chain must die. killFragment
		// is idempotent on dead fragments.
		if cur := c.frags[tag]; cur != nil {
			for x := cur; x != nil; x = x.shadowedBy {
				c.killFragment(x)
			}
			delete(c.frags, tag)
			c.tableRemove(tag)
		}
	})
	for cur := f; cur != nil; cur = cur.shadowedBy {
		c.killFragment(cur)
	}
	delete(c.frags, tag)
	c.tableRemove(tag)
	if c.lastExit != nil && (c.lastExit.Owner == f || c.lastExit.Owner == f.shadowedBy) {
		c.lastExit = nil
	}
	r.txnCommit(txn)
}

// InvalidateRange discards every fragment built from code overlapping
// [start, end): the explicit cache-consistency interface for applications
// or clients that modify code (the moral equivalent of DynamoRIO's region
// flush). Granularity is the source page.
func (c *Context) InvalidateRange(start, end machine.Addr) int {
	if end <= start {
		return 0
	}
	firstPage := start &^ (machine.PageSize - 1)
	lastPage := (end - 1) &^ (machine.PageSize - 1)
	var victims []machine.Addr
	for tag, f := range c.frags {
		for cur := f; cur != nil; cur = cur.shadowedBy {
			hit := false
			for _, s := range cur.spans {
				if s.page >= firstPage && s.page <= lastPage {
					hit = true
					break
				}
			}
			if hit {
				victims = append(victims, tag)
				break
			}
		}
	}
	for _, tag := range victims {
		c.invalidateTag(tag)
	}
	return len(victims)
}

// register installs a fragment in the lookup table and the IBL hashtable.
func (c *Context) register(f *Fragment) {
	if old := c.frags[f.Tag]; old != nil && f.Kind == KindTrace && old.Kind == KindBasicBlock {
		old.shadowedBy = f
	} else {
		c.frags[f.Tag] = f
	}
	c.tableInsert(f.Tag, f.Entry)
}

// iblSlot returns the simulated address of hashtable slot i.
func (c *Context) iblSlot(i uint32) machine.Addr {
	return c.tableBase + machine.Addr(i)*8
}

// tableInsert writes a tag→cache-entry mapping into the indirect-branch
// lookup hashtable in simulated memory. The default organization is
// linear-probing open addressing, matching the probe walk the emitted lookup
// routines perform; IBLDirect (and SharedCache) keep the legacy
// single-slot direct-mapped table.
func (c *Context) tableInsert(tag, dest machine.Addr) {
	if !c.rio.Opts.LinkIndirect {
		return
	}
	mem := c.rio.M.Mem
	if !c.rio.usesIBLPrefix() {
		// Legacy direct-mapped: one slot per hash, last writer wins — a
		// collided prior entry misses to the dispatcher until re-inserted.
		slot := c.iblSlot(tag & c.tableMask)
		if cur := mem.Read32(slot); cur != iblEmptySlot && cur != tag {
			statInc(&c.rio.Stats.IBLCollisions)
		}
		mem.Write32(slot, tag)
		mem.Write32(slot+4, dest)
		// The chaos point sits after the write on purpose: an insert that
		// fires here has fully happened, so a rollback that forgets to
		// scrub it (MutateRollbackScrub) leaves a stale slot the
		// invariant audit must catch.
		c.rio.chaosPoint(chaos.SiteIBLInsert, tag)
		return
	}
	for {
		if c.tryTableInsert(tag, dest) {
			c.rio.chaosPoint(chaos.SiteIBLInsert, tag)
			return
		}
		// The table is at its load ceiling and cannot grow: evict the
		// entry nearest tag's home slot to bound the probe chains, then
		// retry (the backward-shift may have rearranged the chain).
		c.iblMakeRoom(tag)
	}
}

// tryTableInsert probes for tag and installs the mapping; false means a new
// entry was needed but the table is at its load ceiling (the caller must
// make room first).
func (c *Context) tryTableInsert(tag, dest machine.Addr) bool {
	mem := c.rio.M.Mem
	mask := c.tableMask
	capacity := mask + 1
	idx := tag & mask
	for probes := uint32(0); probes < capacity; probes++ {
		slot := c.iblSlot(idx)
		switch cur := mem.Read32(slot); cur {
		case tag:
			mem.Write32(slot+4, dest)
			return true
		case iblEmptySlot:
			// Cap the load factor at 3/4 when growth is unavailable:
			// open addressing needs empty slots to terminate both the
			// emitted probe walk and the Go-side probes.
			if c.tableLive >= capacity-capacity/4 && !c.canGrowIBL() {
				return false
			}
			mem.Write32(slot, tag)
			mem.Write32(slot+4, dest)
			c.tableLive++
			c.rio.hists.Observe(obs.MetricIBLProbeLen, uint64(probes))
			if probes > 0 {
				statInc(&c.rio.Stats.IBLCollisions)
				statMax(&c.rio.Stats.IBLMaxProbe, uint64(probes))
			}
			if 2*c.tableLive > capacity && c.canGrowIBL() {
				c.growIBLTable()
			}
			return true
		}
		idx = (idx + 1) & mask
	}
	return false
}

// iblMakeRoom evicts the occupied slot nearest tag's home position. The
// displaced target simply loses its fast path (its next indirect arrival
// context-switches and re-inserts) — the bounded-capacity analogue of the
// old direct-mapped clobber, but only under genuine occupancy pressure, not
// on any hash collision.
func (c *Context) iblMakeRoom(tag machine.Addr) {
	mem := c.rio.M.Mem
	idx := tag & c.tableMask
	for i := uint32(0); i <= c.tableMask; i++ {
		if cur := mem.Read32(c.iblSlot(idx)); cur != iblEmptySlot {
			c.tableRemove(cur)
			statInc(&c.rio.Stats.IBLReplaced)
			return
		}
		idx = (idx + 1) & c.tableMask
	}
}

// canGrowIBL reports whether the hashtable may double once more. A thread
// degraded to HealthFixedIBL (or below) has lost growth privileges: resize
// was implicated in its failures, so it runs on the fixed-size policy until
// it re-attaches.
func (c *Context) canGrowIBL() bool {
	return c.rio.Opts.IBL == IBLOpenAdaptive && c.tableBits < maxIBLTableBits &&
		c.health < HealthFixedIBL
}

// growIBLTable doubles the hashtable (Kistler & Franz's perpetual-adaptation
// argument: runtime data structures should track the profile as it grows):
// every live entry is rehashed under the new mask and the lookup routines
// are re-emitted in place — their fixed stride keeps the routine entry
// addresses stable, so no linked exit needs re-patching. The modeled cost,
// the Stats counter and the ring event mirror the code-cache resize
// protocol.
func (c *Context) growIBLTable() {
	r := c.rio
	mem := r.M.Mem
	oldCap := c.tableMask + 1
	type iblEntry struct{ tag, dest uint32 }
	entries := make([]iblEntry, 0, c.tableLive)
	for i := uint32(0); i < oldCap; i++ {
		slot := c.iblSlot(i)
		if tag := mem.Read32(slot); tag != iblEmptySlot {
			entries = append(entries, iblEntry{tag, mem.Read32(slot + 4)})
		}
	}
	newBits := c.tableBits + 1
	txn := r.txnMark()
	r.txnPush(func() {
		// Roll the resize FORWARD: rebuild deterministically at the new
		// size from the pre-collected entries (rolling back to the old
		// size would re-trip the growth condition on reinsertion). No
		// recursion: the live count fits the old capacity, under half the
		// new one.
		c.tableBits = newBits
		c.tableMask = 1<<newBits - 1
		c.clearIBLTable()
		for _, e := range entries {
			if !c.tryTableInsert(e.tag, e.dest) {
				panic("core: IBL rehash overflow")
			}
		}
		r.writeIBLRoutines(c)
	})
	c.tableBits = newBits
	c.tableMask = 1<<newBits - 1
	c.clearIBLTable()
	r.chaosPoint(chaos.SiteIBLResize, 0)
	for _, e := range entries {
		// Cannot recurse: the load factor just halved.
		if !c.tryTableInsert(e.tag, e.dest) {
			panic("core: IBL rehash overflow")
		}
	}
	r.writeIBLRoutines(c)
	r.M.Charge(costIBLResize)
	statInc(&r.Stats.IBLResizes)
	r.event(c.thread.ID, obs.Event{
		Type: obs.EvIBLResize, Old: int(oldCap), New: int(c.tableMask + 1),
	})
	r.txnCommit(txn)
}

// undoRegister reverses register(f): the fragment-map update and the IBL
// insert. prev is the tag's owner from before the registration.
func (c *Context) undoRegister(f *Fragment, prev *Fragment) {
	switch cur := c.frags[f.Tag]; {
	case cur == f:
		delete(c.frags, f.Tag)
		if prev != nil && prev != f && !prev.dead {
			c.frags[f.Tag] = prev
		}
	case cur != nil && cur.shadowedBy == f:
		cur.shadowedBy = nil
	}
	if c.rio.Opts.Mutation == MutateRollbackScrub {
		// Mutation-testing lever: deliberately forget the IBL scrub so the
		// post-rollback invariant audit has a real defect to catch (a slot
		// mapping the tag to the rolled-back fragment's entry).
		return
	}
	c.tableRemove(f.Tag)
	if prev != nil && !prev.dead {
		c.tableInsert(prev.Tag, prev.Entry)
	}
}

// clearIBLTable marks every slot of the current table span empty.
func (c *Context) clearIBLTable() {
	mem := c.rio.M.Mem
	for i := uint32(0); i <= c.tableMask; i++ {
		slot := c.iblSlot(i)
		mem.Write32(slot, iblEmptySlot)
		mem.Write32(slot+4, 0)
	}
	c.tableLive = 0
}

// tableRemove deletes tag's hashtable entry. Open addressing uses
// backward-shift deletion: entries after the hole that belong earlier in
// their probe chain slide back, so no tombstones are needed and the emitted
// probe walk stays valid. The work is proportional to the victim's probe
// chain, not the table size — eviction and flush scrub only the slots
// reachable from the evicted tags' chains.
func (c *Context) tableRemove(tag machine.Addr) {
	if !c.rio.Opts.LinkIndirect {
		return
	}
	mem := c.rio.M.Mem
	mask := c.tableMask
	if !c.rio.usesIBLPrefix() {
		slot := c.iblSlot(tag & mask)
		if mem.Read32(slot) == tag {
			mem.Write32(slot, iblEmptySlot)
			mem.Write32(slot+4, 0)
		}
		return
	}
	// Find tag within its probe chain.
	idx := tag & mask
	found := false
	for i := uint32(0); i <= mask; i++ {
		switch cur := mem.Read32(c.iblSlot(idx)); cur {
		case iblEmptySlot:
			return // chain ended: tag is not in the table
		case tag:
			found = true
		}
		if found {
			break
		}
		idx = (idx + 1) & mask
	}
	if !found {
		return
	}
	// Backward-shift: walk the cluster after the hole, moving down any
	// entry whose home position means the hole does not break its chain.
	hole := idx
	j := (hole + 1) & mask
	for i := uint32(0); i <= mask; i++ {
		cur := mem.Read32(c.iblSlot(j))
		if cur == iblEmptySlot {
			break
		}
		home := cur & mask
		if (j-home)&mask >= (j-hole)&mask {
			mem.Write32(c.iblSlot(hole), cur)
			mem.Write32(c.iblSlot(hole)+4, mem.Read32(c.iblSlot(j)+4))
			hole = j
		}
		j = (j + 1) & mask
	}
	mem.Write32(c.iblSlot(hole), iblEmptySlot)
	mem.Write32(c.iblSlot(hole)+4, 0)
	c.tableLive--
}
