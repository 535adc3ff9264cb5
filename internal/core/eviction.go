package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Cache capacity management (Section 6 of the paper).
//
// Every thread cache (basic-block and trace) is a circular buffer with a byte
// capacity: the budget from Options, or the whole cacheStride reservation
// when the budget is 0. Allocation bumps a pointer through [base, limit), and
// when the pointer runs into resident code the oldest fragments are evicted
// to make room — FIFO replacement, which the paper reports matches cleverer
// policies at none of the profiling cost. Eviction fully unlinks the victim
// (outgoing links, incoming links, its IBL hashtable entry), restores
// trace-head state so the block can become hot and be rebuilt later, and
// hands the bytes back to the allocator for reuse.
//
// Adaptive sizing (Section 6.2) watches the ratio of regenerated fragments
// (rebuilds of previously evicted tags) to replaced fragments per epoch of
// resizeEpoch evictions: more than regenThreshold regenerations means the
// working set does not fit and the cache grows; fewer means the cache is
// comfortably cycling cold code and stays put.
const (
	resizeEpoch    = 32
	regenThreshold = 0.5
)

// cacheRegion is the allocator state of one thread cache (or, under the
// SharedCache ablation, of the one cache all threads share).
type cacheRegion struct {
	kind FragmentKind

	base  machine.Addr
	next  machine.Addr
	limit machine.Addr // base + current capacity
	max   machine.Addr // base + cacheStride: the address-reservation ceiling

	// resident holds every fragment whose bytes are still reserved in the
	// region — live or dead-awaiting-reuse. The allocator frees space by
	// reclaiming the nearest resident ahead of the bump pointer, which
	// under bump allocation is also the oldest: FIFO order without a queue.
	resident []*Fragment

	// top is a high-water mark: every resident ends at or below it, so an
	// allocation at or above top has no resident ahead of it.
	top machine.Addr

	// liveBytes is the aligned footprint of the non-dead residents; gauge
	// mirrors it for concurrent StatsSnapshot readers.
	liveBytes int
	gauge     atomic.Int64

	// Adaptive-sizing epoch counters.
	epochEvictions int
	epochRegens    int

	// totalEvictions counts evictions over the region's whole life; it
	// clocks the telemetry epoch (resizeEpoch evictions each) fragment
	// lifetimes are measured in.
	totalEvictions int
}

// epoch returns the region's current telemetry epoch.
func (reg *cacheRegion) epoch() int { return reg.totalEvictions / resizeEpoch }

// newRegion builds one cache's allocator state with a byte budget; 0 means
// the whole address reservation.
func newRegion(kind FragmentKind, base machine.Addr, budget int) *cacheRegion {
	capacity := machine.Addr((budget + 15) &^ 15)
	if capacity == 0 || capacity > cacheStride {
		capacity = cacheStride
	}
	return &cacheRegion{kind: kind, base: base, next: base, top: base,
		limit: base + capacity, max: base + cacheStride}
}

func (reg *cacheRegion) capacity() int { return int(reg.limit - reg.base) }

// addLive adjusts the live-byte accounting and publishes it to the gauge.
func (reg *cacheRegion) addLive(n int) {
	reg.liveBytes += n
	reg.gauge.Store(int64(reg.liveBytes))
}

// reset empties the region's allocator state (detach teardown).
func (reg *cacheRegion) reset() {
	reg.next = reg.base
	reg.top = reg.base
	reg.resident = reg.resident[:0]
	reg.addLive(-reg.liveBytes)
}

// alignedSize is the cache footprint of a fragment: emitted bytes rounded up
// to the 16-byte allocation granularity.
func (f *Fragment) alignedSize() int { return (f.Size + 15) &^ 15 }

// Dead reports whether the fragment has been invalidated, flushed, replaced
// or evicted and awaits (or is past) its deletion event.
func (f *Fragment) Dead() bool { return f.dead }

// region returns the allocator state for a fragment kind.
func (c *Context) region(kind FragmentKind) *cacheRegion {
	if kind == KindTrace {
		return c.trace
	}
	return c.bb
}

// evictedEvent and resizedEvent are deferred client notifications, delivered
// at the next dispatcher safe point alongside fragment-deleted events.
type evictedEvent struct {
	tag  machine.Addr
	kind FragmentKind
}

type resizedEvent struct {
	kind     FragmentKind
	oldBytes int
	newBytes int
}

// allocCache reserves n bytes in the basic-block or trace cache, evicting
// the oldest resident fragments as needed. Reuse is safe because fragment
// construction only happens from the dispatcher, when the thread is outside
// the code cache. Two callers may not reuse resident bytes, because a thread
// may be executing them: a replacement in flight (inReplace) and the
// SharedCache ablation (another thread may be inside any fragment). Those
// jump past everything and grow the region instead.
func (c *Context) allocCache(kind FragmentKind, n int) machine.Addr {
	reg := c.region(kind)
	need := machine.Addr((n + 15) &^ 15)
	// A fragment larger than the whole budget forces a permanent grow: the
	// budget is a working-set target, not a correctness bound.
	if int(need) > reg.capacity() {
		c.growRegion(reg, int(need))
	}
	wrapped := false
	for {
		// The free run ahead of the bump pointer ends at the nearest
		// resident fragment, or at the region limit.
		obstacle := reg.nearestResident(reg.next)
		bound := reg.limit
		if obstacle != nil {
			bound = obstacle.Entry
		}
		if need <= bound-reg.next {
			a := reg.next
			reg.next += need
			return a
		}
		if obstacle != nil {
			if c.inReplace || c.rio.Opts.SharedCache {
				before := reg.capacity()
				reg.next = reg.limit
				c.growRegion(reg, before+int(need))
				if reg.capacity() == before {
					panic(fmt.Sprintf("core: %s cache reservation exhausted (thread %d, need %d bytes)",
						reg.kind, c.thread.ID, n))
				}
				continue
			}
			c.reclaim(reg, obstacle)
			continue
		}
		// Virgin tail too small: wrap to the base (the classic wasted
		// slot at the end of a circular cache).
		if wrapped {
			// A full lap without room means the region cannot hold the
			// fragment even when empty; the grow above prevents this
			// unless the address reservation itself is exhausted.
			panic(fmt.Sprintf("core: %s cache cannot place %d bytes (thread %d)",
				reg.kind, n, c.thread.ID))
		}
		wrapped = true
		reg.next = reg.base
	}
}

// nearestResident returns the resident fragment with the lowest entry at or
// above a, or nil. Bump allocation makes address order equal allocation
// order, so the nearest fragment ahead of the pointer is the oldest one
// still occupying space — the FIFO victim. Until the region first wraps the
// pointer sits at the high-water mark, and the answer is nil without a scan.
func (reg *cacheRegion) nearestResident(a machine.Addr) *Fragment {
	if a >= reg.top {
		return nil
	}
	var best *Fragment
	for _, f := range reg.resident {
		if f.Entry >= a && (best == nil || f.Entry < best.Entry) {
			best = f
		}
	}
	return best
}

// removeResident drops f from the region's resident set, reporting whether
// it was present.
func (reg *cacheRegion) removeResident(f *Fragment) bool {
	for i, r := range reg.resident {
		if r == f {
			last := len(reg.resident) - 1
			reg.resident[i] = reg.resident[last]
			reg.resident = reg.resident[:last]
			return true
		}
	}
	return false
}

// reclaim releases one resident fragment's bytes for reuse, evicting it
// first if it is still live. Any runtime pointer that could lead back into
// the reclaimed bytes (the dispatcher's last-exit record, the trace
// selector's unlinked fragment) is cleared. Eviction runs BEFORE residency
// is dropped: if an injected failure aborts the eviction midway, a live
// (partially unlinked) fragment that is still resident passes the invariant
// audit, while a live non-resident one would break the byte accounting.
func (c *Context) reclaim(reg *cacheRegion, f *Fragment) {
	if !f.dead {
		c.evict(f)
	}
	reg.removeResident(f)
	if c.lastExit != nil && c.lastExit.Owner == f {
		c.lastExit = nil
	}
	if c.selUnlinked == f {
		c.selUnlinked = nil
	}
	c.dropXl8(f)
}

// evict removes a live fragment from the cache under capacity pressure: the
// full deletion protocol plus the bookkeeping that lets the block come back
// cleanly — the lookup tables are scrubbed (restoring a shadowed basic
// block's mapping when a trace is evicted, or promoting a surviving trace
// when its head block is evicted), the trace-head counter is reset so the
// tag must re-earn trace creation, and the tag is remembered so a rebuild is
// counted as a regeneration.
func (c *Context) evict(f *Fragment) {
	r := c.rio
	prev := r.M.SetChargePhase(obs.PhaseEviction)
	defer r.M.SetChargePhase(prev)
	if r.spans != nil {
		spanStart := r.M.Now()
		defer r.span(c.thread.ID, "evict", spanStart, map[string]any{"tag": uint32(f.Tag), "kind": f.Kind.String()})
	}
	r.M.Charge(costEvict)
	txn := r.txnMark()
	r.txnPush(func() {
		// Roll FORWARD: a victim that died before the failure must also
		// leave the lookup structures (scrubEvicted is idempotent); one
		// that never died needs no repair — it is simply still live and
		// still resident.
		if f.dead {
			c.scrubEvicted(f)
		}
	})
	c.killFragment(f)
	r.chaosPoint(chaos.SiteEvictScrub, f.Tag)
	c.scrubEvicted(f)

	if c.evicted == nil {
		c.evicted = map[machine.Addr]uint8{}
	}
	c.evicted[f.Tag] |= 1 << f.Kind

	statInc(&r.Stats.Evictions)
	if f.prof != nil {
		f.prof.evictions++
	}
	r.event(c.thread.ID, obs.Event{
		Type: obs.EvEvict, Tag: uint32(f.Tag), Addr: uint32(f.Entry),
		Kind: f.Kind.String(), Size: f.Size,
	})
	c.pendingEvicted = append(c.pendingEvicted, evictedEvent{tag: f.Tag, kind: f.Kind})

	reg := c.region(f.Kind)
	r.hists.Observe(obs.MetricEvictScrubBytes, uint64(f.alignedSize()))
	r.hists.Observe(obs.MetricFragLifetimeEpochs,
		uint64(reg.epoch()-f.birthEpoch))
	reg.totalEvictions++
	reg.epochEvictions++
	if r.Opts.AdaptiveCache && reg.epochEvictions >= resizeEpoch {
		if float64(reg.epochRegens) > regenThreshold*float64(reg.epochEvictions) {
			c.growRegion(reg, 2*reg.capacity())
		}
		reg.epochEvictions, reg.epochRegens = 0, 0
	}
	r.spanCacheCounter(c)
	r.txnCommit(txn)
}

// scrubEvicted removes a killed eviction victim from the lookup structures:
// a shadowed basic block's mapping is restored when a trace dies, a
// surviving trace is promoted when its head block dies, and the trace-head
// counter resets so the tag must re-earn trace creation. Idempotent — the
// eviction repair path may run it after a partial scrub.
func (c *Context) scrubEvicted(f *Fragment) {
	switch owner := c.frags[f.Tag]; {
	case owner == f:
		if sh := f.shadowedBy; f.Kind == KindBasicBlock && sh != nil && !sh.dead {
			// The shadowing trace survives its head block's eviction and
			// now owns the tag outright (the IBL slot already maps to it).
			c.frags[f.Tag] = sh
		} else {
			delete(c.frags, f.Tag)
			c.tableRemove(f.Tag)
		}
	case owner != nil && owner.shadowedBy == f:
		// The evicted trace shadowed its head's basic block: put the block
		// back in charge of the tag. The shadow marker clears only after
		// the insert, so a failure inside the insert replays this case.
		c.tableInsert(f.Tag, owner.Entry)
		owner.shadowedBy = nil
	}
	delete(c.headCounter, f.Tag)
}

// growRegion raises a region's capacity to at least newCap bytes,
// clamped to the per-thread address reservation, and queues the client
// resize event.
func (c *Context) growRegion(reg *cacheRegion, newCap int) {
	newCap = (newCap + 15) &^ 15
	if machine.Addr(newCap) > reg.max-reg.base {
		newCap = int(reg.max - reg.base)
	}
	if newCap <= reg.capacity() {
		return // already at (or past) the requested size, or at the ceiling
	}
	old := reg.capacity()
	reg.limit = reg.base + machine.Addr(newCap)
	statInc(&c.rio.Stats.CacheResizes)
	c.rio.event(c.thread.ID, obs.Event{
		Type: obs.EvResize, Kind: reg.kind.String(), Old: old, New: newCap,
	})
	c.pendingResized = append(c.pendingResized, resizedEvent{kind: reg.kind, oldBytes: old, newBytes: newCap})
}

// killFragment is the single path to fragment death: it severs every link in
// and out, marks the fragment dead, updates the live-byte accounting and
// queues the deletion event for the next safe point. The bytes are NOT freed
// here — reuse is the allocator's decision (reclaim), made only when the
// thread is known to be outside the cache. Callers are responsible for the
// lookup-table updates, which differ by death cause.
func (c *Context) killFragment(f *Fragment) {
	if f.dead {
		return
	}
	r := c.rio
	r.unlinkOutgoing(f)
	for e := range f.inLinks {
		r.unlink(e)
	}
	f.dead = true
	f.ctx.region(f.Kind).addLive(-f.alignedSize())
	c.pendingDeleted = append(c.pendingDeleted, f)
}

// noteFragment records a freshly emitted fragment with its region's
// allocator and counts regenerations (rebuilds of tags evicted earlier).
func (c *Context) noteFragment(f *Fragment) {
	reg := c.region(f.Kind)
	reg.resident = append(reg.resident, f)
	reg.top = max(reg.top, f.Entry+machine.Addr(f.alignedSize()))
	reg.addLive(f.alignedSize())
	f.birthEpoch = reg.epoch()
	bit := uint8(1) << f.Kind
	if c.evicted[f.Tag]&bit != 0 {
		c.evicted[f.Tag] &^= bit
		statInc(&c.rio.Stats.Regenerations)
		reg.epochRegens++
	}
}

// CacheUsage reports the live fragment bytes and current capacity of one of
// this thread's caches.
func (c *Context) CacheUsage(kind FragmentKind) (liveBytes, capacity int) {
	reg := c.region(kind)
	return reg.liveBytes, reg.capacity()
}

// CheckCacheInvariants validates the runtime's cache data structures after
// eviction activity, returning the first violation found:
//
//   - residents lie inside the region and below its high-water mark, and
//     are pairwise disjoint (freed bytes are reused, never double-booked),
//     and the live ones match the byte accounting and fit the budget;
//   - no live fragment's outgoing link targets a dead fragment, and every
//     link is mirrored by the target's incoming-link record;
//   - no IBL hashtable entry maps a tag to an address that is not the entry
//     of a live fragment for that tag (production scrubbing is chain-local —
//     eviction touches only the victim's probe chain — so this full-table
//     scan is the independent oracle that no stale slot survives);
//   - under the open-address organization, every occupied slot is reachable
//     from its tag's home slot through an unbroken probe chain (backward-
//     shift deletion must never strand an entry behind an empty slot), and
//     the occupied-slot count matches the live-entry counter that drives
//     load-factor growth.
//
// It is the oracle behind the eviction property tests and is cheap enough to
// run after every dispatch in them.
func (c *Context) CheckCacheInvariants() error {
	for _, reg := range []*cacheRegion{c.bb, c.trace} {
		live := 0
		frags := append([]*Fragment(nil), reg.resident...)
		sort.Slice(frags, func(i, j int) bool { return frags[i].Entry < frags[j].Entry })
		var prevEnd machine.Addr
		for i, f := range frags {
			if !f.dead {
				live += f.alignedSize()
			}
			if end := f.Entry + machine.Addr(f.alignedSize()); f.Entry < reg.base || end > reg.limit || end > reg.top {
				return fmt.Errorf("%s fragment %v outside region [%#x,%#x) or above its high-water mark %#x",
					reg.kind, f, reg.base, reg.limit, reg.top)
			}
			if i > 0 && f.Entry < prevEnd {
				return fmt.Errorf("%s fragments overlap at %#x", reg.kind, f.Entry)
			}
			prevEnd = f.Entry + machine.Addr(f.alignedSize())
		}
		if live != reg.liveBytes {
			return fmt.Errorf("%s live-byte accounting: counted %d, tracked %d",
				reg.kind, live, reg.liveBytes)
		}
		if live > reg.capacity() {
			return fmt.Errorf("%s cache over budget: %d live > %d capacity",
				reg.kind, live, reg.capacity())
		}
	}

	for tag, f := range c.frags {
		for cur := f; cur != nil; cur = cur.shadowedBy {
			if cur.dead {
				return fmt.Errorf("dead fragment %v still registered for tag %#x", cur, tag)
			}
			for _, e := range cur.Exits {
				if e.state == stateLinkedFrag {
					t := e.linkedTo
					if t == nil {
						return fmt.Errorf("%v exit %d linked with nil target", cur, e.Index)
					}
					if t.dead {
						return fmt.Errorf("%v exit %d targets dead fragment %v", cur, e.Index, t)
					}
					if _, ok := t.inLinks[e]; !ok {
						return fmt.Errorf("%v exit %d not mirrored in %v's inLinks", cur, e.Index, t)
					}
				}
			}
			for e := range cur.inLinks {
				if e.linkedTo != cur {
					return fmt.Errorf("stale inLink on %v from %v exit %d", cur, e.Owner, e.Index)
				}
				if e.Owner.dead {
					return fmt.Errorf("dead fragment %v still linked into %v", e.Owner, cur)
				}
			}
			if cur.shadowedBy == cur {
				return fmt.Errorf("fragment %v shadows itself", cur)
			}
		}
	}

	if c.rio.Opts.LinkIndirect {
		mem := c.rio.M.Mem
		open := c.rio.usesIBLPrefix()
		occupied := uint32(0)
		for i := uint32(0); i <= c.tableMask; i++ {
			slot := c.iblSlot(i)
			tag := mem.Read32(slot)
			if tag == iblEmptySlot {
				continue
			}
			occupied++
			dest := mem.Read32(slot + 4)
			ok := false
			for cur := c.frags[machine.Addr(tag)]; cur != nil; cur = cur.shadowedBy {
				if !cur.dead && cur.Entry == machine.Addr(dest) {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("IBL slot %d maps tag %#x to %#x with no live fragment there", i, tag, dest)
			}
			if open {
				// The emitted lookup probes home..i linearly and stops at
				// the first empty slot: every slot on the way must be
				// occupied or this entry is unreachable in-cache.
				for j := tag & c.tableMask; j != i; j = (j + 1) & c.tableMask {
					if mem.Read32(c.iblSlot(j)) == iblEmptySlot {
						return fmt.Errorf("IBL slot %d (tag %#x, home %d) unreachable: empty slot %d breaks the probe chain",
							i, tag, tag&c.tableMask, j)
					}
				}
			}
		}
		if open && occupied != c.tableLive {
			return fmt.Errorf("IBL live-entry accounting: %d occupied slots, %d tracked", occupied, c.tableLive)
		}
	}
	return nil
}
