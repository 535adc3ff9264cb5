package core

import (
	"fmt"

	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/obs"
)

// DecodeFragment re-creates the InstrList for a fragment from the code
// cache (the paper's dr_decode_fragment, Section 3.4). The list reflects
// exactly the code executing in the cache, exit stubs excepted; exit
// branches are restored to their application-level form (direct exits
// target application tags again, indirect exits regain their class), and
// intra-fragment branches become instruction-relative, so the list can be
// modified and handed back to ReplaceFragment.
//
// It returns nil if no fragment exists for tag in this thread's caches.
func (c *Context) DecodeFragment(tag machine.Addr) *instr.List {
	f := c.lookup(tag)
	if f == nil || f.dead {
		return nil
	}
	r := c.rio
	prev := r.M.SetChargePhase(obs.PhaseTraceBuild)
	defer r.M.SetChargePhase(prev)

	exitByAddr := make(map[machine.Addr]*Exit, len(f.Exits))
	for _, e := range f.Exits {
		exitByAddr[e.ctiAddr] = e
	}

	list := instr.NewList()
	byAddr := map[machine.Addr]*instr.Instr{}
	type fixup struct {
		i      *instr.Instr
		target machine.Addr
	}
	var fixups []fixup

	// Decode the body only: the IBL target prefix (if any) is runtime
	// plumbing, regenerated by emission, not part of the fragment's code.
	start := f.body()
	end := start + machine.Addr(f.BodyLen)
	count := 0
	for pc := start; pc < end; {
		raw := r.M.Mem.ReadBytes(pc, 16)
		in, err := instr.FromDecode(raw, pc)
		if err != nil {
			panic(fmt.Sprintf("core: cache at %#x undecodable: %v", pc, err))
		}
		count++
		if e, isExit := exitByAddr[pc]; isExit {
			in.SetExitClass(e.class)
			if e.Kind == ExitDirect {
				in.SetTarget(e.TargetTag)
			} else {
				in.SetTarget(0)
			}
			if e.clientStub != nil || e.clientAlways {
				in.SetExitStub(e.clientStub, e.clientAlways)
			}
		} else if in.IsCTI() && !in.Opcode().IsIndirect() {
			if t, ok := in.Target(); ok && t >= start && t < end {
				fixups = append(fixups, fixup{in, t})
			}
			// Targets at or above the trap base (clean calls) keep
			// their absolute form.
		}
		next := pc + machine.Addr(in.Len())
		byAddr[pc] = in
		list.Append(in)
		pc = next
	}
	for _, fx := range fixups {
		ti, ok := byAddr[fx.target]
		if !ok {
			panic(fmt.Sprintf("core: intra-fragment branch to non-boundary %#x", fx.target))
		}
		fx.i.SetTargetInstr(ti)
	}
	r.M.Charge(machine.Ticks(count) * costTraceInstr)
	return list
}

// ReplaceFragment installs il as the new version of tag's fragment (the
// paper's dr_replace_fragment). The replacement is safe even while the
// calling thread is executing inside the old fragment: all links targeting
// and originating from the old fragment are immediately redirected, the
// lookup tables are updated, and the old code — never overwritten — remains
// valid until the thread's next branch leaves it. The old fragment's
// deletion event is delivered at the next safe point.
//
// It returns false if no fragment exists for tag.
func (c *Context) ReplaceFragment(tag machine.Addr, il *instr.List) bool {
	old := c.lookup(tag)
	if old == nil || old.dead {
		return false
	}
	r := c.rio
	prev := r.M.SetChargePhase(obs.PhaseTraceBuild)
	defer r.M.SetChargePhase(prev)
	statInc(&r.Stats.Replacements)
	r.M.Charge(costReplaceFragment)

	// The calling thread may be executing inside the old fragment; cache
	// memory must not be reused while the new version is emitted.
	c.inReplace = true
	nu := r.emit(c, old.Kind, tag, il)
	c.inReplace = false
	// The new version derives from the same application code; it inherits
	// the old fragment's consistency spans.
	nu.spans = old.spans

	// Move every incoming link and shadow reference to the new version,
	// then kill the old fragment: its own exits are unlinked so any thread
	// still inside it leaves through the dispatcher.
	r.redirectInLinks(old, nu)
	if bb := c.frags[tag]; bb != nil && bb.Kind == KindBasicBlock && bb.shadowedBy == old {
		bb.shadowedBy = nu
	}
	c.killFragment(old)
	return true
}

// EnqueueSideline schedules fn to run in runtime context at this thread's
// next dispatcher entry — the mechanism the paper sketches for "sideline
// optimization" by a separate thread: the optimizer and the application
// thread are never in runtime code at the same time, and if the application
// thread stays in the code cache no synchronization cost is incurred.
func (c *Context) EnqueueSideline(fn func(*Context)) {
	c.sideline = append(c.sideline, fn)
}

// runSideline executes queued sideline work; called from the dispatcher.
func (r *RIO) runSideline(ctx *Context) {
	for len(ctx.sideline) > 0 {
		fn := ctx.sideline[0]
		ctx.sideline = ctx.sideline[1:]
		fn(ctx)
	}
}

// FlushAll removes every fragment of this thread's caches (the
// coarse-grained alternative to adaptive replacement that the paper
// criticizes DELI for; the runtime itself never flushes). Deletion events
// are delivered at the next safe point. The dead fragments stay resident
// until the FIFO allocator reaches them and reuses their bytes.
func (c *Context) FlushAll() {
	for _, f := range c.frags {
		for other := f; other != nil; other = other.shadowedBy {
			c.killFragment(other)
		}
		c.tableRemove(f.Tag)
	}
	clear(c.frags)
	clear(c.headCounter)
	clear(c.isHead)
	c.selecting = false
	c.selUnlinked = nil
}
