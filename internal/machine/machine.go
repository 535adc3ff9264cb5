package machine

import (
	"errors"
	"fmt"

	"repro/internal/ia32"
)

// TrapBase is the start of the reserved address range whose execution
// transfers control to registered Go handlers instead of decoding
// instructions. The DynamoRIO runtime uses traps as its dispatcher entry
// points: exit stubs end with a jump into this range, which is the "context
// switch back to DynamoRIO" of the paper's Figure 1.
const TrapBase Addr = 0xF0000000

// TrapAction tells the machine what to do after a trap handler runs.
type TrapAction int

// Trap handler results.
const (
	TrapContinue TrapAction = iota // continue at the (possibly updated) EIP
	TrapHalt                       // halt this thread
)

// TrapFunc handles execution reaching a registered trap address.
type TrapFunc func(t *Thread) (TrapAction, error)

// SignalInterceptor is invoked when an asynchronous signal is about to be
// delivered to a thread; it receives the handler address and must arrange
// for control flow, returning true if it handled delivery (the DynamoRIO
// runtime intercepts signals this way to keep all code under its control).
type SignalInterceptor func(t *Thread, handler Addr) bool

// CPU is the architectural state of one thread.
type CPU struct {
	R      [8]uint32 // general-purpose registers indexed by ia32 encoding
	Eflags uint32
	EIP    Addr

	// lazy is the last arithmetic-flag producer not yet folded into Eflags
	// (see flags.go). It is empty whenever control is outside the
	// machine's execution loop, so Eflags is then exact.
	lazy lazyFlags
}

// regDesc locates a register of any width within the 32-bit register file:
// the containing full register's index, the bit offset of the sub-register,
// and its width mask. A table of these makes Reg and SetReg branch-free —
// they are the single hottest operations of the interpreter.
type regDesc struct {
	idx   uint8
	shift uint8
	mask  uint32
}

var regDescs [256]regDesc

func init() {
	for i := 1; i < len(regDescs); i++ {
		r := ia32.Reg(i)
		if r.Size() == 0 {
			continue
		}
		d := regDesc{idx: r.Full().Enc(), mask: sizeMask(r.Size())}
		if r.IsHigh8() {
			d.shift = 8
		}
		regDescs[i] = d
	}
}

// Reg reads a register of any width.
func (c *CPU) Reg(r ia32.Reg) uint32 {
	d := &regDescs[r]
	return c.R[d.idx&7] >> d.shift & d.mask
}

// SetReg writes a register of any width, preserving unwritten bytes.
func (c *CPU) SetReg(r ia32.Reg, v uint32) {
	d := &regDescs[r]
	c.R[d.idx&7] = c.R[d.idx&7]&^(d.mask<<d.shift) | (v&d.mask)<<d.shift
}

// Thread is one simulated thread of execution.
type Thread struct {
	ID  int
	CPU CPU

	Halted   bool
	ExitCode int32

	// FaultHandler, when nonzero, receives synchronous faults: the machine
	// pushes kind/address/EIP and transfers there. With no handler a fault
	// halts the thread with FaultRecord set. Programs register a handler
	// with the SysSetFaultHandler system call.
	FaultHandler Addr

	// Instret counts instructions retired by this thread.
	Instret uint64

	// FaultRecord is the fault that halted this thread, if any.
	FaultRecord *Fault

	pred *predictor
	m    *Machine

	pendingSignals []Addr // queued handler addresses, delivered FIFO

	// watchLeft, when nonzero, is a step countdown: it is decremented at
	// every Step and the machine's watch hook fires when it reaches zero.
	// The embedding runtime uses it to bound native execution windows.
	watchLeft uint64

	syscallSeen uint64 // per-thread syscall ordinal (fault injection keys on it)

	// Local is free per-thread storage for the embedding runtime (the
	// dispatcher keeps its per-thread context here).
	Local any
}

// Machine glues memory, threads, the cost model and the trap table together.
type Machine struct {
	Mem     *Memory
	Profile *Profile

	Threads []*Thread

	// Ticks is total simulated time across all threads.
	Ticks Ticks

	// PerInstrOverhead, when nonzero, is added to Ticks for every
	// instruction executed. It models a pure interpreter's per-instruction
	// dispatch cost (the emulation row of the paper's Table 1).
	PerInstrOverhead Ticks

	Stats Stats

	// Output collects bytes written by the write system calls; native and
	// instrumented runs of the same program must produce identical output
	// (the transparency check).
	Output []byte

	// SyscallTrace records every system call with its architectural
	// inputs, in execution order across all threads. Like Output it is
	// observable behaviour: the differential tests require the trace of an
	// instrumented run to be bit-identical to the native run's.
	SyscallTrace []SyscallRecord

	// FaultTrace records every delivered synchronous fault in execution
	// order, with its application-level (translated) context. Like the
	// syscall trace it is observable behaviour: a run under a code-cache
	// runtime must deliver the same fault sequence as the native run.
	FaultTrace []Fault

	traps    map[Addr]TrapFunc
	nextTrap Addr

	// stepOnly makes Run execute one Step at a time, never a block, and
	// fold the flags after each Step with stepOnlyFlags; the block-vs-step
	// differential test sets it (export_test.go). It sits in nextTrap's
	// padding, which keeps Machine in its allocation size class.
	stepOnly bool

	interceptSignal SignalInterceptor
	spawnHook       spawnHookFunc
	faultTranslator FaultTranslator
	interceptFault  FaultInterceptor
	watchHook       func(t *Thread)
	injections      []*faultInjection

	nextTID int

	// phaseState is the phase-accounting and fragment-profiling state
	// (see phase.go); inert until EnablePhaseAccounting.
	phaseState
}

// Stats are machine-level event counters.
type Stats struct {
	Instructions  uint64
	Loads         uint64
	Stores        uint64
	CondBranches  uint64
	CondMispred   uint64
	TakenBranches uint64
	Rets          uint64
	RetMispred    uint64
	IndBranches   uint64
	IndMispred    uint64
	Syscalls      uint64
	SignalsTaken  uint64
	DecodeMisses  uint64

	// Faults counts delivered synchronous faults; SignalsDropped counts
	// queued asynchronous signals a thread halted without receiving (they
	// are accounted, never silently discarded).
	Faults         uint64
	SignalsDropped uint64
}

// cachedInst is one decoded instruction, stored in the decode table of the
// page it was fetched from (see page.code): the decoded instruction plus the
// execution state resolved once at decode time — the thunk (fn), the
// fall-through EIP, the profile's base cost, and the operand properties the
// thunk would otherwise re-derive on every step. Every write to memory drops
// the decodes it overlaps, which is what keeps fused dispatch correct under
// self-modifying code (fragment replacement, InvalidateRange).
type cachedInst struct {
	inst ia32.Inst
	fn   execThunk
	// succ is the decode at next, linked by the block runner the first time
	// execution falls through to it (see link). Links stay within one
	// 256-byte chunk, and dropping any decode of a chunk clears every succ
	// in it, so a link never outlives the decode it points to.
	succ   *cachedInst
	next   Addr   // EIP after fall-through (entry pc + inst.Len)
	target Addr   // direct CTI target; ret: imm16 stack adjustment
	cost   Ticks  // profile base cost of the opcode
	imm    uint32 // immediate value for specialized reg/imm thunks
	size   uint8  // operation size in bytes for size-dependent opcodes
	cc     uint8  // condition code (jcc/setcc/cmovcc); int: vector
	r1     uint8  // register-file indices for specialized register thunks
	r2     uint8
}

// New returns a machine with the given cost profile and one initial thread.
func New(p *Profile) *Machine {
	m := &Machine{
		Mem:      NewMemory(),
		Profile:  p,
		traps:    map[Addr]TrapFunc{},
		nextTrap: TrapBase,
	}
	m.NewThread()
	return m
}

// NewThread adds a thread with zeroed state and returns it.
func (m *Machine) NewThread() *Thread {
	t := &Thread{ID: m.nextTID, pred: newPredictor(m.Profile), m: m}
	m.nextTID++
	m.Threads = append(m.Threads, t)
	return t
}

// Machine returns the owning machine of a thread.
func (t *Thread) Machine() *Machine { return t.m }

// AllocTrap registers handler at a fresh address in the trap range and
// returns that address. Jumping to it invokes the handler.
func (m *Machine) AllocTrap(handler TrapFunc) Addr {
	a := m.nextTrap
	m.nextTrap += 16
	m.traps[a] = handler
	return a
}

// SetSignalInterceptor installs fn as the signal delivery interceptor.
func (m *Machine) SetSignalInterceptor(fn SignalInterceptor) { m.interceptSignal = fn }

// QueueSignal arranges for the thread to receive an asynchronous transfer to
// handler. Signals queue FIFO: several queued between two steps are all
// delivered, one per step, in order. A signal queued on an already-halted
// thread is accounted as dropped rather than silently lost.
func (m *Machine) QueueSignal(t *Thread, handler Addr) {
	if t.Halted {
		m.Stats.SignalsDropped++
		return
	}
	t.pendingSignals = append(t.pendingSignals, handler)
}

// SetWatchHook installs fn to be called on a thread whose armed watch
// countdown reaches zero (see ArmWatch). The hook runs between instructions,
// at a precise boundary, and may redirect the thread's EIP.
func (m *Machine) SetWatchHook(fn func(t *Thread)) { m.watchHook = fn }

// ArmWatch starts a step countdown on the thread: after n more Steps the
// machine's watch hook fires. n == 0 arms for a single step.
func (t *Thread) ArmWatch(n uint64) {
	if n == 0 {
		n = 1
	}
	t.watchLeft = n
}

// DisarmWatch cancels a pending watch countdown.
func (t *Thread) DisarmWatch() { t.watchLeft = 0 }

// Charge adds modeled overhead time (runtime work performed conceptually on
// this machine but implemented in Go, e.g. the dispatcher's hashtable
// lookup). The modeled constants live in the runtime's options; see
// DESIGN.md. Under phase accounting the ticks are attributed to the
// current charge phase (SetChargePhase) and excluded from the enclosing
// instruction window's delta.
func (m *Machine) Charge(t Ticks) {
	m.Ticks += t
	if m.phaseOn {
		m.phaseTicks[m.chargePhase] += uint64(t)
		m.charged += t
	}
}

// Now returns the current simulated time as an unsigned tick count — the
// timestamp clock for telemetry span stamps. Reading it never advances or
// charges the clock.
func (m *Machine) Now() uint64 { return uint64(m.Ticks) }

// decode decodes the instruction at pc and stores it in the decode table
// of its page, where Step finds it until a write overlapping its bytes
// drops it (see Memory.dropCode). Step calls it only on a miss. It returns
// nil if the bytes at pc do not decode.
func (m *Machine) decode(pc Addr) *cachedInst {
	m.Stats.DecodeMisses++
	var buf [maxInstLen]byte
	inst, err := ia32.Decode(m.Mem.Fetch(pc, buf[:]), pc)
	if err != nil {
		return nil
	}
	if end := pc + Addr(inst.Len) - 1; end>>pageShift != pc>>pageShift {
		// Writes look for overlapped decodes only on pages that have a
		// table; give the tail's page one so that writes there find this.
		m.Mem.codeSlot(end)
	}
	ci := &cachedInst{inst: inst}
	m.resolve(ci, pc)
	*m.Mem.codeSlot(pc) = ci
	return ci
}

// stepOnlyFlags folds the flags after each Step of a stepOnly machine. The
// block-vs-step differential replaces it with an eager reference that shares
// no code with materialize or carry (export_test.go).
var stepOnlyFlags = (*CPU).materialize

// Errors returned by the run loop.
var (
	ErrAllHalted = errors.New("machine: all threads halted")
	ErrLimit     = errors.New("machine: instruction limit reached")
)

// Step executes a single instruction (or trap, or signal delivery) on t.
func (m *Machine) Step(t *Thread) error {
	if t.Halted {
		return nil
	}
	if len(t.pendingSignals) > 0 {
		m.deliverSignal(t)
	}
	if t.watchLeft > 0 {
		t.watchLeft--
		if t.watchLeft == 0 && m.watchHook != nil {
			m.watchHook(t)
		}
	}
	pc := t.CPU.EIP
	if pc >= TrapBase {
		h, ok := m.traps[pc]
		if !ok {
			return fmt.Errorf("machine: thread %d jumped to unregistered trap address %#x", t.ID, pc)
		}
		if m.phaseOn {
			m.noteTrap()
		}
		action, err := h(t)
		if err != nil {
			return err
		}
		if action == TrapHalt {
			m.haltThread(t)
		}
		return nil
	}
	ci := m.Mem.decoded(pc)
	if ci == nil {
		if ci = m.decode(pc); ci == nil {
			// Undecodable bytes are an architectural event, not an
			// infrastructure failure: raise #UD on this thread only.
			return m.raiseFault(t, &Fault{Kind: FaultUD})
		}
	}
	m.Stats.Instructions++
	t.Instret++
	before := m.Ticks
	m.charged = 0
	m.Ticks += ci.cost + m.PerInstrOverhead
	var err error
	if m.Mem.protCount != 0 {
		err = m.stepGuarded(t, ci)
	} else {
		err = ci.fn(m, t, ci)
	}
	if m.stepOnly {
		stepOnlyFlags(&t.CPU)
	} else {
		t.CPU.materialize()
	}
	if f, ok := err.(*Fault); ok {
		err = m.raiseFault(t, f)
	}
	if m.phaseOn {
		m.attribute(pc, m.Ticks-before-m.charged)
	}
	return err
}

// stepGuarded executes one decoded instruction with page faults armed. The
// CPU is snapshotted first; a #PF panic from the memory layer unwinds any
// partial execution of the thunk back to the precise instruction boundary
// and is returned as the instruction's *Fault. The snapshot includes the
// lazy-flag record, which is empty at every Step, so the rollback also
// drops any record the partial execution left. Thunks that return a *Fault
// as an error guarantee they did so before any state change, so no rewind
// is needed on that path.
func (m *Machine) stepGuarded(t *Thread, ci *cachedInst) (err error) {
	saved := t.CPU
	defer func() {
		if p := recover(); p != nil {
			f, ok := p.(*Fault)
			if !ok {
				panic(p)
			}
			t.CPU = saved
			err = f
		}
	}()
	return ci.fn(m, t, ci)
}

// deliverSignal transfers control to the first queued handler, either
// through the registered interceptor or by the default mechanism (push the
// interrupted EIP and jump to the handler, which returns with ret).
func (m *Machine) deliverSignal(t *Thread) {
	h := t.pendingSignals[0]
	t.pendingSignals = t.pendingSignals[1:]
	m.Stats.SignalsTaken++
	if m.interceptSignal != nil && m.interceptSignal(t, h) {
		return
	}
	t.CPU.R[ia32.ESP.Enc()] -= 4
	m.Mem.Write32(t.CPU.R[ia32.ESP.Enc()], t.CPU.EIP)
	t.CPU.EIP = h
}

// Run executes threads round-robin (quantum instructions each) until all
// have halted or limit instructions have been executed in total. A limit of
// 0 means no limit. It returns ErrLimit if the limit stopped execution.
//
// A thread runs a straight-line run at a time (runBlock) whenever none of
// Step's per-instruction checks can fire, and one Step at a time otherwise;
// both execute the same thunks with the same accounting, so every simulated
// value is the same either way.
func (m *Machine) Run(limit uint64) error {
	const quantum = 5000
	executed := uint64(0)
	for {
		live := 0
		for _, t := range m.Threads {
			if t.Halted {
				continue
			}
			live++
			// Hoist the limit check out of the per-instruction loop by
			// shrinking this quantum to whatever budget remains.
			q := uint64(quantum)
			if limit > 0 {
				if executed >= limit {
					return ErrLimit
				}
				if rem := limit - executed; rem < q {
					q = rem
				}
			}
			for q > 0 {
				n, err := m.runBlock(t, q)
				if n == 0 {
					n, err = 1, m.Step(t)
				}
				if err != nil {
					return err
				}
				executed += n
				q -= n
				if t.Halted {
					break
				}
			}
		}
		if live == 0 {
			return nil
		}
	}
}

// runBlock executes t's straight-line run of already-resolved decodes from
// EIP, at most budget instructions, and returns how many it executed. It is
// Step without the per-instruction checks: it executes nothing, leaving the
// instruction to Step, when phase accounting is on, a watch is armed, a
// signal is pending, a page is protected, EIP is a trap address or EIP has
// no decode yet. Within the run it follows succ links, and it stops after a
// taken control transfer or a delivered fault (EIP is not the fall-through),
// a halt, the budget, a missing link, or a write that dropped any decode
// (a store into the running code).
func (m *Machine) runBlock(t *Thread, budget uint64) (n uint64, err error) {
	c := &t.CPU
	if m.stepOnly || m.phaseOn || t.watchLeft != 0 || len(t.pendingSignals) != 0 || m.Mem.protCount != 0 || c.EIP >= TrapBase {
		return 0, nil
	}
	ci := m.Mem.decoded(c.EIP)
	if ci == nil {
		return 0, nil
	}
	drops := m.Mem.drops
	for {
		m.Stats.Instructions++
		t.Instret++
		m.Ticks += ci.cost + m.PerInstrOverhead
		err = ci.fn(m, t, ci)
		n++
		if err != nil || n == budget || t.Halted || c.EIP != ci.next || m.Mem.drops != drops {
			break
		}
		next := ci.succ
		if next == nil {
			if next = m.link(ci); next == nil {
				break
			}
		}
		ci = next
	}
	c.materialize()
	if f, ok := err.(*Fault); ok {
		err = m.raiseFault(t, f)
	}
	return n, err
}

// link links ci to the decode it falls through to and returns it, or
// returns nil when the run must end at ci: ci is int (the system call may
// arm hooks, spawn threads or queue signals) or hlt, its successor lies in
// another chunk (or the trap range, which starts at a chunk boundary), or
// its successor has not been decoded yet. Step decodes a missing successor,
// so a decode miss is counted once, by Step, whichever path runs.
func (m *Machine) link(ci *cachedInst) *cachedInst {
	pc := ci.next - Addr(ci.inst.Len)
	if ci.inst.Op == ia32.OpInt || ci.inst.Op == ia32.OpHlt ||
		ci.next>>chunkShift != pc>>chunkShift || ci.next >= TrapBase {
		return nil
	}
	ci.succ = m.Mem.decoded(ci.next)
	return ci.succ
}

// OutputString returns the program's collected output.
func (m *Machine) OutputString() string { return string(m.Output) }
