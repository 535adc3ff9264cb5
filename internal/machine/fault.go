package machine

import "fmt"

// Synchronous exceptions. The paper's Section 3 requires that a fault raised
// while executing translated code be reported to the application with its
// native machine context; the machine layer's side of that contract is that
// every synchronous fault is raised at a precise instruction boundary — the
// CPU state observed by the handler (or recorded on the thread) is exactly
// the state before the faulting instruction began — and that a fault never
// tears down the whole machine the way a Go error from Run does.

// FaultKind classifies a synchronous fault, mirroring the IA-32 exception
// vectors the simulated subset can raise.
type FaultKind uint8

// Fault kinds.
const (
	FaultNone     FaultKind = iota
	FaultDivide             // #DE: div by zero or quotient overflow
	FaultPage               // #PF: access to a protected page
	FaultUD                 // #UD: invalid or unimplemented opcode
	FaultSoftware           // int n with an unhandled vector, or injected
)

var faultNames = [...]string{"none", "#DE", "#PF", "#UD", "#SW"}

func (k FaultKind) String() string {
	if int(k) < len(faultNames) {
		return faultNames[k]
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault is one synchronous exception. EIP is the application PC of the
// faulting instruction (after any cache-to-native translation by the
// embedding runtime); Addr is the faulting data address for #PF and zero
// otherwise. Every synchronous fault is raised by panic where it is detected
// (#PF in the memory layer, #DE, #UD and #SW in their thunks), before the
// instruction commits anything; Step and Run catch it and deliver it, so it
// never escapes from Run.
type Fault struct {
	Kind   FaultKind
	EIP    Addr // faulting instruction (application PC once delivered)
	Addr   Addr // faulting data address (#PF), else 0
	Write  bool // #PF: the access was a write
	Thread int
}

func (f *Fault) Error() string {
	if f.Kind == FaultPage {
		rw := "read"
		if f.Write {
			rw = "write"
		}
		return fmt.Sprintf("%v at %#x (%s of %#x) on thread %d", f.Kind, f.EIP, rw, f.Addr, f.Thread)
	}
	return fmt.Sprintf("%v at %#x on thread %d", f.Kind, f.EIP, f.Thread)
}

// FaultTranslator is installed by an embedding runtime to rewrite a faulting
// thread's context from code-cache form to native application form before
// the fault becomes observable: it must set t.CPU.EIP to the application PC
// and restore any registers or stack state the runtime had scratched. It
// returns false when the faulting PC cannot be translated (for example a
// fault inside a runtime-owned lookup routine), in which case the machine
// halts the thread with the untranslated fault record rather than deliver a
// non-native context.
type FaultTranslator func(t *Thread, f *Fault) bool

// SetFaultTranslator installs fn as the cache-to-native context translator.
func (m *Machine) SetFaultTranslator(fn FaultTranslator) { m.faultTranslator = fn }

// FaultInterceptor is invoked after a fault's handler frame has been pushed
// and EIP points at the registered handler; an embedding runtime uses it to
// redirect execution into its code cache instead of letting the handler run
// natively. Returning false leaves the default (native) transfer in place.
type FaultInterceptor func(t *Thread, f *Fault, handler Addr) bool

// SetFaultInterceptor installs fn as the fault delivery interceptor.
func (m *Machine) SetFaultInterceptor(fn FaultInterceptor) { m.interceptFault = fn }

// faultInjection is one scheduled deterministic fault: raise Kind when
// thread Thread is about to issue its Ordinal'th system call. Keying on the
// per-thread syscall ordinal rather than on Instret is what makes injection
// reproducible across native and translated runs: a code-cache runtime
// executes extra instructions (stubs, lookup code) so instruction counts
// diverge, but the syscall sequence is part of the program's observable
// behaviour and is identical by the transparency contract.
type faultInjection struct {
	Thread  int
	Ordinal uint64
	Kind    FaultKind
	Addr    Addr
	done    bool
}

// InjectFaultAtSyscall schedules kind to be raised in place of thread's
// ordinal'th system call (0-based, counted per thread). The displaced system
// call does not execute and is not traced; the fault's EIP is the
// instruction boundary after the int instruction, where the syscall would
// have completed.
func (m *Machine) InjectFaultAtSyscall(thread int, ordinal uint64, kind FaultKind, addr Addr) {
	m.injections = append(m.injections, &faultInjection{
		Thread: thread, Ordinal: ordinal, Kind: kind, Addr: addr,
	})
}

// injectionFor returns the scheduled injection matching (thread, ordinal),
// consuming it, or nil.
func (m *Machine) injectionFor(thread int, ordinal uint64) *faultInjection {
	for _, inj := range m.injections {
		if !inj.done && inj.Thread == thread && inj.Ordinal == ordinal {
			inj.done = true
			return inj
		}
	}
	return nil
}

// raiseFault delivers f to t at the current instruction boundary: the
// context is translated to native form (when a runtime is embedding the
// machine), the fault is appended to the machine's fault trace, and then it
// is either transferred to the thread's registered handler or, with no
// handler, the thread alone is halted with the fault recorded. A fault never
// stops the machine.
func (m *Machine) raiseFault(t *Thread, f *Fault) {
	t.CPU.materialize() // the translator and the handler see exact flags
	f.Thread = t.ID
	f.EIP = t.CPU.EIP
	if m.faultTranslator != nil && !m.faultTranslator(t, f) {
		// The faulting PC has no native equivalent (runtime-internal
		// code). Reporting a non-native context would violate
		// transparency; kill only this thread, keeping the raw record.
		m.Stats.Faults++
		t.FaultRecord = f
		m.haltThread(t)
		return
	}
	f.EIP = t.CPU.EIP // the translator may have rewritten EIP
	m.Stats.Faults++
	m.FaultTrace = append(m.FaultTrace, *f)
	if t.FaultHandler == 0 {
		t.FaultRecord = f
		m.haltThread(t)
		return
	}
	// Build the handler frame: [esp]=kind, [esp+4]=faulting address,
	// [esp+8]=faulting EIP. A handler that cannot recover typically exits;
	// one that can fixes state and jumps (or add esp,8; ret to retry).
	// If the stack itself is unwritable this is a double fault: kill the
	// thread rather than recurse.
	if m.Mem.protCount != 0 && m.Mem.writeFault(t.CPU.R[4]-12, 12) != nil {
		t.FaultRecord = f
		m.haltThread(t)
		return
	}
	esp := t.CPU.R[4] - 12
	m.Mem.Write32(esp+8, f.EIP)
	m.Mem.Write32(esp+4, f.Addr)
	m.Mem.Write32(esp, uint32(f.Kind))
	t.CPU.R[4] = esp
	t.CPU.EIP = t.FaultHandler
	if m.interceptFault != nil {
		m.interceptFault(t, f, t.FaultHandler)
	}
}

// haltThread halts t, accounting for any queued-but-undelivered signals so
// none is ever dropped silently.
func (m *Machine) haltThread(t *Thread) {
	t.Halted = true
	if n := len(t.pendingSignals); n > 0 {
		m.Stats.SignalsDropped += uint64(n)
		t.pendingSignals = nil
	}
}
