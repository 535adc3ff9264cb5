package machine

import "fmt"

// System-call numbers for the simulated OS, invoked with int 0x80 and the
// call number in EAX. The interface is deliberately tiny: enough for the
// synthetic benchmarks to produce verifiable output (used to check that a
// program behaves identically natively and under the code-cache runtime) and
// to exercise multithreading.
const (
	SysExit            = 1 // ebx = exit code; halts the calling thread
	SysWriteChar       = 2 // bl = byte to append to the machine's output
	SysWriteU32        = 3 // ebx = value, written in decimal
	SysWriteMem        = 4 // ebx = address, ecx = length
	SysSpawn           = 5 // ebx = entry pc, ecx = stack top; eax <- thread id
	SysYield           = 6 // hint; no architectural effect
	SysSetFaultHandler = 7 // ebx = handler pc for synchronous faults (0 = none)
)

// SyscallVector is the interrupt vector used for system calls.
const SyscallVector = 0x80

// SyscallRecord is one entry of the machine's syscall trace: the calling
// thread and the architectural inputs of the call. The trace is part of the
// observable behaviour of a program — an embedding runtime is transparent
// only if the traced sequence is identical to the native run's.
type SyscallRecord struct {
	Thread int
	Num    uint32 // eax
	Arg1   uint32 // ebx
	Arg2   uint32 // ecx
}

func (m *Machine) syscall(t *Thread, vector uint8) error {
	if vector != SyscallVector {
		// An int to a vector the simulated OS does not serve is an
		// architectural event on this thread, not a machine failure.
		return &Fault{Kind: FaultSoftware}
	}
	if m.injections != nil {
		ord := t.syscallSeen
		t.syscallSeen++
		if inj := m.injectionFor(t.ID, ord); inj != nil {
			// The displaced system call does not execute and is not
			// traced; EIP already points past the int instruction.
			return &Fault{Kind: inj.Kind, Addr: inj.Addr}
		}
	} else {
		t.syscallSeen++
	}
	c := &t.CPU
	m.SyscallTrace = append(m.SyscallTrace, SyscallRecord{
		Thread: t.ID, Num: c.R[0], Arg1: c.R[3], Arg2: c.R[1],
	})
	switch c.R[0] { // eax
	case SysExit:
		t.ExitCode = int32(c.R[3]) // ebx
		m.haltThread(t)
	case SysWriteChar:
		m.Output = append(m.Output, byte(c.R[3]))
	case SysWriteU32:
		m.Output = append(m.Output, []byte(fmt.Sprintf("%d", c.R[3]))...)
	case SysWriteMem:
		addr, n := c.R[3], c.R[1] // ebx, ecx
		if n > 1<<20 {
			return fmt.Errorf("machine: SysWriteMem length %d too large", n)
		}
		m.Output = append(m.Output, m.Mem.ReadBytes(addr, int(n))...)
	case SysSpawn:
		nt := m.NewThread()
		nt.CPU.EIP = c.R[3]    // ebx: entry
		nt.CPU.R[4] = c.R[1]   // ecx -> esp
		c.R[0] = uint32(nt.ID) // eax <- tid
		if m.spawnHook != nil {
			m.spawnHook(nt)
		}
	case SysYield:
		// Scheduling is round-robin regardless; nothing to do.
	case SysSetFaultHandler:
		t.FaultHandler = Addr(c.R[3]) // ebx
	default:
		return fmt.Errorf("machine: unknown system call %d", c.R[0])
	}
	return nil
}

// spawnHook lets the embedding runtime intercept creation of new threads so
// it can route them through its own dispatch (thread-private code caches
// need per-thread setup).
type spawnHookFunc func(t *Thread)

// SetSpawnHook installs fn to be called for every thread created by
// SysSpawn.
func (m *Machine) SetSpawnHook(fn func(t *Thread)) { m.spawnHook = fn }
