// Package oracle implements the native-versus-runtime architectural state
// comparison and the one differential engine built on it (Diff, diff.go),
// which runs every transparency check in the repository: the eviction and
// IBL suites, the fault and chaos storms, the transparency matrix and the
// generative differential fuzzer. The contract it checks is the paper's
// transparency guarantee — a code-cache runtime may change every performance
// counter but must never change the state the application computes — so a
// captured State holds exactly the observable endpoint of a run: final
// registers and eflags per thread (EIP excepted — threads halt inside cache
// code whose address legitimately depends on the configuration), exit codes,
// program output, the application-memory digest, the syscall trace, and the
// delivered-fault sequence (whose EIPs must be native application addresses,
// which under the runtime only holds because fault translation rewinds cache
// contexts).
package oracle

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/machine"
)

// DeadStackBand is how far below each thread's final ESP memory is treated
// as dead and zeroed before digesting. The runtime's mangled sequences
// (inline-check pushfd, clean-call pushes) legitimately leave different
// garbage below the live stack than the native run's own dead pushes; bytes
// at or above ESP — the live stack — stay fully compared. The band bound is
// deterministic across configurations because final ESP itself is part of
// the compared register state.
const DeadStackBand = 256 << 10

// ThreadState is one thread's architectural endpoint.
type ThreadState struct {
	Regs   [8]uint32
	Eflags uint32
	Halted bool
	Exit   int32
}

// FaultEvent is one delivered fault in comparable form.
type FaultEvent struct {
	Thread int               `json:"thread"`
	Kind   machine.FaultKind `json:"kind"`
	EIP    machine.Addr      `json:"eip"`
	Addr   machine.Addr      `json:"addr"`
}

// State is everything a run's outcome must agree on across configurations.
type State struct {
	Threads  []ThreadState
	Output   string
	Digest   uint64
	Syscalls []machine.SyscallRecord
	Faults   []FaultEvent
}

// Capture snapshots the machine's architectural endpoint: it zeroes the
// dead-stack band below each thread's final ESP, digests application memory
// (everything below the runtime-reserved region), and collects the thread
// states, output, syscall trace and fault sequence. EIP is excluded from the
// per-thread state; the faulting EIPs are compared through the fault trace
// instead, where they must be native application addresses.
func Capture(m *machine.Machine) State {
	zeros := make([]byte, 4096)
	for _, t := range m.Threads {
		esp := t.CPU.R[4]
		lo := esp - DeadStackBand
		if lo > esp {
			lo = 0 // underflow
		}
		for a := lo; a < esp; a += uint32(len(zeros)) {
			n := esp - a
			if n > uint32(len(zeros)) {
				n = uint32(len(zeros))
			}
			m.Mem.WriteBytes(a, zeros[:n])
		}
	}
	s := State{
		Output:   string(m.Output),
		Digest:   m.Mem.Digest(0, core.RuntimeBase),
		Syscalls: m.SyscallTrace,
	}
	for _, t := range m.Threads {
		s.Threads = append(s.Threads, ThreadState{
			Regs:   t.CPU.R,
			Eflags: t.CPU.Eflags,
			Halted: t.Halted,
			Exit:   t.ExitCode,
		})
	}
	for _, f := range m.FaultTrace {
		s.Faults = append(s.Faults, FaultEvent{Thread: f.Thread, Kind: f.Kind, EIP: f.EIP, Addr: f.Addr})
	}
	// Unhandled faults on threads with no handler never reach FaultTrace in
	// untranslatable corners; fold per-thread records not already present.
	for _, t := range m.Threads {
		if f := t.FaultRecord; f != nil {
			ev := FaultEvent{Thread: f.Thread, Kind: f.Kind, EIP: f.EIP, Addr: f.Addr}
			if !slices.Contains(s.Faults, ev) {
				s.Faults = append(s.Faults, ev)
			}
		}
	}
	return s
}

// Equal reports whether two captured states are bit-identical.
func Equal(a, b State) bool {
	return slices.Equal(a.Threads, b.Threads) &&
		a.Output == b.Output &&
		a.Digest == b.Digest &&
		slices.Equal(a.Syscalls, b.Syscalls) &&
		slices.Equal(a.Faults, b.Faults)
}

// Mismatch names the first differing component between a reference state a
// (typically the native run) and a runtime state b, for diagnostics; it
// returns "" when the states are equal.
func Mismatch(a, b State) string {
	switch {
	case !slices.Equal(a.Faults, b.Faults):
		return fmt.Sprintf("fault trace %v != native %v", b.Faults, a.Faults)
	case a.Output != b.Output:
		return fmt.Sprintf("output %q != native %q", b.Output, a.Output)
	case !slices.Equal(a.Syscalls, b.Syscalls):
		return "syscall trace diverged"
	case !slices.Equal(a.Threads, b.Threads):
		return fmt.Sprintf("thread state %+v != native %+v", b.Threads, a.Threads)
	case a.Digest != b.Digest:
		return "application memory digest diverged"
	default:
		return ""
	}
}
