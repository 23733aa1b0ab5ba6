// Package monitor implements the MVEE monitor: it interposes on every
// system call a variant thread makes, compares the variants' behavior,
// replicates I/O results from the master to the slaves, and enforces an
// equivalent cross-thread ordering of system calls using a Lamport logical
// clock (the "syscall ordering clock", §4.1).
//
// The monitor follows the paper's strict, security-oriented model: no
// effectful call executes until every variant has made an equivalent call,
// validated against the master's; no variant's guest takes the result of a
// pure call before its own call has been checked against the master's; and
// any mismatch — different syscall number, different arguments, different
// output payload — is divergence, which terminates all variants.
package monitor

import "repro/internal/kernel"

// Policy selects which system calls are lockstep-compared. §5.1 evaluates
// "a variety of monitoring policies ranging from strict lockstepping on all
// system calls to lockstepping only on security-sensitive system calls".
// I/O replication is unaffected by policy — inputs must be duplicated and
// outputs deduplicated no matter what, or the variants drift apart.
type Policy int

const (
	// PolicyStrictLockstep compares every monitored call.
	PolicyStrictLockstep Policy = iota
	// PolicySecuritySensitive compares only security-sensitive calls
	// (writes, opens, memory mapping, network); other calls are still
	// replicated but not argument-checked.
	PolicySecuritySensitive
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == PolicySecuritySensitive {
		return "security-sensitive"
	}
	return "strict-lockstep"
}

// class describes how the monitor handles one syscall number.
type class struct {
	monitored  bool // passes through the rendezvous at all
	ordered    bool // stamped by the syscall ordering clock (non-blocking calls only)
	replicated bool // master executes, slaves receive the master's results
	perVariant bool // every variant executes it against its own process state
	blocking   bool // may block in the kernel, so it cannot be ordered (§4.1 Limitations)
	sensitive  bool // compared even under PolicySecuritySensitive
	pure       bool // changes no kernel state and reads no clock: may execute before the slaves arrive (see enter)
}

// classify implements Table-4.1-style routing:
//
//   - sched_yield, gettid and futex never reach the monitor. The paper
//     treats sys_futex as unordered (footnote 5); here no guest issues
//     SysFutex, since core's Thread.FutexWait and FutexWake are sync ops the
//     agents order (DESIGN §4).
//   - brk/mmap/munmap/mprotect/clone execute in every variant (address
//     spaces are per-variant and intentionally different) but are ordered
//     and compared with address arguments masked out.
//   - blocking calls (read/recv/accept/poll, nanosleep) are replicated but not
//     ordered: the monitor must not sit in an ordering critical section
//     across a call that may never return. nanosleep in particular must
//     be replicated, not per-variant: only the master pays the sleep, and
//     the slaves consume the replicated (empty) result during replay —
//     running it per variant made every slave re-pay the master's sleep
//     and hid mismatched sleeps from the divergence detector.
//   - wall-clock reads (gettimeofday/clock_gettime) are ordered and
//     replicated like any other nondeterministic result: the master's
//     reading is the session's time, or per-variant clock skew becomes a
//     guaranteed benign-divergence source the moment a timestamp feeds a
//     compared payload.
//   - getpid, pread and stat are pure: they change no kernel state and read
//     no clock, so under lockstep the master executes them and hands the
//     record to its slaves while they are still arriving; the master checks
//     every digest, and each slave the record, before its guest takes the
//     result (see enter).
//   - everything else is ordered, compared and replicated.
func classify(nr kernel.Sysno) class {
	switch nr {
	case kernel.SysSchedYield, kernel.SysGettid, kernel.SysFutex:
		return class{}
	case kernel.SysNanosleep:
		return class{monitored: true, replicated: true, blocking: true}
	case kernel.SysBrk, kernel.SysMunmap:
		return class{monitored: true, ordered: true, perVariant: true}
	case kernel.SysMmap, kernel.SysMprotect:
		return class{monitored: true, ordered: true, perVariant: true, sensitive: true}
	case kernel.SysClone:
		return class{monitored: true, ordered: true, perVariant: true, sensitive: true}
	case kernel.SysFork:
		// Fork executes in every variant (each builds its own child
		// process) inside the ordered section, which is exactly what makes
		// the returned child pids and initial tids deterministic: the i-th
		// ordered fork of every variant draws the same ids.
		return class{monitored: true, ordered: true, perVariant: true, sensitive: true}
	case kernel.SysExit, kernel.SysThreadExit:
		// Process exit is ordered so that exit/kill/waitpid interleavings
		// replay identically: a master that observed ESRCH because the
		// target died first must see its slaves observe the same.
		return class{monitored: true, ordered: true, perVariant: true}
	case kernel.SysKill:
		// Kill is per-variant (each variant posts the signal to its own
		// process tree, so slave-side pending state marches with the
		// master's) and sensitive: the (pid, signo) arguments are compared
		// even under the relaxed policy — a variant signalling a different
		// process or signal is an attack, not noise.
		return class{monitored: true, ordered: true, perVariant: true, sensitive: true}
	case kernel.SysSigaction, kernel.SysSigprocmask:
		// Signal-table edits are per-variant ordered state changes; the
		// (signo, disposition/mask) arguments are security-relevant and
		// compared under every policy.
		return class{monitored: true, ordered: true, perVariant: true, sensitive: true}
	case kernel.SysWaitpid:
		// Waitpid blocks until a child dies, so like read/accept it cannot
		// sit inside the ordering critical section; the master executes the
		// reap and the (pid, status) result is replicated. It is sensitive:
		// which child a variant waits for is compared under every policy.
		return class{monitored: true, replicated: true, blocking: true, sensitive: true}
	case kernel.SysRead, kernel.SysRecv, kernel.SysAccept:
		return class{monitored: true, replicated: true, blocking: true}
	case kernel.SysPoll:
		// poll may park in the kernel until a descriptor turns ready, so
		// like read/accept it cannot sit inside the ordering critical
		// section; the master executes it and the revents array is
		// replicated. The fd-set payload and the (nfds, timeout) arguments
		// all participate in divergence detection: a variant polling a
		// different descriptor set — the evented server's entire control
		// flow — is as divergent as one writing different bytes.
		return class{monitored: true, replicated: true, blocking: true}
	case kernel.SysWrite, kernel.SysSend, kernel.SysPwrite,
		kernel.SysWritev, kernel.SysSendfile:
		// The vectored/zero-copy transfers are writes: ordered, replicated,
		// and compared under every policy. For writev the iovec count rides
		// Args[1] and the segment-boundary prefixes ride the Data payload,
		// so both participate in divergence detection; for sendfile the page
		// bytes never reach the monitor at all — the compared surface is the
		// (out_fd, in_fd, offset, count) argument tuple.
		return class{monitored: true, ordered: true, replicated: true, sensitive: true}
	case kernel.SysOpen, kernel.SysUnlink, kernel.SysFtruncate,
		kernel.SysSocket, kernel.SysBind, kernel.SysListen, kernel.SysConnect,
		kernel.SysShutdown:
		return class{monitored: true, ordered: true, replicated: true, sensitive: true}
	case kernel.SysGetpid, kernel.SysPread, kernel.SysStat:
		return class{monitored: true, ordered: true, replicated: true, pure: true}
	case kernel.SysGettimeofday, kernel.SysClockGettime:
		// Effect-free, but never pure: the §5.4 timestamp channel is the
		// master reading the clock after every variant has arrived, so the
		// reading carries the slowest slave's delay. Read early, it would
		// carry only the master's.
		return class{monitored: true, ordered: true, replicated: true}
	case kernel.SysClose, kernel.SysDup, kernel.SysLseek, kernel.SysPipe2:
		return class{monitored: true, ordered: true, replicated: true}
	default:
		// Unknown syscalls (e.g. the MVEE-awareness call) are monitored
		// so the monitor can intercept them before the kernel sees them.
		return class{monitored: true, ordered: true, perVariant: true}
	}
}

// argMask returns a bitmask of which Args positions participate in
// comparison. Address-valued arguments are excluded: under ASLR they differ
// across variants by design, exactly like the paper's monitor compares
// normalized, not raw, arguments.
func argMask(nr kernel.Sysno) uint8 {
	switch nr {
	case kernel.SysBrk:
		return 0 // the requested break is an address
	case kernel.SysMmap:
		return 1 << 1 // compare length; addr hint masked
	case kernel.SysMunmap, kernel.SysMprotect:
		return 1<<1 | 1<<2 // compare length (and prot); addr masked
	case kernel.SysClone, kernel.SysFork:
		// No compared arguments: the determinism that matters (identical
		// child tids/pids) is a property of the ordered execution, not of
		// the call's inputs.
		return 0
	case kernel.SysKill, kernel.SysWaitpid, kernel.SysSigaction,
		kernel.SysSigprocmask, kernel.SysExit, kernel.SysThreadExit:
		// Full comparison, stated explicitly rather than via the default:
		// pid/signo/disposition/mask/exit-status arguments are plain values
		// that must be identical across variants — a variant signalling a
		// different target, registering a different handler, or exiting
		// with a different status is divergence.
		return 0x3f
	case kernel.SysNanosleep:
		// The duration is a plain value, identical across variants by
		// construction — compare it, or a variant sleeping a different
		// amount than its counterparts stays invisible to the detector
		// (the mask was dead code while nanosleep bypassed the monitor;
		// now that it is monitored, it must bite).
		return 1 << 0
	default:
		return 0x3f // all six
	}
}
