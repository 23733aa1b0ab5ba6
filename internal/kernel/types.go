// Package kernel implements the simulated Linux kernel that MVEE variants
// make their system calls against. It is the substitute for the real kernel
// underneath ReMon (see DESIGN.md §2): an in-memory file system, per-process
// file-descriptor tables, pipes, loopback sockets, a brk/mmap address-space
// allocator, clocks, and a futex service.
//
// The monitor interposes between variants and this kernel exactly like the
// paper's monitor interposes on real system calls: I/O calls are executed
// once (by the master variant) and their results replicated, while
// address-space calls execute in every variant against that variant's own
// process state.
package kernel

import "fmt"

// Sysno enumerates the simulated system calls.
type Sysno uint32

const (
	SysInvalid Sysno = iota
	SysOpen
	SysClose
	SysRead
	SysWrite
	SysPread
	SysPwrite
	SysLseek
	SysStat
	SysUnlink
	SysDup
	SysPipe2
	SysFtruncate
	SysBrk
	SysMmap
	SysMunmap
	SysMprotect
	SysClone
	SysExit
	SysGettimeofday
	SysClockGettime
	SysNanosleep
	SysSchedYield
	SysGetpid
	SysGettid
	SysSocket
	SysBind
	SysListen
	SysAccept
	SysConnect
	SysSend
	SysRecv
	SysShutdown
	SysFutex
	// SysMVEEAware is the paper's added "self-awareness" system call
	// (§4.5): it does not exist in the kernel; the monitor intercepts it
	// and tells the variant whether it is the master or a slave.
	SysMVEEAware
	// SysPoll sits AFTER SysMVEEAware deliberately: Sysno values are part
	// of the recorded-trace wire format (monitor.Record gob-encodes them),
	// so new syscalls append to the enum rather than renumbering the
	// existing ones out from under previously captured traces.
	SysPoll
	// SysFork creates a child process: a copy of the caller's descriptor
	// table (Linux semantics: shared open file descriptions) under a fresh,
	// deterministically allocated pid. Like SysPoll and everything after
	// it, it appends to the enum — the values are trace wire format.
	SysFork
	// SysWaitpid reaps a zombie child, blocking until one exits. Args[0]
	// selects the child (WaitAny for "any child"); Val is the reaped
	// child's pid and Val2 its exit status.
	SysWaitpid
	// SysKill posts a signal (Args[1]) to the process named by Args[0].
	SysKill
	// SysSigaction sets the disposition of signal Args[0] to Args[1]
	// (SigDfl, SigIgn, or SigHandler).
	SysSigaction
	// SysSigprocmask manipulates the caller's blocked-signal mask:
	// Args[0] is the how (SigBlock/SigUnblock/SigSetmask), Args[1] the
	// bit mask; Val returns the previous mask.
	SysSigprocmask
	// SysThreadExit retires ONE thread of a process without ending the
	// process — the kernel-side half of a vthread unwinding now that
	// forked children can be multi-threaded. The last thread of a process
	// already in exit-group completes the zombie transition. Appended to
	// the enum (trace wire format), like everything after SysMVEEAware.
	SysThreadExit
	// SysWritev is the vectored gather-write (writev(2)): Args[0] is the
	// fd, Args[1] the iovec count, and Data carries the iovec wire format
	// (see EncodeIovec) — per-segment u32 lengths followed by the
	// concatenated segment bytes. One replicated record covers what would
	// otherwise be one write record per segment (a static page's header +
	// body). Appended to the enum (trace wire format, Version 5).
	SysWritev
	// SysSendfile transfers Args[3] bytes from the seekable in-fd Args[1]
	// to the stream out-fd Args[0], file→socket, without the bytes ever
	// entering the guest: the kernel copies straight from the inode into
	// the destination pipe buffer, and the replicated record carries only
	// the byte count — the zero-copy serving path. Args[2] is the file
	// offset, or SendfileCurOffset to use-and-advance the shared
	// open-file-description offset under its lock (visible across dup'd
	// and fork-inherited descriptors, like Linux f_pos). Appended to the
	// enum (trace wire format, Version 5).
	SysSendfile
	sysnoMax
)

// SendfileCurOffset, passed as SysSendfile's Args[2], selects the shared
// open-file-description offset: the transfer starts at the description's
// current offset and advances it by the bytes sent, under the description
// lock — so fork'd workers sendfiling from one inherited descriptor carve
// up the file without overlap.
const SendfileCurOffset = ^uint64(0)

// SysnoMax is the exclusive upper bound of the Sysno enum. Guard tests
// iterate [SysOpen, SysnoMax) to prove every simulated syscall has a name,
// a deliberate monitor classification, and an argument-mask decision.
const SysnoMax = sysnoMax

var sysnoNames = map[Sysno]string{
	SysOpen: "open", SysClose: "close", SysRead: "read", SysWrite: "write",
	SysPread: "pread", SysPwrite: "pwrite", SysLseek: "lseek", SysStat: "stat",
	SysUnlink: "unlink", SysDup: "dup", SysPipe2: "pipe2", SysFtruncate: "ftruncate",
	SysBrk: "brk", SysMmap: "mmap", SysMunmap: "munmap", SysMprotect: "mprotect",
	SysClone: "clone", SysExit: "exit", SysGettimeofday: "gettimeofday",
	SysClockGettime: "clock_gettime", SysNanosleep: "nanosleep",
	SysSchedYield: "sched_yield", SysGetpid: "getpid", SysGettid: "gettid",
	SysSocket: "socket", SysBind: "bind", SysListen: "listen", SysAccept: "accept",
	SysConnect: "connect", SysSend: "send", SysRecv: "recv", SysShutdown: "shutdown",
	SysFutex: "futex", SysPoll: "poll", SysMVEEAware: "mvee_aware",
	SysFork: "fork", SysWaitpid: "waitpid", SysKill: "kill",
	SysSigaction: "sigaction", SysSigprocmask: "sigprocmask",
	SysThreadExit: "thread_exit", SysWritev: "writev", SysSendfile: "sendfile",
}

// String implements fmt.Stringer.
func (s Sysno) String() string {
	if n, ok := sysnoNames[s]; ok {
		return n
	}
	return fmt.Sprintf("sys#%d", uint32(s))
}

// Errno models Linux error numbers. Zero means success.
type Errno uint32

const (
	OK     Errno = 0
	EPERM  Errno = 1
	ENOENT Errno = 2
	// ESRCH: no such process (kill/waitpid on a pid that was never
	// allocated or has already been reaped).
	ESRCH Errno = 3
	// EINTR: a blocking call (read, accept, poll, waitpid, nanosleep) was
	// interrupted because a deliverable signal arrived for the calling
	// process. The signal itself travels in Ret.Sig; the caller is
	// expected to run its handler and retry.
	EINTR Errno = 4
	// EIO: low-level I/O failure. The simulated kernel never earns one on
	// its own; it exists as a fault-injection errno (chaos plans default
	// to it), so a guest's error paths can be exercised deterministically.
	EIO   Errno = 5
	EBADF Errno = 9
	// ECHILD: waitpid with no children left to wait for.
	ECHILD     Errno = 10
	EAGAIN     Errno = 11
	ENOMEM     Errno = 12
	EACCES     Errno = 13
	EFAULT     Errno = 14
	EBUSY      Errno = 16
	EEXIST     Errno = 17
	ENOTDIR    Errno = 20
	EINVAL     Errno = 22
	EMFILE     Errno = 24
	ESPIPE     Errno = 29
	EPIPE      Errno = 32
	ENOSYS     Errno = 38
	ENOTSOCK   Errno = 88
	EADDRINUSE Errno = 98
	// ECONNRESET: connection reset by peer. Like EIO, only fault injection
	// produces it here — the loopback stack itself reports closes as EOF
	// or EPIPE.
	ECONNRESET   Errno = 104
	ECONNREFUSED Errno = 111
)

var errnoNames = map[Errno]string{
	OK: "OK", EPERM: "EPERM", ENOENT: "ENOENT", ESRCH: "ESRCH", EINTR: "EINTR",
	EIO: "EIO", ECHILD: "ECHILD", EBADF: "EBADF", EAGAIN: "EAGAIN",
	ENOMEM: "ENOMEM", EACCES: "EACCES", EFAULT: "EFAULT", EBUSY: "EBUSY",
	EEXIST: "EEXIST", ENOTDIR: "ENOTDIR", EINVAL: "EINVAL", EMFILE: "EMFILE",
	ESPIPE: "ESPIPE", EPIPE: "EPIPE", ENOSYS: "ENOSYS", ENOTSOCK: "ENOTSOCK",
	EADDRINUSE: "EADDRINUSE", ECONNRESET: "ECONNRESET",
	ECONNREFUSED: "ECONNREFUSED",
}

// Error implements the error interface so Errno values can travel as errors.
func (e Errno) Error() string {
	if n, ok := errnoNames[e]; ok {
		return n
	}
	return fmt.Sprintf("errno %d", uint32(e))
}

// Open flags, a subset of Linux's.
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreat  = 0x40
	OExcl   = 0x80
	OTrunc  = 0x200
	OAppend = 0x400
)

// Lseek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Call is one system call as submitted by a variant thread. Pointer
// arguments never appear: buffers travel in Data (the monitor deep-copies
// buffers in the real system too, so this is the natural representation).
type Call struct {
	Nr   Sysno
	Args [6]uint64
	Data []byte // payload for write/send/…, poll's fd set
	// Buf, when non-nil on read/recv or poll, is the caller's destination
	// buffer: the kernel copies the pending bytes (poll: the fd set with
	// revents filled in) into it and Ret.Data aliases Buf's prefix, so a
	// steady-state receive or event loop allocates nothing. A poll Buf
	// shorter than Data is EINVAL, and it must not overlap Data. Buf is
	// VARIANT-LOCAL state, like the address a real recv(2) writes through:
	// it is never compared, never published, and never encoded into
	// traces. Under the monitor each variant must own its Buf (the
	// master's result bytes are copied into a stable record payload before
	// publication, and each slave copies them back out into its own Buf),
	// and guests must supply Buf uniformly across variants — SPMD guest
	// code does so by construction. Buf is also what decides who owns a
	// result (see Ret.Data).
	Buf []byte
	// Tid is the calling guest thread's id, VARIANT-LOCAL like Buf: never
	// compared, never encoded. The deadlock detector keys its blocked-site
	// cells on it; callers that don't arm a BlockBoard may leave it zero.
	Tid int
}

// Ret is the kernel's (or the monitor's replicated) reply to a Call.
type Ret struct {
	Val  uint64 // primary return value (fd, byte count, address, …)
	Val2 uint64 // secondary value (pipe2's second fd)
	// Data is the payload for read/recv/poll/…. Under the monitor a
	// replicated result without a Call.Buf is SHARED: the master's record
	// holds the master's Ret by value and each slave's guest gets that
	// Ret back, so every variant's Data is a slice of one backing array,
	// and guests must treat it as read-only. With a Buf, Data aliases the
	// calling variant's own Buf, and each variant owns its bytes.
	Data []byte
	Err  Errno
	// Sig is the signal delivered at this syscall boundary (0 = none).
	// The kernel never sets it: the MONITOR stamps it onto the master's
	// record after executing the call, which is what makes signal
	// delivery a replicable event — the slaves consume the master's
	// delivery schedule instead of racing their own (DESIGN.md §2.5).
	Sig uint32
	// Inj marks injected faults (bitmask of InjLatency/InjError/
	// InjTimeout/InjShort, see fault.go). The KERNEL sets it when a fault
	// plan fires on the master's execution; because it rides the
	// replicated record (trace wire format v4), slaves and replays
	// observe the identical fault, and telemetry counts injections
	// without re-deciding them.
	Inj uint8
}

// Ok reports whether the call succeeded.
func (r Ret) Ok() bool { return r.Err == OK }
