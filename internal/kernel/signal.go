package kernel

import "math/bits"

// Signals (DESIGN.md §2.5). The simulated kernel keeps a Linux-shaped
// per-process signal table — a pending set, a blocked mask, and per-signal
// dispositions — but delivery is deliberately NOT asynchronous: a pending
// signal is only ever taken at a monitored syscall boundary, by the
// monitor, so that "when did the signal land" is a position in the
// replicated syscall stream rather than a race. Blocking calls observe
// pending deliverable signals through blocker.interrupted and return EINTR, which
// is what makes a kill able to interrupt a parked read/accept/poll/
// waitpid/nanosleep without tearing the object down.

// Signal numbers, matching Linux's x86-64 values for the subset the
// simulation supports.
const (
	SIGHUP  = 1
	SIGINT  = 2
	SIGQUIT = 3
	SIGKILL = 9
	SIGUSR1 = 10
	SIGUSR2 = 12
	SIGTERM = 15
	SIGCHLD = 17

	// maxSig bounds the signal number space (bits in the pending/blocked
	// masks; signal 0 is the kill(2) existence probe and never pending).
	maxSig = 31

	// SigExitGroup is the pseudo-signal the monitor stamps on a thread's
	// syscall boundary while its process is mid exit-group: the first
	// thread to exit set the flag, and every sibling observes it at its
	// next boundary and unwinds (core panics the thread out and issues
	// SysThreadExit). It deliberately lives OUTSIDE the real signal space
	// (> maxSig): it cannot be sent, blocked, ignored, or caught, and a
	// slave's AckSignal of it is a no-op by construction (sigBit returns
	// 0) — the slave's own exit-group flag is raised by its per-variant
	// execution of the same ordered exit.
	SigExitGroup = maxSig + 1
)

// Signal dispositions, as stored by SysSigaction's Args[1].
const (
	// SigDfl restores the default action: terminate the process for most
	// signals, ignore for SIGCHLD.
	SigDfl = 0
	// SigIgn discards the signal at delivery (and at send time: a signal
	// posted to a process that ignores it is never queued).
	SigIgn = 1
	// SigHandler marks the signal as caught: delivery surfaces it in
	// Ret.Sig and the core layer runs the registered handler.
	SigHandler = 2
)

// SysSigprocmask how values (Args[0]).
const (
	SigBlock   = 0 // add Args[1]'s bits to the blocked mask
	SigUnblock = 1 // remove Args[1]'s bits
	SigSetmask = 2 // replace the mask with Args[1]
)

// WaitAny as SysWaitpid's Args[0] waits for any child (Linux's pid -1).
const WaitAny = ^uint64(0)

// defaultIgnored is the mask of signals whose default disposition is
// "ignore" (SIGCHLD; everything else in the supported set terminates).
const defaultIgnored uint64 = 1 << SIGCHLD

// DefaultTerminates reports whether signo's default action ends the
// process. The core layer consults it when a delivered signal has no
// registered handler.
func DefaultTerminates(signo int) bool {
	if signo <= 0 || signo > maxSig {
		return false
	}
	return defaultIgnored&(1<<uint(signo)) == 0
}

// sigBit returns signo's mask bit, or 0 for an out-of-range signo.
func sigBit(signo int) uint64 {
	if signo <= 0 || signo > maxSig {
		return 0
	}
	return 1 << uint(signo)
}

// deliverableMask returns the set of pending signals that would be
// delivered at the next syscall boundary: pending, not blocked, not
// ignored. Lock-free — three atomic loads — so blocking kernel loops can
// poll it per wakeup without contending the signal table.
func (p *Proc) deliverableMask() uint64 {
	return p.sigPending.Load() &^ p.sigBlocked.Load() &^ p.sigIgnored.Load()
}

// signalPending is true when a deliverable signal is pending. Blocking ops
// never ask it directly: blocker.interrupted is the one predicate.
func (p *Proc) signalPending() bool { return p.deliverableMask() != 0 }

// sendSignal posts signo to p. A signal the process currently ignores is
// discarded at send time (matching the usual Linux shortcut); SIGKILL can
// be neither blocked nor ignored. Returns false for an out-of-range signo.
func (p *Proc) sendSignal(signo int) bool {
	bit := sigBit(signo)
	if bit == 0 {
		return false
	}
	p.sigMu.Lock()
	if p.sigIgnored.Load()&bit == 0 {
		p.sigPending.Or(bit)
	}
	p.sigMu.Unlock()
	return true
}

// Post delivers signo to p from OUTSIDE the MVEE — the operator surface
// behind the fleet's hot-reload trigger. Callers post to the MASTER
// variant's process only (core.Session.Signal): the master observes the
// signal at its next syscall boundary and the delivery then rides the
// replicated record stream into every variant, exactly like an in-guest
// kill. Returns false for an out-of-range signo.
func (p *Proc) Post(signo int) bool {
	if !p.sendSignal(signo) {
		return false
	}
	if p.kern != nil {
		p.kern.signalKick(p)
	}
	return true
}

// TakeSignal pops the lowest-numbered deliverable signal from p's pending
// set, or returns 0. The monitor calls it on the MASTER after executing
// every monitored syscall — that call site, and the replication of its
// result through Ret.Sig, is the whole delivery model: signals land at
// syscall boundaries, in an order the slaves replay. The no-signal fast
// path is three atomic loads and must stay allocation-free (it sits on the
// replication hot path).
func (p *Proc) TakeSignal() uint32 {
	if p.deliverableMask() == 0 {
		return 0
	}
	p.sigMu.Lock()
	m := p.deliverableMask()
	if m == 0 {
		p.sigMu.Unlock()
		return 0
	}
	signo := bits.TrailingZeros64(m)
	p.sigPending.And(^sigBit(signo))
	p.sigMu.Unlock()
	return uint32(signo)
}

// BoundarySig is the monitor's per-boundary delivery probe: an exit-group
// in progress outranks every ordinary signal (the thread is already dead
// from the process's point of view; Linux discards its pending set), so the
// flag is checked first. The no-signal fast path is one extra atomic load
// on top of TakeSignal's three and stays allocation-free — it sits on the
// replication hot path.
func (p *Proc) BoundarySig() uint32 {
	if p.exitGroup.Load() {
		return SigExitGroup
	}
	return p.TakeSignal()
}

// AckSignal consumes signo from p's pending set without delivering it
// locally. Slaves call it (through the monitor) when the master's record
// says a signal was delivered at this boundary: the slave's own pending
// bit — set by its per-variant execution of the same ordered kill — must
// be cleared so it is not delivered twice.
func (p *Proc) AckSignal(signo uint32) {
	bit := sigBit(int(signo))
	if bit == 0 {
		return
	}
	p.sigMu.Lock()
	p.sigPending.And(^bit)
	p.sigMu.Unlock()
}

// recomputeIgnoredLocked refreshes the cached ignored mask from the
// disposition table. Callers hold p.sigMu.
func (p *Proc) recomputeIgnoredLocked() {
	var m uint64
	for s := 1; s <= maxSig; s++ {
		switch p.sigDisp[s] {
		case SigIgn:
			m |= 1 << uint(s)
		case SigDfl:
			m |= defaultIgnored & (1 << uint(s))
		}
	}
	p.sigIgnored.Store(m)
}

// doSigaction implements SysSigaction: set the disposition of Args[0] to
// Args[1]. SIGKILL's disposition is immutable, like Linux.
func (k *Kernel) doSigaction(p *Proc, c Call) Ret {
	signo := int(c.Args[0])
	disp := int(c.Args[1])
	if sigBit(signo) == 0 || signo == SIGKILL ||
		(disp != SigDfl && disp != SigIgn && disp != SigHandler) {
		return Ret{Err: EINVAL}
	}
	p.sigMu.Lock()
	old := p.sigDisp[signo]
	p.sigDisp[signo] = uint8(disp)
	p.recomputeIgnoredLocked()
	if disp == SigIgn {
		// Ignoring a signal discards any pending instance (Linux does the
		// same); without this a later handler registration would deliver a
		// signal sent while it was ignored.
		p.sigPending.And(^sigBit(signo))
	}
	p.sigMu.Unlock()
	return Ret{Val: uint64(old)}
}

// doSigprocmask implements SysSigprocmask. SIGKILL is silently kept
// unblockable. Unblocking a pending signal does NOT deliver it here — the
// return from this very call is a syscall boundary, so the monitor's
// TakeSignal picks it up immediately after.
func (k *Kernel) doSigprocmask(p *Proc, c Call) Ret {
	how := int(c.Args[0])
	bits := c.Args[1] &^ sigBit(SIGKILL)
	p.sigMu.Lock()
	old := p.sigBlocked.Load()
	switch how {
	case SigBlock:
		p.sigBlocked.Store(old | bits)
	case SigUnblock:
		p.sigBlocked.Store(old &^ bits)
	case SigSetmask:
		p.sigBlocked.Store(bits)
	default:
		p.sigMu.Unlock()
		return Ret{Err: EINVAL}
	}
	p.sigMu.Unlock()
	return Ret{Val: old}
}

// doKill implements SysKill: post signal Args[1] to the process whose pid
// is Args[0], then kick every blocking site a thread of the target could
// be parked in. Signal 0 is the existence probe. The target is resolved in
// the CALLER's pid namespace (its variant's process tree), so the pid
// argument is deterministic across variants and participates in divergence
// detection — a variant signalling a different pid or signo mismatches on
// the compared args before anything is delivered.
func (k *Kernel) doKill(p *Proc, c Call) Ret {
	pid := int(c.Args[0])
	signo := int(c.Args[1])
	if signo < 0 || signo > maxSig {
		return Ret{Err: EINVAL}
	}
	k.treeMu.Lock()
	target := p.ns.byVpid[pid]
	dead := target == nil || target.state != procRunning
	k.treeMu.Unlock()
	if dead {
		return Ret{Err: ESRCH}
	}
	if signo == 0 {
		return Ret{}
	}
	if !target.sendSignal(signo) {
		return Ret{Err: EINVAL}
	}
	k.signalKick(target)
	return Ret{}
}

// signalKick wakes every blocking site a thread of target could be parked
// in, so it re-checks the deliverable-signal predicate and unwinds with
// EINTR. The sites are: the target's own parker (nanosleep), the tree cond
// (waitpid), the kernel poll wait set, and every tracked pipe/listener
// cond. Kicking ALL blockables instead of tracking which objects the
// target's threads are inside keeps the bookkeeping out of the blocking
// hot paths — kills are orders of magnitude rarer than reads, and a
// spurious wake costs one predicate re-check.
func (k *Kernel) signalKick(target *Proc) {
	target.sigPark.Wake()
	k.treeMu.Lock()
	k.treeWake()
	k.treeMu.Unlock()
	k.pollPark.Wake()
	k.intMu.Lock()
	for x := range k.blockables {
		x.kick()
	}
	k.intMu.Unlock()
}
