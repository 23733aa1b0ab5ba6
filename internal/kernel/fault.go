package kernel

import "time"

// Fault injection: the kernel-side half of the chaos plane (DESIGN.md §8).
// The kernel owns every descriptor and every blocking call, so faults that a
// real-kernel MVEE could only observe non-deterministically — a slow NIC, a
// reset connection, a short read — can be injected here as decisions made
// exactly once, in the master's execution of a replicated call. The decision
// rides the replicated Record (Ret.Inj), so every variant observes the
// identical fault and lockstep never breaks.
//
// The kernel deliberately knows nothing about plans, rates, or seeds: it
// defines the FaultOp/FaultDecision vocabulary and asks an installed
// FaultInjector (internal/chaos implements one) to decide. With no injector
// installed the cost is a single nil check in Do.

// FaultTarget classifies the object a fault-eligible call is about to touch,
// the vocabulary fault plans select on (target=pipe, target=listener:80, …).
type FaultTarget uint8

const (
	// FaultNone marks a call that is not fault-eligible.
	FaultNone FaultTarget = iota
	// FaultPipe: reads/writes on pipe descriptors from pipe2.
	FaultPipe
	// FaultSocket: reads/writes/recv/send on connected sockets.
	FaultSocket
	// FaultListener: accepts on listening sockets (Port carries the bound
	// port, so plans can single out listener:80).
	FaultListener
	// FaultPoll: poll calls. Poll watches many descriptors at once, so it
	// gets its own class instead of inheriting one fd's.
	FaultPoll
	// FaultSleep: nanosleep. Only added latency is meaningful here.
	FaultSleep
)

var faultTargetNames = map[FaultTarget]string{
	FaultNone: "none", FaultPipe: "pipe", FaultSocket: "socket",
	FaultListener: "listener", FaultPoll: "poll", FaultSleep: "sleep",
}

// String implements fmt.Stringer.
func (t FaultTarget) String() string {
	if n, ok := faultTargetNames[t]; ok {
		return n
	}
	return "target?"
}

// FaultOp describes one fault-eligible syscall about to execute: what call,
// against what kind of object, and (for listeners) on which port.
type FaultOp struct {
	Nr   Sysno
	Kind FaultTarget
	Port uint16 // listener port; 0 when the object has none
	Len  int    // payload length for writes/sends, 0 otherwise
}

// FaultDecision is an injector's verdict for one FaultOp. The zero value
// means "no fault". Fields compose: a call can be delayed AND then fail.
type FaultDecision struct {
	// Delay is added latency, slept interruptibly (a deliverable signal or
	// session teardown still EINTRs the call) before anything else happens.
	Delay time.Duration
	// Err, when non-zero, fails the call with this errno without executing
	// it (EIO, ECONNRESET, EAGAIN, …).
	Err Errno
	// Timeout forces timeout semantics: poll returns no ready descriptors
	// as if its timeout expired; blocking reads/recvs/accepts return
	// EAGAIN as if the object were non-blocking and idle.
	Timeout bool
	// Short truncates the transfer: reads ask the object for at most half
	// the requested count, writes submit at most half the payload. The
	// guest sees a legitimate short transfer — no bytes are lost from the
	// stream.
	Short bool
}

// FaultInjector decides faults for eligible calls. Implementations must be
// safe for concurrent use and deterministic for a deterministic call
// sequence (internal/chaos uses a seeded counter PRNG). Decide returns
// ok=false for "execute normally".
type FaultInjector interface {
	Decide(op FaultOp) (d FaultDecision, ok bool)
}

// Injection markers carried in Ret.Inj, a bitmask of the fault classes that
// fired on the call. They travel in the replicated record (and in captured
// traces, wire format v4) so slaves and replays observe the master's faults
// bit-for-bit, and so telemetry can count injections without guessing.
const (
	InjLatency uint8 = 1 << 0 // added latency was injected
	InjError   uint8 = 1 << 1 // the errno was injected, not earned
	InjTimeout uint8 = 1 << 2 // timeout semantics were forced
	InjShort   uint8 = 1 << 3 // the transfer was truncated
)

// SetInjector installs a fault injector. Install before the kernel serves
// calls (session construction); a nil injector disables injection.
func (k *Kernel) SetInjector(fi FaultInjector) { k.injector = fi }

// faultOp classifies a call for injection. Only replicated calls that the
// master alone executes are eligible — injecting a per-variant call (mmap,
// fork, kill) would draw from the PRNG once per variant and diverge the
// decision sequence. Descriptor lookups here are advisory: on any lookup
// miss the call is declared ineligible and the normal path reports the
// error.
func (k *Kernel) faultOp(p *Proc, c Call) (FaultOp, bool) {
	switch c.Nr {
	case SysRead, SysWrite, SysRecv, SysSend, SysAccept:
		ref, errno := p.lookupFD(int(c.Args[0]))
		if errno != OK {
			return FaultOp{}, false
		}
		op := FaultOp{Nr: c.Nr, Len: len(c.Data)}
		switch o := ref.obj.(type) {
		case *listener:
			op.Kind, op.Port = FaultListener, o.port
		case *socketObj:
			op.Kind = FaultSocket
		case *readEnd, *writeEnd:
			op.Kind = FaultPipe
		default:
			// Files never block and never fail transiently; leave them out.
			return FaultOp{}, false
		}
		return op, true
	case SysPoll:
		return FaultOp{Nr: c.Nr, Kind: FaultPoll}, true
	case SysNanosleep:
		return FaultOp{Nr: c.Nr, Kind: FaultSleep}, true
	}
	return FaultOp{}, false
}

// injectedDo is Do's slow path when an injector is installed: classify,
// decide, apply. Latency first (interruptibly), then injected errors, then
// forced timeouts; short transfers shrink the request before the real
// dispatch runs, so the byte stream stays intact.
func (k *Kernel) injectedDo(p *Proc, c Call) Ret {
	op, ok := k.faultOp(p, c)
	if !ok {
		return k.dispatch(p, c)
	}
	d, ok := k.injector.Decide(op)
	if !ok {
		return k.dispatch(p, c)
	}
	// Not every fault class makes sense everywhere: a sleep can only be
	// stretched (nanosleep has no errno for EIO, and "timing out" a sleep
	// is just a shorter sleep), and a poll can be delayed or forced to
	// expire but not fail with an I/O errno. Scrub the decision rather
	// than asking every plan to carve out targets.
	switch op.Kind {
	case FaultSleep:
		d = FaultDecision{Delay: d.Delay}
	case FaultPoll:
		d.Err, d.Short = OK, false
	}
	if d == (FaultDecision{}) {
		return k.dispatch(p, c)
	}
	var inj uint8
	if d.Delay > 0 {
		inj |= InjLatency
		if errno := k.sleepFor(p.blk(c.Tid, 0), d.Delay); errno != OK {
			// The injected delay was interrupted: the call reports EINTR at
			// its boundary exactly like an interrupted sleep, so signal
			// delivery semantics survive injection.
			return Ret{Err: errno, Inj: inj}
		}
	}
	if d.Err != OK {
		return Ret{Err: d.Err, Inj: inj | InjError}
	}
	if d.Timeout {
		inj |= InjTimeout
		if c.Nr == SysPoll {
			out, n, errno := pollOut(c)
			if errno != OK {
				return k.dispatch(p, c) // malformed polls keep their EINVAL
			}
			// As-if-expired: every revents field zero. Mirrors doPoll's
			// timeout return shape (a scrubbed copy of the pollfd array).
			for i := 0; i < n; i++ {
				putRevents(out, i, 0)
			}
			return Ret{Data: out, Inj: inj}
		}
		return Ret{Err: EAGAIN, Inj: inj}
	}
	if d.Short {
		switch c.Nr {
		case SysRead, SysRecv:
			if c.Args[1] > 1 {
				c.Args[1] = (c.Args[1] + 1) / 2
				inj |= InjShort
			}
		case SysWrite, SysSend:
			if len(c.Data) > 1 {
				c.Data = c.Data[:(len(c.Data)+1)/2]
				inj |= InjShort
			}
		}
	}
	r := k.dispatch(p, c)
	r.Inj |= inj
	return r
}

// sleepFor waits for d on the kernel clock, interruptibly: an interrupt or
// session teardown ends the wait with EINTR. It is the single deadline loop
// behind both nanosleep and injected latency, running the parker's
// FUTEX_WAIT protocol (announce, re-check, park with a one-shot clock
// timer) on the calling process's parker. Timed, so it never registers a
// deadlock cell.
func (k *Kernel) sleepFor(w blocker, d time.Duration) Errno {
	deadline := k.clock.Now().Add(d)
	pk := &w.p.sigPark
	for {
		if w.interrupted() || k.stopped() {
			return EINTR
		}
		remaining := deadline.Sub(k.clock.Now())
		if remaining <= 0 {
			return OK
		}
		g := pk.Prepare()
		if w.interrupted() || k.stopped() || !k.clock.Now().Before(deadline) {
			pk.Cancel()
			continue
		}
		tm := k.clock.AfterFunc(remaining, pk.Wake)
		pk.Park(g)
		tm.Stop()
	}
}
