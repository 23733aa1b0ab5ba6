package kernel

import (
	"encoding/binary"
	"time"
)

// SysPoll: fd-set readiness over the uniform object header (see object.go).
//
// The call's Data payload is the pollfd array in a fixed wire layout, so
// the fd set is an ordinary compared payload for the monitor — two
// variants polling different descriptor sets diverge exactly like two
// variants writing different bytes. Args[0] is the entry count, Args[1]
// the timeout in nanoseconds (PollNoTimeout blocks indefinitely, 0 never
// blocks). The result's Data is a copy of the input array with revents
// filled in; Val is the number of entries with a non-zero revents. With a
// caller-supplied destination (Call.Buf) that copy is written into Buf's
// prefix and Data aliases it, exactly as for recv, so an event loop polls
// without allocating; a Buf shorter than the fd set is EINVAL.
//
// Blocking pollers park on the kernel's poll wait set (a futex.Parker):
// every pipe/listener state change that could flip readiness calls
// pollWake through the object header, so a parked poller costs zero CPU
// and the wake is one atomic load when nobody polls. Parking is
// allocation-free; only a finite timeout arms a timer.

// Poll event bits, matching Linux's poll(2) values.
const (
	PollIn   = 0x0001 // readable without blocking (data, EOF, or pending accept)
	PollOut  = 0x0004 // writable without blocking
	PollErr  = 0x0008 // error condition (broken pipe)
	PollHup  = 0x0010 // hang-up (peer closed / listener closed)
	PollNval = 0x0020 // invalid descriptor, or a handle whose object was recycled
)

// PollNoTimeout as Args[1] blocks the poll until an event arrives.
const PollNoTimeout = ^uint64(0)

// PollFDSize is the wire size of one pollfd entry in the Data payload:
// fd uint32 | events uint16 | revents uint16, little-endian.
const PollFDSize = 8

// EncodePollFD writes entry i of a pollfd array (revents zeroed). The
// caller supplies the buffer — sized n*PollFDSize — so a poll loop reuses
// one array across calls instead of allocating per poll.
func EncodePollFD(b []byte, i int, fd int, events uint16) {
	e := b[i*PollFDSize:]
	binary.LittleEndian.PutUint32(e, uint32(fd))
	binary.LittleEndian.PutUint16(e[4:], events)
	binary.LittleEndian.PutUint16(e[6:], 0)
}

// DecodePollFD reads entry i of a pollfd array.
func DecodePollFD(b []byte, i int) (fd int, events, revents uint16) {
	e := b[i*PollFDSize:]
	return int(binary.LittleEndian.Uint32(e)),
		binary.LittleEndian.Uint16(e[4:]),
		binary.LittleEndian.Uint16(e[6:])
}

// DecodeRevents reads entry i's revents from a poll result payload.
func DecodeRevents(b []byte, i int) uint16 {
	return binary.LittleEndian.Uint16(b[i*PollFDSize+6:])
}

func putRevents(b []byte, i int, ev uint16) {
	binary.LittleEndian.PutUint16(b[i*PollFDSize+6:], ev)
}

// pollScan fills out's revents from the current readiness of each entry's
// descriptor and returns how many entries are ready. A dead descriptor
// reports PollNval (and counts as ready: the caller must be told, not
// parked forever on an fd that cannot produce events).
//
// The whole scan runs under one Proc.mu hold — the scan re-runs on every
// wake, and a per-fd lookupFD would pay two lock round-trips per entry
// per wake on the evented serving path. Object poll() methods take their
// own pipe/listener locks inside; the p.mu → object-lock order matches
// every other kernel path (nothing acquires p.mu while holding an object
// lock).
func (k *Kernel) pollScan(p *Proc, out []byte, n int) int {
	ready := 0
	p.mu.Lock()
	for i := 0; i < n; i++ {
		fd, events, _ := DecodePollFD(out, i)
		e := p.fdt.get(fd)
		var rev uint16
		if e == nil {
			rev = PollNval
		} else {
			// Errors and hang-ups are always reported, like poll(2);
			// everything else is masked by the caller's interest set.
			rev = uint16(e.obj.poll()) & (events | PollErr | PollHup | PollNval)
		}
		putRevents(out, i, rev)
		if rev != 0 {
			ready++
		}
	}
	p.mu.Unlock()
	return ready
}

// pollOut validates a poll call's arguments and returns the array its
// result is written to: a copy of the input fd set, never the input itself
// (the input payload is compared across variants and may sit in a
// replication ring slot, so revents are never written over it in place).
// The copy lands in Call.Buf when the caller supplies one, else in a fresh
// slice. errno is EINVAL for a count that disagrees with the payload or a
// Buf too short to hold the result.
func pollOut(c Call) (out []byte, n int, errno Errno) {
	n = int(c.Args[0])
	if n < 0 || n > maxFDs || n*PollFDSize != len(c.Data) {
		return nil, 0, EINVAL
	}
	if c.Buf == nil {
		out = make([]byte, len(c.Data))
	} else if len(c.Buf) < len(c.Data) {
		return nil, 0, EINVAL
	} else {
		out = c.Buf[:len(c.Data)]
	}
	copy(out, c.Data)
	return out, n, OK
}

// doPoll implements SysPoll. It may block; the monitor classifies poll as
// a blocking replicated call (master executes, result replicated), so only
// the master's thread ever parks here.
func (k *Kernel) doPoll(p *Proc, c Call) Ret {
	out, n, errno := pollOut(c)
	if errno != OK {
		return Ret{Err: errno}
	}
	timeout := c.Args[1]
	if timeout > uint64(1<<63-1) {
		// Clamp: a nanosecond count past time.Duration's range (292 years)
		// would overflow negative and turn the poll into a busy return.
		timeout = PollNoTimeout
	}
	var deadline time.Time
	if timeout != PollNoTimeout && timeout != 0 {
		deadline = k.clock.Now().Add(time.Duration(timeout))
		// One wake at the deadline for the whole call (the parked poller
		// re-checks and returns 0 events), armed up front: the wait set is
		// kernel-wide, so a busy kernel wakes the loop spuriously many
		// times, and re-arming per park would allocate a timer per wake.
		// The timer allocates once; event loops that must stay
		// allocation-free poll with PollNoTimeout and rely on wakeups.
		tm := k.clock.AfterFunc(time.Duration(timeout), k.pollPark.Wake)
		defer tm.Stop()
	}
	w := p.blk(c.Tid, n)
	for {
		if ready := k.pollScan(p, out, n); ready > 0 {
			return Ret{Val: uint64(ready), Data: out}
		}
		if timeout == 0 || (timeout != PollNoTimeout && !k.clock.Now().Before(deadline)) {
			return Ret{Data: out}
		}
		if k.stopped() {
			// Session teardown: report the scan as-is rather than parking
			// on a dying kernel (an empty fd set would never wake).
			return Ret{Data: out, Err: EBADF}
		}
		if w.interrupted() {
			// An interrupt ends a poll that would otherwise sleep (a ready
			// scan above already returned, matching Linux: poll with ready
			// fds wins over EINTR). signalKick wakes the poll wait set, so
			// a parked poller gets here promptly.
			return Ret{Data: out, Err: EINTR}
		}
		// FUTEX_WAIT protocol on the kernel's poll wait set: announce,
		// re-check readiness AND the deadline (a state change — or the
		// deadline timer's one-shot Wake, which is a no-op while nobody
		// has Prepared — landing between the checks above and the
		// announcement would otherwise be a lost wakeup), then park.
		g := k.pollPark.Prepare()
		if k.pollScan(p, out, n) > 0 || k.stopped() || w.interrupted() ||
			(timeout != PollNoTimeout && !k.clock.Now().Before(deadline)) {
			k.pollPark.Cancel()
			continue
		}
		if timeout == PollNoTimeout && w.armed() && k.pollAllInternal(p, out, n) {
			// An untimed poll over exclusively internal descriptors is a
			// detectable sleep: no timer will end it and no host-side wake
			// can flip its readiness.
			w.parkPoll(&k.pollPark, g)
		}
		k.pollPark.Park(g)
		w.unpark()
	}
}

// pollAllInternal reports whether every descriptor in the poll set is
// backed by internal (guest-only) pipes — the condition under which a
// parked untimed poller counts toward a deadlock verdict. Anything else —
// a listener (host Connect enqueues into it), an external connection pipe,
// a dead fd, a file — disqualifies the set, erring toward false negatives.
func (k *Kernel) pollAllInternal(p *Proc, out []byte, n int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < n; i++ {
		fd, _, _ := DecodePollFD(out, i)
		e := p.fdt.get(fd)
		if e == nil {
			return false
		}
		ok := false
		switch o := e.obj.(type) {
		case *readEnd:
			ok = o.p.isInternal()
		case *writeEnd:
			ok = o.p.isInternal()
		case *socketObj:
			rx, tx := o.rx.Load(), o.tx.Load()
			ok = rx != nil && tx != nil && rx.isInternal() && tx.isInternal()
		}
		if !ok {
			return false
		}
	}
	return true
}
