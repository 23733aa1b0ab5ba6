package kernel

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/futex"
)

// Kernel is one simulated machine: a shared file system and network plus
// per-process state. All variants of one MVEE session run against the same
// Kernel, just as they run on the same host in the paper.
type Kernel struct {
	fs  *fileSystem
	net *netStack

	procMu  sync.Mutex
	procs   map[int]*Proc
	nextPid int

	// treeMu guards every process tree's parent/children/zombie state and
	// the pid namespaces; treeCond (bound to it) wakes blocked waitpids on
	// child exits, kills, and teardown. See process.go.
	treeMu   sync.Mutex
	treeCond sync.Cond
	// treeSeq counts treeCond broadcasts (bumped under treeMu by treeWake)
	// — the waitpid analogue of pipe.wakeSeq: a blocked waitpid's deadlock
	// cell records the sequence it parked at, and a moved sequence proves a
	// wake in flight.
	treeSeq atomic.Uint64

	// clock is the kernel's time source (real by default). Every deadline
	// site — nanosleep, poll, injected latency, gettimeofday — goes through
	// it, so tests and soaks can run on virtual or accelerated time.
	clock Clock
	// injector, when non-nil, decides fault injection for eligible calls
	// (see fault.go). The nil check in Do is the entire disabled-path cost.
	injector FaultInjector

	start time.Time
	// logical advances once per clock read so that two gettimeofday calls
	// never return the identical instant — the property the covert
	// channel PoC (§5.4) depends on.
	logical atomic.Uint64
	// sleeps counts executed nanosleeps. Under the monitor only the
	// master's sleep reaches the kernel (slaves consume the replicated
	// result), and tests assert exactly that.
	sleeps atomic.Uint64

	// Interruption support: when the monitor tears the session down (on
	// divergence), every blockable object is force-closed so that threads
	// parked in the kernel unwind.
	intMu       sync.Mutex
	interrupted bool
	blockables  map[interruptible]struct{}

	// pollPark is the kernel-wide poll wait set: SysPoll callers with no
	// ready descriptor park here, and every object state change that could
	// flip readiness wakes it through the object header (objHeader.pollWake
	// — one atomic load when nobody polls). One wait set per kernel is
	// deliberate, mirroring ring.Log's single wait set: wakes broadcast and
	// pollers re-scan, so sharing costs only spurious re-scans, while
	// per-object wait sets would force a poller to park on N queues at
	// once.
	pollPark futex.Parker

	// Per-connection object pools. Serving traffic means two pipes and a
	// socket endpoint per connection; recycling them (buffers included,
	// reset on put) keeps Connect/Accept off the allocator on the serving
	// hot path. The pools are per kernel, not package-global, so a pipe
	// can never migrate between sessions — the interrupt path may close a
	// just-recycled pipe, and that must only ever hit the session being
	// torn down.
	pipePool sync.Pool
	sockPool sync.Pool
}

// interruptible objects can be force-closed at session teardown
// (interrupt) and prodded to re-check their blocking predicates without
// state loss (kick — the signal-delivery path: a woken waiter re-checks
// the deliverable-signal predicate and unwinds with EINTR).
type interruptible interface {
	interrupt()
	kick()
}

// track registers a blockable object; if the kernel is already interrupted
// the object is closed immediately.
func (k *Kernel) track(x interruptible) {
	k.intMu.Lock()
	dead := k.interrupted
	if !dead {
		if k.blockables == nil {
			k.blockables = make(map[interruptible]struct{})
		}
		k.blockables[x] = struct{}{}
	}
	k.intMu.Unlock()
	if dead {
		x.interrupt()
	}
}

// untrack forgets a blockable whose lifetime ended on its own. Without it,
// every connection's pipes would stay pinned on the interrupt list (buffers
// included) for the whole session — unbounded live-heap growth that the
// collector re-scans on every cycle while the server is under load.
// Kernel-owned pipes untrack themselves through releasePipe once they are
// dead and drained, on their way back into the pipe pool.
func (k *Kernel) untrack(x interruptible) {
	k.intMu.Lock()
	delete(k.blockables, x)
	k.intMu.Unlock()
}

// stopped reports whether the kernel has been interrupted (session
// teardown). Blocking poll loops check it so they unwind instead of
// re-parking on a dying kernel.
func (k *Kernel) stopped() bool {
	k.intMu.Lock()
	s := k.interrupted
	k.intMu.Unlock()
	return s
}

// Interrupt force-closes every pipe, socket and listener so that any thread
// blocked in the kernel returns with an error or EOF. It is idempotent.
func (k *Kernel) Interrupt() {
	k.intMu.Lock()
	k.interrupted = true
	blockables := k.blockables
	k.blockables = nil
	k.intMu.Unlock()
	for x := range blockables {
		x.interrupt()
	}
	// Closing the blockables flipped their readiness; parked pollers must
	// re-scan (and see the hang-ups, or the stopped flag) to unwind.
	k.pollPark.Wake()
	// Waitpid waiters and nanosleepers park on conds/parkers of their own:
	// wake them so they observe the stopped flag and return EINTR.
	k.treeMu.Lock()
	k.treeWake()
	k.treeMu.Unlock()
	k.procMu.Lock()
	for _, p := range k.procs {
		p.sigPark.Wake()
	}
	k.procMu.Unlock()
}

// treeWake broadcasts the tree cond, bumping the wake sequence first so a
// waitpid deadlock cell registered before this wake is provably stale.
// Callers hold k.treeMu (which is also what orders the bump against cell
// registration — waitpid samples treeSeq under the same lock).
func (k *Kernel) treeWake() {
	k.treeSeq.Add(1)
	k.treeCond.Broadcast()
}

// New creates an empty kernel.
func New() *Kernel {
	k := &Kernel{
		fs:      newFileSystem(),
		net:     newNetStack(),
		procs:   make(map[int]*Proc),
		nextPid: 1000,
		clock:   realClock{},
		start:   time.Now(),
	}
	k.treeCond.L = &k.treeMu
	return k
}

// SetClock installs an alternative time source and re-anchors the kernel's
// epoch on it. Call it before the kernel serves calls (it is not
// synchronized against in-flight syscalls).
func (k *Kernel) SetClock(c Clock) {
	k.clock = c
	k.start = c.Now()
}

// NewProc registers a new process whose heap and mmap regions start at the
// given (diversified) bases.
func (k *Kernel) NewProc(brkBase, mmapBase uint64) *Proc {
	k.procMu.Lock()
	pid := k.nextPid
	k.nextPid++
	p := NewProc(pid, NewAddressSpace(brkBase, mmapBase))
	p.kern = k
	k.procs[pid] = p
	k.procMu.Unlock()
	return p
}

// WriteFile creates (or replaces) a file, for test and workload setup.
func (k *Kernel) WriteFile(path string, data []byte) {
	ino, _ := k.fs.create(path, false)
	ino.truncate(0)
	ino.writeAt(data, 0)
}

// ReadFile returns a copy of a file's content, for assertions in tests.
func (k *Kernel) ReadFile(path string) ([]byte, bool) {
	ino, ok := k.fs.lookup(path)
	if !ok {
		return nil, false
	}
	buf := make([]byte, ino.size())
	ino.readAt(buf, 0)
	return buf, true
}

// Listen opens a listener on port from outside the MVEE (used by clients in
// tests); servers under the MVEE use SysSocket/SysBind/SysListen instead.
func (k *Kernel) Listen(port uint16, backlog int) (*listener, Errno) {
	l := newListener(k, port, backlog)
	k.track(l)
	if errno := k.net.bind(port, l); errno != OK {
		k.abortListener(l) // same invariant as doListen: failed binds must not pin the interrupt list
		return nil, errno
	}
	return l, OK
}

// CloseListener shuts down the listener bound to port (from outside the
// MVEE), causing pending and future accepts to fail — the orderly way for
// tests and examples to stop a server program.
func (k *Kernel) CloseListener(port uint16) {
	if l, ok := k.net.lookup(port); ok {
		l.close()
		k.net.unbind(port)
	}
}

// Connect establishes a loopback connection to port and returns the client
// endpoint BY VALUE. Client code in tests and load generators talks to the
// server through the returned ClientConn. The connection's pipes come from
// the kernel's pool and the conn travels into the listener backlog by
// copy, so a connect allocates nothing — the serving connect path's only
// remaining allocation is the exact-sized recv result on the server side.
func (k *Kernel) Connect(port uint16) (ClientConn, Errno) {
	l, ok := k.net.lookup(port)
	if !ok {
		return ClientConn{}, ECONNREFUSED
	}
	c := conn{toServer: k.getPipe(), fromServer: k.getPipe()}
	cc := ClientConn{c: c, toGen: c.toServer.generation(), fromGen: c.fromServer.generation()}
	// The host holds one end of both pipes: a guest thread sleeping on
	// either can be woken from outside the guest, so these sleeps must
	// never count toward a deadlock verdict.
	c.toServer.markExternal()
	c.fromServer.markExternal()
	k.track(c.toServer)
	k.track(c.fromServer)
	if errno := k.enqueueChasing(l, c, port); errno != OK {
		// Close both pipes so they recycle: a refused connect (full
		// backlog under overload) must not pin its pipes on the interrupt
		// list for the session's lifetime.
		c.toServer.interrupt()
		c.fromServer.interrupt()
		return ClientConn{}, errno
	}
	return cc, OK
}

// enqueueChasing enqueues cn on l, chasing the port's current listener if a
// hot-restart handoff (doListen takeover) swapped it between the caller's
// lookup and the enqueue: the old listener refuses (closed), but the
// connection was never dropped by the guest, so it belongs in the
// successor's backlog. The loop terminates because a re-looked-up listener
// that still refuses is only replaced by a DIFFERENT successor; seeing the
// same (or no) listener twice means the refusal is real.
func (k *Kernel) enqueueChasing(l *listener, cn conn, port uint16) Errno {
	errno := l.enqueue(cn)
	for errno == ECONNREFUSED {
		nl, ok := k.net.lookup(port)
		if !ok || nl == l {
			break
		}
		l = nl
		errno = l.enqueue(cn)
	}
	return errno
}

// ClientConn is the client-side view of a loopback connection, used by
// load generators that live outside the MVEE. Every operation carries the
// generation the pipes were acquired at, so a call that arrives after the
// connection's pipes have been recycled — a gateway watchdog's Close
// racing the request path, a Read after Close — gets EBADF instead of
// touching a successor connection. ClientConn is a value type: copies
// share the same pipes and the same generation stamps, so copying is
// harmless, and returning one from Connect costs no heap allocation.
type ClientConn struct {
	c              conn
	toGen, fromGen uint64
}

// Write sends data toward the server.
func (cc ClientConn) Write(p []byte) (int, error) {
	n, errno := cc.c.toServer.send(cc.toGen, bytesSource(p), blocker{})
	if errno != OK {
		return n, errno
	}
	return n, nil
}

// Read receives data from the server; it returns n==0 and nil error at EOF.
func (cc ClientConn) Read(p []byte) (int, error) {
	got, errno := cc.c.fromServer.recv(cc.fromGen, p, len(p), blocker{})
	if errno != OK {
		return 0, errno
	}
	return len(got), nil
}

// Close shuts down the client side of the connection. It is idempotent
// (the generation check absorbs repeats and late watchdog closes: once
// the pipes' lifetime has moved on, Close is a no-op).
func (cc ClientConn) Close() {
	cc.c.toServer.shut(cc.toGen, false, true)
	cc.c.fromServer.shut(cc.fromGen, true, false)
}

// nowNanos returns a strictly increasing timestamp: real elapsed time mixed
// with a logical increment so that consecutive reads always differ.
//
// Two reads never return the same value even zero time apart, which means
// a gettimeofday executed once per variant would be a guaranteed
// benign-divergence source; the monitor therefore executes wall-clock
// reads in the master only and replicates the value (see
// monitor.classify).
func (k *Kernel) nowNanos() uint64 {
	return uint64(k.clock.Now().Sub(k.start).Nanoseconds()) + k.logical.Add(1)
}

// Sleeps reports how many nanosleeps the kernel actually executed (slept
// for). Tests use it to prove slaves consume the master's replicated
// nanosleep result instead of re-paying the sleep.
func (k *Kernel) Sleeps() uint64 { return k.sleeps.Load() }

// ProcCount reports the number of live (running or zombie, not yet
// reaped) processes across every variant. Tests use it to prove forked
// workers are reaped rather than leaked: after a clean multi-process run
// only the per-variant root processes remain.
func (k *Kernel) ProcCount() int {
	k.procMu.Lock()
	defer k.procMu.Unlock()
	return len(k.procs)
}

// Do executes one system call on behalf of process p. It may block (pipe
// reads, accept, poll, nanosleep) — the monitor is responsible for only
// routing calls here in accordance with its synchronization model.
//
// With a fault injector installed, eligible calls detour through
// injectedDo (fault.go) first; without one, the nil check below is the
// whole cost of having the chaos plane compiled in.
func (k *Kernel) Do(p *Proc, c Call) Ret {
	if k.injector != nil {
		return k.injectedDo(p, c)
	}
	return k.dispatch(p, c)
}

func (k *Kernel) dispatch(p *Proc, c Call) Ret {
	switch c.Nr {
	case SysOpen:
		return k.doOpen(p, c)
	case SysClose:
		return k.doClose(p, c)
	case SysRead:
		return k.doRead(p, c)
	case SysWrite:
		return k.doWrite(p, c)
	case SysPread:
		return k.doPread(p, c)
	case SysPwrite:
		return k.doPwrite(p, c)
	case SysLseek:
		return k.doLseek(p, c)
	case SysStat:
		return k.doStat(c)
	case SysUnlink:
		return retErr(k.fs.unlink(string(c.Data)))
	case SysDup:
		fd, errno := p.dupFD(int(c.Args[0]))
		return Ret{Val: uint64(fd), Err: errno}
	case SysPipe2:
		return k.doPipe(p)
	case SysFtruncate:
		return k.doFtruncate(p, c)
	case SysBrk:
		return Ret{Val: p.AS.Brk(c.Args[0])}
	case SysMmap:
		addr, errno := p.AS.Mmap(c.Args[1])
		return Ret{Val: addr, Err: errno}
	case SysMunmap:
		return retErr(p.AS.Munmap(c.Args[0], c.Args[1]))
	case SysClone:
		return k.doClone(p, c)
	case SysThreadExit:
		return k.doThreadExit(p)
	case SysMprotect:
		if !p.AS.Mapped(c.Args[0]) {
			return Ret{Err: ENOMEM}
		}
		return Ret{}
	case SysGettimeofday, SysClockGettime:
		return Ret{Val: k.nowNanos()}
	case SysNanosleep:
		return k.doNanosleep(p, c)
	case SysSchedYield:
		runtime.Gosched()
		return Ret{}
	case SysGetpid:
		// The guest-visible pid is the deterministic namespace pid, not
		// the kernel-internal one: guests feed it back into kill/waitpid,
		// whose arguments are compared across variants.
		return Ret{Val: uint64(p.vpid)}
	case SysFork:
		return k.doFork(p)
	case SysExit:
		return k.doExit(p, c)
	case SysWaitpid:
		return k.doWaitpid(p, c)
	case SysKill:
		return k.doKill(p, c)
	case SysSigaction:
		return k.doSigaction(p, c)
	case SysSigprocmask:
		return k.doSigprocmask(p, c)
	case SysSocket:
		// The descriptor is allocated at connect/accept/listen time in
		// this simplified stack; socket() reserves a placeholder (the
		// endpoint pipes are attached by connect, so none are created
		// here). The placeholder comes from the endpoint pool.
		fd, errno := p.allocFD(k.getSock(), 0, 0)
		return Ret{Val: uint64(fd), Err: errno}
	case SysBind, SysListen:
		return k.doListen(p, c)
	case SysAccept:
		return k.doAccept(p, c)
	case SysConnect:
		return k.doConnect(p, c)
	case SysSend:
		return k.doWrite(p, c)
	case SysRecv:
		return k.doRead(p, c)
	case SysShutdown:
		return k.doClose(p, c)
	case SysPoll:
		return k.doPoll(p, c)
	case SysWritev:
		return k.doWritev(p, c)
	case SysSendfile:
		return k.doSendfile(p, c)
	default:
		return Ret{Err: ENOSYS}
	}
}

func retErr(errno Errno) Ret { return Ret{Err: errno} }

// doNanosleep sleeps for Args[0] nanoseconds, interruptibly: a deliverable
// signal arriving mid-sleep wakes the sleeper (kill's signalKick wakes the
// proc's parker) and the call returns EINTR so the boundary can deliver
// it. Only the master ever executes this (nanosleep is replicated), so the
// sleeps counter still counts exactly the paid sleeps. The deadline loop
// itself is sleepFor (fault.go) — the same clock-driven wait that injected
// latency uses, so both honor virtual time and kill identically.
func (k *Kernel) doNanosleep(p *Proc, c Call) Ret {
	k.sleeps.Add(1)
	return retErr(k.sleepFor(p.blk(c.Tid, 0), time.Duration(c.Args[0])))
}

// doClose implements SysClose/SysShutdown. A successful close flips the
// fd's poll readiness to PollNval, and not every close path reaches a
// pipe wake (an unconnected socket() placeholder, a file, a non-last
// close of a dup'd descriptor touch no pipe or listener) — so the close
// itself wakes the poll wait set, keeping pollScan's promise that a dead
// fd is reported rather than parked on forever.
func (k *Kernel) doClose(p *Proc, c Call) Ret {
	errno := p.closeFD(int(c.Args[0]))
	if errno == OK {
		k.pollPark.Wake()
	}
	return retErr(errno)
}

func (k *Kernel) doOpen(p *Proc, c Call) Ret {
	path := string(c.Data)
	flags := int(c.Args[0])
	var ino *inode
	if flags&OCreat != 0 {
		var errno Errno
		ino, errno = k.fs.create(path, flags&OExcl != 0)
		if errno != OK {
			return Ret{Err: errno}
		}
	} else {
		var ok bool
		ino, ok = k.fs.lookup(path)
		if !ok {
			return Ret{Err: ENOENT}
		}
	}
	if flags&OTrunc != 0 {
		ino.truncate(0)
	}
	f := &fileObj{ino: ino}
	f.hdr.kern = k
	var off int64
	if flags&OAppend != 0 {
		off = ino.size()
	}
	fd, errno := p.allocFD(f, flags, off)
	if errno != OK {
		return Ret{Err: errno}
	}
	return Ret{Val: uint64(fd)}
}

// guestCount reads a byte count the guest chose. A word that does not fit
// an int — a negative count, as the guest wrote it — is EINVAL here, before
// any handler sizes anything from it; what does fit is still only a
// request, clamped by every path to the bytes that exist before it
// allocates (recv: the bytes pending; files: the bytes remaining).
func guestCount(raw uint64) (int, Errno) {
	if raw > math.MaxInt {
		return 0, EINVAL
	}
	return int(raw), OK
}

// guestOffset reads an explicit file offset the guest chose; negative is
// EINVAL, like Linux (and would index the inode out of range).
func guestOffset(raw uint64) (int64, Errno) {
	if int64(raw) < 0 {
		return 0, EINVAL
	}
	return int64(raw), OK
}

// lockOffset locks the open file description behind ref for an operation
// that reads or moves its shared offset. The offset (like the access mode)
// lives in the description, so two descriptors from dup(2) or fork observe
// each other's transfers; the generation check turns an operation racing
// the descriptor's close into EBADF instead of one through a recycled
// entry. The caller unlocks e.mu when ok.
func (r fdRef) lockOffset() (e *openFile, ok bool) {
	e = r.ent
	e.mu.Lock()
	if e.gen.Load() != r.gen {
		e.mu.Unlock()
		return nil, false
	}
	return e, true
}

func (k *Kernel) doRead(p *Proc, c Call) Ret {
	fd := int(c.Args[0])
	ref, errno := p.lookupFD(fd)
	if errno != OK {
		return Ret{Err: errno}
	}
	count, errno := guestCount(c.Args[1])
	if errno != OK {
		return Ret{Err: errno}
	}
	switch o := ref.obj.(type) {
	case *fileObj:
		// Files never block, so holding the description lock across the
		// read is fine.
		if ref.accessMode() == OWronly {
			return Ret{Err: EBADF}
		}
		e, ok := ref.lockOffset()
		if !ok {
			return Ret{Err: EBADF}
		}
		data := o.ino.read(e.offset, count)
		e.offset += int64(len(data))
		e.mu.Unlock()
		return Ret{Val: uint64(len(data)), Data: data}
	case stream:
		// The stale check catches an object retired (and possibly
		// re-attached to a successor connection) by a close(2) racing this
		// read. With a caller-supplied destination (Call.Buf) the result
		// aliases its prefix and the receive allocates nothing.
		if ref.stale() {
			return Ret{Err: EBADF}
		}
		data, errno := o.recv(c.Buf, count, p.blk(c.Tid, fd))
		if errno != OK {
			return Ret{Err: errno}
		}
		return Ret{Val: uint64(len(data)), Data: data}
	}
	return Ret{Err: EINVAL}
}

func (k *Kernel) doWrite(p *Proc, c Call) Ret {
	fd := int(c.Args[0])
	ref, errno := p.lookupFD(fd)
	if errno != OK {
		return Ret{Err: errno}
	}
	switch o := ref.obj.(type) {
	case *fileObj:
		if ref.accessMode() == ORdonly {
			return Ret{Err: EBADF}
		}
		e, ok := ref.lockOffset()
		if !ok {
			return Ret{Err: EBADF}
		}
		n := o.ino.writeAt(c.Data, e.offset)
		e.offset += int64(n)
		e.mu.Unlock()
		return Ret{Val: uint64(n)}
	case stream:
		if ref.stale() {
			return Ret{Err: EBADF}
		}
		n, errno := o.send(bytesSource(c.Data), p.blk(c.Tid, fd))
		return Ret{Val: uint64(n), Err: errno}
	}
	return Ret{Err: EINVAL}
}

func (k *Kernel) doPread(p *Proc, c Call) Ret {
	ref, errno := p.lookupFD(int(c.Args[0]))
	if errno != OK {
		return Ret{Err: errno}
	}
	f, ok := ref.obj.(*fileObj)
	if !ok {
		return Ret{Err: ESPIPE}
	}
	if ref.accessMode() == OWronly {
		return Ret{Err: EBADF}
	}
	count, errno := guestCount(c.Args[1])
	if errno != OK {
		return Ret{Err: errno}
	}
	off, errno := guestOffset(c.Args[2])
	if errno != OK {
		return Ret{Err: errno}
	}
	data := f.ino.read(off, count)
	return Ret{Val: uint64(len(data)), Data: data}
}

func (k *Kernel) doPwrite(p *Proc, c Call) Ret {
	ref, errno := p.lookupFD(int(c.Args[0]))
	if errno != OK {
		return Ret{Err: errno}
	}
	f, ok := ref.obj.(*fileObj)
	if !ok {
		return Ret{Err: ESPIPE}
	}
	if ref.accessMode() == ORdonly {
		return Ret{Err: EBADF}
	}
	off, errno := guestOffset(c.Args[1])
	if errno != OK {
		return Ret{Err: errno}
	}
	return Ret{Val: uint64(f.ino.writeAt(c.Data, off))}
}

func (k *Kernel) doLseek(p *Proc, c Call) Ret {
	ref, errno := p.lookupFD(int(c.Args[0]))
	if errno != OK {
		return Ret{Err: errno}
	}
	f, ok := ref.obj.(*fileObj)
	if !ok {
		return Ret{Err: ESPIPE}
	}
	e, ok := ref.lockOffset()
	if !ok {
		return Ret{Err: EBADF}
	}
	defer e.mu.Unlock()
	off := int64(c.Args[1])
	switch c.Args[2] {
	case SeekSet:
		e.offset = off
	case SeekCur:
		e.offset += off
	case SeekEnd:
		e.offset = f.ino.size() + off
	default:
		return Ret{Err: EINVAL}
	}
	if e.offset < 0 {
		e.offset = 0
		return Ret{Err: EINVAL}
	}
	return Ret{Val: uint64(e.offset)}
}

func (k *Kernel) doStat(c Call) Ret {
	ino, ok := k.fs.lookup(string(c.Data))
	if !ok {
		return Ret{Err: ENOENT}
	}
	return Ret{Val: uint64(ino.size())}
}

func (k *Kernel) doPipe(p *Proc) Ret {
	pi := k.getPipe()
	gen := pi.generation()
	k.track(pi)
	rfd, errno := p.allocFD(&readEnd{p: pi, gen: gen}, ORdonly, 0)
	if errno != OK {
		// No descriptor will ever close the pipe: close both ends so it
		// recycles instead of pinning the interrupt list (a process stuck
		// at the fd limit must not leak one pipe per failed pipe2).
		pi.interrupt()
		return Ret{Err: errno}
	}
	wfd, errno := p.allocFD(&writeEnd{p: pi, gen: gen}, OWronly, 0)
	if errno != OK {
		p.closeFD(rfd)            // closes the read side
		pi.shut(gen, false, true) // no write descriptor will ever exist
		return Ret{Err: errno}
	}
	return Ret{Val: uint64(rfd), Val2: uint64(wfd)}
}

func (k *Kernel) doFtruncate(p *Proc, c Call) Ret {
	ref, errno := p.lookupFD(int(c.Args[0]))
	if errno != OK {
		return Ret{Err: errno}
	}
	f, ok := ref.obj.(*fileObj)
	if !ok {
		return Ret{Err: EINVAL}
	}
	if ref.accessMode() == ORdonly {
		// Like read/write, the access mode lives on the shared open file
		// description; ftruncate is a write effect (Linux: EINVAL for a
		// descriptor not open for writing).
		return Ret{Err: EINVAL}
	}
	f.ino.truncate(int64(c.Args[1]))
	return Ret{}
}

// doListen binds a fresh listener on the requested port and replaces the
// placeholder socket object behind the descriptor. Bind and listen are
// collapsed into one call; the monitor still sees both syscalls.
//
// Args[3] != 0 requests a TAKEOVER (the hot-restart handoff, SO_REUSEPORT
// in spirit): instead of failing EADDRINUSE, the new listener atomically
// displaces the one currently bound at the port. The displaced listener is
// closed — its parked accepts wake, drain whatever its backlog still holds,
// and then see EINVAL, which is how an old worker epoch learns to stop
// accepting and exit once in-flight requests finish. Backlog entries no old
// worker gets to are migrated into the new listener, so no connection is
// dropped across the swap.
func (k *Kernel) doListen(p *Proc, c Call) Ret {
	if c.Nr == SysBind {
		return Ret{} // recorded for ordering; listen does the work
	}
	fd := int(c.Args[0])
	port := uint16(c.Args[1])
	backlog := int(c.Args[2])
	if backlog <= 0 {
		backlog = 128
	}
	takeover := c.Args[3] != 0
	ref, errno := p.lookupFD(fd)
	if errno != OK {
		return Ret{Err: errno}
	}
	l := newListener(k, port, backlog)
	k.track(l)
	if takeover {
		if old := k.net.rebind(port, l); old != nil {
			// Close first (stops new enqueues and wakes the old epoch's
			// parked accepts), then migrate what the old workers don't
			// drain themselves — both sides pop under the old listener's
			// lock, so every pending connection is served exactly once.
			old.close()
			for {
				cn, errno := old.accept(blocker{})
				if errno != OK {
					break
				}
				if l.enqueue(cn) != OK {
					cn.toServer.interrupt()
					cn.fromServer.interrupt()
				}
			}
		}
	} else if errno := k.net.bind(port, l); errno != OK {
		k.abortListener(l) // nothing can have enqueued; just untrack
		return Ret{Err: errno}
	}
	// Install the listener only if the descriptor still maps to the same
	// description: a close racing in would otherwise resurrect a retired
	// entry as a listening socket.
	p.mu.Lock()
	if !p.revalidateLocked(fd, ref) {
		p.mu.Unlock()
		// Unbind first so no further connects can enqueue, then tear the
		// orphan down: nobody will ever accept from it, so connections
		// that raced into the backlog must be interrupted (their clients
		// would block forever) and the listener must leave the interrupt
		// list rather than pinning there until session teardown.
		k.net.unbind(port)
		k.abortListener(l)
		return Ret{Err: EBADF}
	}
	// Recycle the socket() placeholder the listener displaces (it is
	// unconnected, so close touches no pipes — it just retires the header
	// and returns the object to the pool, like doAccept's error path).
	if s, ok := ref.ent.obj.(*socketObj); ok {
		s.close()
	}
	ref.ent.obj = l
	p.mu.Unlock()
	return Ret{}
}

// abortListener tears down a listener that will never be accepted from:
// close it, interrupt any connections that raced into its backlog (their
// clients would block forever; accept on a closed listener drains without
// blocking), and drop it from the interrupt-tracking list.
func (k *Kernel) abortListener(l *listener) {
	l.close()
	for {
		cn, errno := l.accept(blocker{})
		if errno != OK {
			break
		}
		cn.toServer.interrupt()
		cn.fromServer.interrupt()
	}
	k.untrack(l)
}

func (k *Kernel) doAccept(p *Proc, c Call) Ret {
	lfd := int(c.Args[0])
	ref, errno := p.lookupFD(lfd)
	if errno != OK {
		return Ret{Err: errno}
	}
	l, ok := ref.obj.(*listener)
	if !ok {
		return Ret{Err: ENOTSOCK}
	}
	cn, errno := l.accept(p.blk(c.Tid, lfd))
	if errno != OK {
		return Ret{Err: errno}
	}
	s := k.getSock()
	s.attach(cn.toServer, cn.fromServer)
	fd, errno := p.allocFD(s, 0, 0)
	if errno != OK {
		s.close() // no descriptor will ever close it; recycle now
		return Ret{Err: errno}
	}
	return Ret{Val: uint64(fd)}
}

func (k *Kernel) doConnect(p *Proc, c Call) Ret {
	// Validate the descriptor BEFORE creating and enqueuing the
	// connection: enqueue-then-validate left a ghost conn in the
	// listener's backlog on a bad fd — the server accepted it and hung in
	// recv forever, and its pipes stayed pinned on the interrupt list
	// instead of returning to the pool.
	fd := int(c.Args[0])
	ref, errno := p.lookupFD(fd)
	if errno != OK {
		return Ret{Err: errno}
	}
	port := uint16(c.Args[1])
	l, ok := k.net.lookup(port)
	if !ok {
		return Ret{Err: ECONNREFUSED}
	}
	cn := conn{toServer: k.getPipe(), fromServer: k.getPipe()}
	k.track(cn.toServer)
	k.track(cn.fromServer)
	if errno := k.enqueueChasing(l, cn, port); errno != OK {
		// See Connect: refused connects must release their pipes.
		cn.toServer.interrupt()
		cn.fromServer.interrupt()
		return Ret{Err: errno}
	}
	// Attach the pipes to the placeholder socket() already installed at
	// the descriptor, rather than allocating a replacement object — but
	// only after re-validating that the descriptor still maps to the same
	// description at the same generation: a concurrent close(2) during the
	// enqueue may have retired and recycled the entry, and attaching
	// through the stale entry would redirect another connection's pipes.
	p.mu.Lock()
	if !p.revalidateLocked(fd, ref) {
		p.mu.Unlock()
		// The fd was closed mid-connect: tear down the just-enqueued conn
		// so the server side sees EOF instead of a ghost, and the pipes
		// recycle.
		cn.toServer.interrupt()
		cn.fromServer.interrupt()
		return Ret{Err: EBADF}
	}
	if s, ok := ref.ent.obj.(*socketObj); ok {
		s.attach(cn.fromServer, cn.toServer)
	} else {
		s := k.getSock()
		s.attach(cn.fromServer, cn.toServer)
		ref.ent.obj = s
	}
	p.mu.Unlock()
	// The attach flipped the fd's readiness (an unconnected placeholder
	// polls as nothing; now it is writable): wake parked pollers, per the
	// object-header contract.
	k.pollPark.Wake()
	return Ret{}
}
