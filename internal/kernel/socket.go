package kernel

import (
	"sync"
	"sync/atomic"
)

// The socket layer provides loopback stream sockets: enough for the nginx
// use case (§5.5), where a client load generator connects to the
// multithreaded server running under the MVEE.

// conn is one established connection: two pipes, one per direction. It is
// a value type — connections travel through the listener backlog and into
// ClientConn by copy, which keeps the connect path free of a per-connection
// heap object (the pipes themselves are the long-lived, pooled state).
type conn struct {
	toServer   *pipe
	fromServer *pipe
}

// socketObj is the server- or client-side endpoint of a connection.
//
// Endpoints are recycled through the kernel's per-kernel pool: close
// returns the object after closing its pipes, and Kernel.getSock hands it
// to the next socket()/accept(). Descriptor sharing is NOT the endpoint's
// problem anymore: dup(2)'d descriptors share one open file description
// (see openFile), and only the last descriptor's close reaches the object
// — the struct-file f_count bookkeeping lives one layer up, where Linux
// keeps it.
//
// Each endpoint is a generation-stamped pipe handle: a thread that kept
// the object past its fd's close — a reader racing another thread's
// close(2) on the same descriptor — finds the pipes' generations moved
// and gets EBADF, never a successor connection's data. The endpoint
// OBJECT being recycled and re-attached while such a stale reference
// still exists is caught one layer up: close retires the header
// generation, and the kernel's stream handlers check the fdRef's
// snapshot against it (fdRef.stale) before every operation. What remains
// is the few-instruction check-then-act window, which only opens when a
// guest uses an fd after closing it (a program bug no in-repo workload
// commits) and costs at worst a misdirected read within the same
// simulated kernel, i.e. the same process boundary the fd table already
// spans.
type socketObj struct {
	// hdr.kern is the pool owner (nil for objects built outside a
	// kernel); hdr.gen is bumped at retirement, like every pooled object.
	hdr objHeader
	// attach stores the generations BEFORE the pipe pointers; a reader
	// loads the pipe and then its generation, so (sequentially consistent
	// atomics) seeing a pipe implies seeing the generation it was
	// attached at — no allocation needed to publish the pair.
	rx, tx       atomic.Pointer[pipe]
	rxGen, txGen atomic.Uint64
}

// getSock returns a fresh or recycled, unconnected socket endpoint.
func (k *Kernel) getSock() *socketObj {
	if v := k.sockPool.Get(); v != nil {
		return v.(*socketObj)
	}
	s := &socketObj{}
	s.hdr.kern = k
	return s
}

func (s *socketObj) header() *objHeader { return &s.hdr }

// attach connects the endpoint to its two pipes. Called at most once per
// object lifetime (accept, or connect on the socket() placeholder).
func (s *socketObj) attach(rx, tx *pipe) {
	s.rxGen.Store(rx.generation())
	s.txGen.Store(tx.generation())
	s.rx.Store(rx)
	s.tx.Store(tx)
}

// recv and send forward to the receive and transmit pipes; an unconnected
// placeholder (see SysSocket) answers EINVAL.
func (s *socketObj) recv(dst []byte, max int, w blocker) ([]byte, Errno) {
	rx := s.rx.Load()
	if rx == nil {
		return nil, EINVAL
	}
	return rx.recv(s.rxGen.Load(), dst, max, w)
}

func (s *socketObj) send(src source, w blocker) (int, Errno) {
	tx := s.tx.Load()
	if tx == nil {
		return 0, EINVAL
	}
	return tx.send(s.txGen.Load(), src, w)
}

// poll combines the receive pipe's read readiness with the transmit
// pipe's write readiness; an unconnected placeholder reports nothing.
func (s *socketObj) poll() uint32 {
	rx, tx := s.rx.Load(), s.tx.Load()
	if rx == nil || tx == nil {
		return 0
	}
	return rx.pollReadable(s.rxGen.Load()) | tx.pollWritable(s.txGen.Load())
}

func (s *socketObj) close() Errno {
	if rx := s.rx.Load(); rx != nil {
		rx.shut(s.rxGen.Load(), true, false)
	}
	if tx := s.tx.Load(); tx != nil {
		tx.shut(s.txGen.Load(), false, true)
	}
	if s.hdr.kern != nil {
		s.hdr.retire() // stale holders fail the header generation check
		s.rx.Store(nil)
		s.tx.Store(nil)
		s.hdr.kern.sockPool.Put(s)
	}
	return OK
}

// listener is a bound, listening socket with an accept queue.
//
// The backlog is a head-indexed queue over a retained array (compacted
// like the pipe buffer): accept consumes from the front and the array
// rewinds when it drains, so steady-state connection churn enqueues into
// existing capacity instead of re-allocating the slice every cycle — the
// old `backlog = backlog[1:]` walked the array forward and forced one
// append allocation per accepted connection.
type listener struct {
	hdr     objHeader
	mu      sync.Mutex
	cond    sync.Cond // L bound to mu at construction
	backlog []conn
	head    int
	max     int
	closed  bool
	port    uint16
}

func newListener(k *Kernel, port uint16, backlog int) *listener {
	l := &listener{max: backlog, port: port}
	l.hdr.kern = k
	l.cond.L = &l.mu
	return l
}

func (l *listener) header() *objHeader { return &l.hdr }

// poll: PollIn when an accept would not block (pending connection),
// PollHup once the listener closed.
func (l *listener) poll() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var ev uint32
	if len(l.backlog)-l.head > 0 {
		ev |= PollIn
	}
	if l.closed {
		ev |= PollHup
	}
	return ev
}

func (l *listener) interrupt() { l.close() }

// kick wakes accept waiters without closing the listener (signal
// delivery; see pipe.kick).
func (l *listener) kick() {
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}

func (l *listener) close() Errno {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	l.hdr.pollWake()
	return OK
}

// enqueue adds a connection attempt; it fails if the backlog is full or the
// listener is closed.
func (l *listener) enqueue(c conn) Errno {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ECONNREFUSED
	}
	if len(l.backlog)-l.head >= l.max {
		l.mu.Unlock()
		return EAGAIN
	}
	// Compact before growing: if the consumed prefix alone makes room,
	// reuse it rather than extending the backing array. Clear the vacated
	// tail — like accept's consumed-slot zeroing below, the retained array
	// must not pin finished connections' pipes against reclamation.
	if l.head > 0 && len(l.backlog) == cap(l.backlog) {
		n := copy(l.backlog, l.backlog[l.head:])
		for i := n; i < len(l.backlog); i++ {
			l.backlog[i] = conn{}
		}
		l.backlog = l.backlog[:n]
		l.head = 0
	}
	l.backlog = append(l.backlog, c)
	l.cond.Broadcast()
	l.mu.Unlock()
	l.hdr.pollWake()
	return OK
}

// accept blocks until a connection is available, the listener closes
// (EINVAL) or the call is interrupted (EINTR) — checked before the first
// wait, so a cause already raised interrupts deterministically. It never
// registers a deadlock cell: a host Connect can always wake it.
func (l *listener) accept(w blocker) (conn, Errno) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.backlog)-l.head == 0 {
		if l.closed {
			return conn{}, EINVAL
		}
		if w.interrupted() {
			return conn{}, EINTR
		}
		l.cond.Wait()
	}
	c := l.backlog[l.head]
	l.backlog[l.head] = conn{} // don't pin the pipes in the retained array
	l.head++
	if l.head == len(l.backlog) {
		l.backlog = l.backlog[:0]
		l.head = 0
	}
	return c, OK
}

// netStack is the kernel's loopback network: a port table of listeners.
type netStack struct {
	mu        sync.Mutex
	listeners map[uint16]*listener
}

func newNetStack() *netStack {
	return &netStack{listeners: make(map[uint16]*listener)}
}

func (ns *netStack) bind(port uint16, l *listener) Errno {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if _, ok := ns.listeners[port]; ok {
		return EADDRINUSE
	}
	ns.listeners[port] = l
	return OK
}

// rebind atomically replaces the listener bound at port with l and returns
// the displaced one (nil if the port was free) — the hot-restart handoff: a
// connect that looked the old listener up before the swap and enqueues
// after it is refused and re-chases the port (see doConnect), so no
// connection is dropped across the swap.
func (ns *netStack) rebind(port uint16, l *listener) *listener {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	old := ns.listeners[port]
	ns.listeners[port] = l
	return old
}

func (ns *netStack) lookup(port uint16) (*listener, bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	l, ok := ns.listeners[port]
	return l, ok
}

func (ns *netStack) unbind(port uint16) {
	ns.mu.Lock()
	delete(ns.listeners, port)
	ns.mu.Unlock()
}
