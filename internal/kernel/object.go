package kernel

import "sync/atomic"

// objHeader is the uniform header every descriptor-visible object embeds
// (files, pipes, sockets, listeners). It carries the two pieces of state
// the descriptor layer needs to treat all objects alike:
//
//   - kern: the owning kernel, through which pooled objects recycle and
//     through which readiness changes reach parked pollers (pollWake).
//     Nil for objects built outside a kernel (bare newPipe in tests).
//   - gen: the object's reuse generation. Pooled objects bump it when
//     their lifetime moves on (pipes at re-acquisition, sockets and fd
//     entries at retirement); holders stamp themselves with the
//     generation at acquisition and revalidate it per operation, so a
//     stale handle gets EBADF instead of a successor's state.
//
// The header is what SysPoll multiplexes over: every object answers
// poll() with a readiness set, and every state change that could flip
// readiness routes a wakeup through the header's kernel to the pollers
// parked on the kernel's poll wait set.
type objHeader struct {
	kern *Kernel
	gen  atomic.Uint64
}

// header returns the embedded header; objects expose it through the
// object interface by delegation.
func (h *objHeader) header() *objHeader { return h }

// generation returns the current reuse generation.
func (h *objHeader) generation() uint64 { return h.gen.Load() }

// retire advances the reuse generation, invalidating every handle stamped
// with an earlier one.
func (h *objHeader) retire() { h.gen.Add(1) }

// pollWake notifies pollers parked on the owning kernel's poll wait set
// that this object's readiness may have changed. One atomic load when
// nobody is polling — cheap enough to call on every pipe/listener state
// change.
func (h *objHeader) pollWake() {
	if h.kern != nil {
		h.kern.pollPark.Wake()
	}
}

// object is anything a file descriptor can refer to. What can be done with
// one beyond closing and polling it depends on its kind, and the transfer
// handlers switch on exactly three: a stream, a regular file (*fileObj,
// the one seekable kind: offsets, pread/pwrite, lseek), or neither (a
// listener: EINVAL, or ESPIPE where an offset was asked for).
type object interface {
	// header exposes the uniform object header (generation + kernel).
	header() *objHeader
	close() Errno
	// poll reports the object's current readiness set (Poll* bits),
	// without blocking. SysPoll masks it against the caller's interest.
	poll() uint32
}

// stream is an object that is a blocking byte stream — a pipe end or a
// socket endpoint: pipe.recv and pipe.send behind a handle. The blocker
// says what interrupts the call's sleeps and whether they register
// deadlock cells.
type stream interface {
	object
	recv(dst []byte, max int, w blocker) ([]byte, Errno)
	send(src source, w blocker) (int, Errno)
}
