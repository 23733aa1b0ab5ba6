package kernel

import (
	"slices"
	"sync"
	"sync/atomic"
)

// pipeBufSize matches Linux's default pipe capacity (64 KiB).
const pipeBufSize = 64 * 1024

// pipe is a bounded unidirectional byte stream with blocking reads and
// writes, shared by pipe2 and by each direction of a socket connection.
//
// Data is kept in a compacting buffer: reads consume from the front (r is
// the read offset into buf) and the buffer is rewound to offset 0 whenever
// it drains, so the backing array is reused across the request/response
// exchanges of a connection instead of append() abandoning a prefix per
// read and reallocating per write — connection churn is the serving hot
// path, and the old behavior made every request leave a trail of dead
// buffers for the collector.
//
// Lifecycle: pipes handed out by Kernel.getPipe return to the kernel's
// per-kernel pool — backing buffer included — once they are dead (both
// directions closed) AND drained (no goroutine still blocked in a
// cond.Wait). The waiting count is what makes the drain sound: a woken
// waiter re-acquires mu and re-reads the closed flags before anything can
// reset them, because release cannot happen until the count returns to
// zero.
//
// Generations are what make the *handles* sound. Every holder of a pipe
// (a descriptor end, a socket endpoint, a ClientConn) captures the pipe's
// generation when it acquires it, and every operation validates that
// generation under mu before touching pipe state. A handle that calls in
// late — a gateway watchdog's Close racing the request path, a thread
// reading a descriptor another thread closed — finds the generation moved
// and gets EBADF, exactly what the dead pipe would have returned, instead
// of reading a successor connection's bytes out of the recycled object.
// Once the check passes, the caller's presence (holding mu, or counted in
// waiting while parked) blocks release, so the generation cannot move
// mid-operation.
type pipe struct {
	// hdr is the uniform object header: hdr.kern, when non-nil, recycles
	// the pipe (and untracks it from the interrupt list) once it is dead
	// and drained, and routes poll wakeups; pipes made by the bare newPipe
	// (tests) have no kernel and are simply garbage-collected. hdr.gen is
	// the reuse generation, bumped under mu by getPipe; being atomic it is
	// also readable without mu (generation, poll readiness).
	hdr objHeader

	mu          sync.Mutex
	cond        sync.Cond // L bound to mu at construction; recycled with the pipe
	buf         []byte
	r           int // read offset into buf; len(buf)-r bytes are unread
	waiting     int // goroutines inside cond.Wait
	readClosed  bool
	writeClosed bool
	released    bool // returned to the pool (or due to be); fires once

	// wakeSeq counts cond broadcasts (bumped under mu by wakeLocked). A
	// sleeper registers its deadlock-detector cell with the sequence it saw
	// at park time; the detector treats a moved sequence as a wake in
	// flight and refuses to call the sleeper deadlocked. Monotonic across
	// recycles — only equality with the parked snapshot matters.
	wakeSeq atomic.Uint64

	// external marks a pipe with a host-side end (Kernel.Connect's
	// ClientConn pipes): a guest thread sleeping on it can be woken from
	// outside the guest, so its sleeps never register deadlock cells.
	// Guarded by mu; reset by getPipe.
	external bool
}

func newPipe() *pipe {
	p := &pipe{}
	p.cond.L = &p.mu
	return p
}

// generation returns the pipe's current reuse generation, for a holder to
// stamp its handle with at acquisition time.
func (p *pipe) generation() uint64 { return p.hdr.generation() }

// markExternal flags the pipe as host-wakeable for this lifetime; cleared
// by getPipe at the next recycle.
func (p *pipe) markExternal() {
	p.mu.Lock()
	p.external = true
	p.mu.Unlock()
}

// isInternal reports whether sleeps on this pipe are deadlock-detectable
// (no host-side end).
func (p *pipe) isInternal() bool {
	p.mu.Lock()
	ext := p.external
	p.mu.Unlock()
	return !ext
}

// checkGenLocked validates a handle's generation. Callers hold p.mu.
func (p *pipe) checkGenLocked(gen uint64) bool { return p.hdr.gen.Load() == gen }

// getPipe returns a fresh or recycled pipe owned by this kernel. The
// recycled case reuses the pipe struct, its cond (sync.Cond carries no
// waiter state once drained), and its backing buffer — the allocations
// that used to dominate the per-connection cost of Connect/Accept. The
// reset happens under mu and bumps the generation, so a stale handle
// racing in sees either the old dead state or a generation mismatch,
// never a half-reset pipe.
func (k *Kernel) getPipe() *pipe {
	if v := k.pipePool.Get(); v != nil {
		p := v.(*pipe)
		p.mu.Lock()
		p.hdr.gen.Add(1)
		p.readClosed, p.writeClosed, p.released = false, false, false
		p.external = false
		p.mu.Unlock()
		return p
	}
	p := newPipe()
	p.hdr.kern = k
	return p
}

// releasePipe drops a dead, drained pipe from the interrupt list and
// returns it to the pool. Called exactly once per pipe lifetime (the
// released flag), outside p.mu.
func (k *Kernel) releasePipe(p *pipe) {
	k.untrack(p)
	k.pipePool.Put(p)
}

// readEnd / writeEnd adapt the two ends of a pipe to the object and stream
// interfaces, stamped with the generation they were created at. The wrong
// direction is EBADF, like a read on an O_WRONLY descriptor.
type readEnd struct {
	p   *pipe
	gen uint64
}
type writeEnd struct {
	p   *pipe
	gen uint64
}

func (r *readEnd) header() *objHeader { return &r.p.hdr }
func (r *readEnd) recv(dst []byte, max int, w blocker) ([]byte, Errno) {
	return r.p.recv(r.gen, dst, max, w)
}
func (r *readEnd) send(source, blocker) (int, Errno) { return 0, EBADF }
func (r *readEnd) close() Errno                      { r.p.shut(r.gen, true, false); return OK }
func (r *readEnd) poll() uint32                      { return r.p.pollReadable(r.gen) }

func (w *writeEnd) header() *objHeader                        { return &w.p.hdr }
func (w *writeEnd) recv([]byte, int, blocker) ([]byte, Errno) { return nil, EBADF }
func (w *writeEnd) send(src source, blk blocker) (int, Errno) { return w.p.send(w.gen, src, blk) }
func (w *writeEnd) close() Errno                              { w.p.shut(w.gen, false, true); return OK }
func (w *writeEnd) poll() uint32                              { return w.p.pollWritable(w.gen) }

// pollReadable snapshots the read-side readiness of the pipe for a handle
// stamped with gen: PollIn when a read would not block (pending bytes, or
// EOF because the write side closed), PollHup at EOF, PollNval when the
// handle's pipe lifetime has ended (the pipe was recycled).
func (p *pipe) pollReadable(gen uint64) uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.checkGenLocked(gen) {
		return PollNval
	}
	var ev uint32
	if p.unread() > 0 || p.writeClosed {
		ev |= PollIn
	}
	if p.writeClosed {
		ev |= PollHup
	}
	if p.readClosed {
		ev |= PollErr
	}
	return ev
}

// pollWritable snapshots the write-side readiness: PollOut when buffer
// space is available, PollErr when a write would fail (broken pipe or a
// closed write side), PollNval on a recycled pipe.
func (p *pipe) pollWritable(gen uint64) uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.checkGenLocked(gen) {
		return PollNval
	}
	var ev uint32
	if p.readClosed || p.writeClosed {
		ev |= PollErr
	} else if p.unread() < pipeBufSize {
		ev |= PollOut
	}
	return ev
}

// unread returns the pending byte count. Callers hold p.mu.
func (p *pipe) unread() int { return len(p.buf) - p.r }

// PipeWaiters reports how many threads are asleep right now on the pipe
// behind descriptor fd (either end), 0 when fd is not a live pipe end. It
// reads the recycling count under the pipe's lock and changes nothing; tests
// wait on it where the next step needs "that thread is parked in its read"
// to hold. A thread counted here sleeps on, or still holds, the lock a kick
// or a write must take, so whatever is issued afterwards finds it parked.
func (p *Proc) PipeWaiters(fd int) int {
	ref, errno := p.lookupFD(fd)
	if errno != OK {
		return 0
	}
	var pi *pipe
	switch end := ref.obj.(type) {
	case *readEnd:
		pi = end.p
	case *writeEnd:
		pi = end.p
	default:
		return 0
	}
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if !pi.checkGenLocked(ref.objGen) {
		return 0
	}
	return pi.waiting
}

// wakeLocked is the only way pipe code broadcasts: it bumps the wake
// sequence first, so a deadlock-detector cell registered before this wake
// is provably stale. Both happen under p.mu — registration also samples
// the sequence under p.mu — so a cell and a wake can never interleave
// half-observed. Callers hold p.mu.
func (p *pipe) wakeLocked() {
	p.wakeSeq.Add(1)
	p.cond.Broadcast()
}

// sleepLocked is the pipe's one sleep: it parks on the cond, keeping the
// waiting count that gates recycling, and registers a deadlock cell for the
// duration unless the pipe has a host-side end (see blocker). Callers hold
// p.mu.
func (p *pipe) sleepLocked(w blocker, kind BlockKind) {
	if !p.external {
		w.parkSeq(kind, 0, &p.wakeSeq)
	}
	p.waiting++
	p.cond.Wait()
	p.waiting--
	w.unpark()
}

// kick wakes every waiter parked on the pipe without changing pipe state:
// the signal-delivery path. A woken waiter whose proc has a deliverable
// signal pending unwinds with EINTR; everyone else re-checks their
// predicate and parks again.
func (p *pipe) kick() {
	p.mu.Lock()
	p.wakeLocked()
	p.mu.Unlock()
}

// unlockRelease is the one way a pipe operation ends: it drops p.mu, wakes
// pollers if the operation changed readiness, and — when this caller was
// the last thing holding a dead (both directions closed), drained (nobody
// parked) kernel-owned pipe back — clears it and returns it to the pool,
// exactly once per lifetime. Leftover bytes are cleared so nothing of this
// connection survives into the next use. Callers hold p.mu.
func (p *pipe) unlockRelease(wake bool) {
	rel := p.hdr.kern != nil && !p.released && p.readClosed && p.writeClosed && p.waiting == 0
	if rel {
		p.released = true
		p.buf = p.buf[:0]
		p.r = 0
	}
	p.mu.Unlock()
	if wake {
		// Outside the lock: a wake under p.mu would stampede every poller
		// in the kernel straight into the lock this caller still holds.
		p.hdr.pollWake()
	}
	if rel {
		p.hdr.kern.releasePipe(p)
	}
}

// recv is the pipe's one receive step. It blocks until data is pending, the
// stream ended (EOF: no bytes, OK), the read side closed (EBADF) or the call
// is interrupted (EINTR) — the predicate is checked before the first sleep
// too, so a read entered with a signal already pending EINTRs
// deterministically, and pending data beats the signal. It delivers at most
// max bytes: into dst when the caller supplied one (Call.Buf — the
// allocation-free receive path; the result aliases dst's prefix), otherwise
// into a fresh slice sized to the bytes actually delivered, so a request
// asking for N bytes costs an allocation proportional to the traffic, not
// to a guest-chosen N.
func (p *pipe) recv(gen uint64, dst []byte, max int, w blocker) ([]byte, Errno) {
	p.mu.Lock()
	if !p.checkGenLocked(gen) {
		p.mu.Unlock()
		return nil, EBADF
	}
	for p.unread() == 0 {
		errno := OK // EOF
		switch {
		case p.writeClosed:
		case p.readClosed:
			errno = EBADF
		case w.interrupted():
			errno = EINTR
		default:
			p.sleepLocked(w, BlockPipeRead)
			continue
		}
		p.unlockRelease(false)
		return dst[:0], errno
	}
	if dst == nil {
		dst = make([]byte, min(p.unread(), max))
	}
	n := copy(dst[:min(max, len(dst))], p.buf[p.r:])
	// Consume: rewind the buffer when it drains, so the backing array is
	// reused, and wake writers sleeping (or polling) for space.
	p.r += n
	if p.r == len(p.buf) {
		p.buf = p.buf[:0]
		p.r = 0
	}
	p.wakeLocked()
	p.unlockRelease(true)
	return dst[:n], OK
}

// source is where a send's bytes come from: the slice b, or — sendfile —
// n bytes of ino starting at off, which the pipe then copies exactly once
// (inode → pipe buffer), never through a guest- or monitor-visible buffer.
// The inode's lock is taken per copied chunk, never held across a sleep.
type source struct {
	b   []byte
	ino *inode
	off int64
	n   int
}

func bytesSource(b []byte) source { return source{b: b, n: len(b)} }

// copyTo copies the source's bytes from position done onward into dst.
func (s source) copyTo(dst []byte, done int) int {
	if s.ino != nil {
		return s.ino.readAt(dst, s.off+int64(done))
	}
	return copy(dst, s.b[done:])
}

// send is the pipe's one send step, for both kinds of source. It sleeps for
// space as long as bytes remain; a closed read side is EPIPE and a closed
// write side EBADF, each with the count already buffered. The interrupt
// predicate only bites when the call would otherwise sleep, and per POSIX a
// send that already transferred bytes returns the short count with NO error
// (EINTR is for zero progress only): the retry-on-EINTR idiom assumes
// nothing was written, and (n>0, EINTR) would make it resend and duplicate
// bytes in the stream.
func (p *pipe) send(gen uint64, src source, w blocker) (int, Errno) {
	p.mu.Lock()
	if !p.checkGenLocked(gen) {
		p.mu.Unlock()
		return 0, EBADF
	}
	sent, errno := 0, OK
loop:
	for sent < src.n {
		space := pipeBufSize - p.unread()
		switch {
		case p.readClosed:
			errno = EPIPE
			break loop
		case p.writeClosed:
			errno = EBADF
			break loop
		case space == 0 && w.interrupted():
			if sent == 0 {
				errno = EINTR
			}
			break loop
		case space == 0:
			// Announce what this call already buffered BEFORE sleeping: a
			// poller parked on the kernel wait set is the only thing that
			// can drain the pipe in the evented mode, and the end-of-send
			// wake never happens while we wait here — skipping this is a
			// writer/poller deadlock on any send larger than the pipe.
			if sent > 0 {
				p.hdr.pollWake()
			}
			p.sleepLocked(w, BlockPipeWrite)
			continue
		}
		chunk := min(src.n-sent, space)
		// Compact before growing: if the dead prefix alone makes room,
		// reuse it rather than extending the backing array.
		if p.r > 0 && len(p.buf)+chunk > cap(p.buf) {
			p.buf = p.buf[:copy(p.buf, p.buf[p.r:])]
			p.r = 0
		}
		old := len(p.buf)
		p.buf = slices.Grow(p.buf, chunk)[:old+chunk]
		n := src.copyTo(p.buf[old:], sent)
		p.buf = p.buf[:old+n]
		if n == 0 {
			break // the file ended early (shrank under us): short count
		}
		sent += n
		p.wakeLocked() // wake readers
	}
	p.unlockRelease(sent > 0 || errno == OK)
	return sent, errno
}

// shut closes the chosen directions for a handle stamped gen (a no-op once
// that pipe lifetime has ended), waking sleepers and pollers so they see
// EOF, EPIPE or PollErr. It is the one close routine: descriptor ends close
// one direction, teardown (interrupt) both.
func (p *pipe) shut(gen uint64, rd, wr bool) {
	p.mu.Lock()
	if !p.checkGenLocked(gen) {
		p.mu.Unlock()
		return
	}
	p.readClosed = p.readClosed || rd
	p.writeClosed = p.writeClosed || wr
	p.wakeLocked()
	p.unlockRelease(true)
}

// interrupt force-closes both directions of the current lifetime: teardown,
// and the cleanup of connections nobody will ever serve. A pipe recycled
// between Kernel.Interrupt's snapshot and this call is re-tracked by its
// next holder, and track interrupts it there.
func (p *pipe) interrupt() { p.shut(p.generation(), true, true) }
