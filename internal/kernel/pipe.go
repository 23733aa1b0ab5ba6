package kernel

import (
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

// readEnd / writeEnd adapt the two ends of a pipe to the object
// interface, stamped with the generation they were created at.
type readEnd struct {
	p   *pipe
	gen uint64
}
type writeEnd struct {
	p   *pipe
	gen uint64
}

func (r *readEnd) header() *objHeader                  { return &r.p.hdr }
func (r *readEnd) read(b []byte, _ int64) (int, Errno) { return r.p.read(r.gen, b, blocker{}) }
func (r *readEnd) readAvailable(max int, w blocker) ([]byte, Errno) {
	return r.p.readAvailable(r.gen, max, w)
}
func (r *readEnd) readInto(dst []byte, w blocker) (int, Errno) {
	return r.p.read(r.gen, dst, w)
}
func (r *readEnd) write([]byte, int64) (int, Errno) { return 0, EBADF }
func (r *readEnd) size() (int64, Errno)             { return 0, ESPIPE }
func (r *readEnd) close() Errno                     { r.p.closeRead(r.gen); return OK }
func (r *readEnd) seekable() bool                   { return false }
func (r *readEnd) poll() uint32                     { return r.p.pollReadable(r.gen) }

func (w *writeEnd) header() *objHeader                   { return &w.p.hdr }
func (w *writeEnd) read([]byte, int64) (int, Errno)      { return 0, EBADF }
func (w *writeEnd) write(b []byte, _ int64) (int, Errno) { return w.p.write(w.gen, b, blocker{}) }
func (w *writeEnd) writeIntr(b []byte, blk blocker) (int, Errno) {
	return w.p.write(w.gen, b, blk)
}
func (w *writeEnd) sendFromFile(ino *inode, off int64, n int, blk blocker) (int, Errno) {
	return w.p.writeFromFile(w.gen, ino, off, n, blk)
}
func (w *writeEnd) size() (int64, Errno) { return 0, ESPIPE }
func (w *writeEnd) close() Errno         { w.p.closeWrite(w.gen); return OK }
func (w *writeEnd) seekable() bool       { return false }
func (w *writeEnd) poll() uint32         { return w.p.pollWritable(w.gen) }

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

// waitLocked parks on the pipe's cond, keeping the waiting count that
// gates recycling. Callers hold p.mu.
func (p *pipe) waitLocked() {
	p.waiting++
	p.cond.Wait()
	p.waiting--
}

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

// sleepLocked parks like waitLocked but, for a board-armed caller on an
// internal pipe, registers a deadlock cell for the duration of the sleep.
// External pipes (host-wakeable) skip registration: the detector must
// never count a sleep the host could end. Callers hold p.mu.
func (p *pipe) sleepLocked(w blocker, kind BlockKind) {
	if w.board != nil && !p.external {
		w.pipePark(kind, &p.wakeSeq, p.wakeSeq.Load())
		p.waitLocked()
		w.unpark()
		return
	}
	p.waitLocked()
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

// releaseDueLocked marks the pipe released when it is dead and drained,
// clearing any leftover bytes so nothing of this connection survives into
// the next use. It returns whether the caller must invoke
// kern.releasePipe after unlocking. Callers hold p.mu.
func (p *pipe) releaseDueLocked() bool {
	if p.hdr.kern == nil || p.released || !p.readClosed || !p.writeClosed || p.waiting > 0 {
		return false
	}
	p.released = true
	p.buf = p.buf[:0]
	p.r = 0
	return true
}

// waitReadableLocked blocks until data is pending, the stream ended, or —
// when the caller supplied an interrupt predicate — a deliverable signal
// arrived (EINTR). ok=false means "stop with errno": OK is EOF, EBADF a
// closed read side. The predicate is checked before the first wait too, so
// a read entered with a signal already pending EINTRs deterministically
// instead of racing the data. Callers hold p.mu.
func (p *pipe) waitReadableLocked(w blocker) (errno Errno, ok bool) {
	for p.unread() == 0 {
		if p.writeClosed {
			return OK, false // EOF
		}
		if p.readClosed {
			return EBADF, false
		}
		if w.interrupted() {
			return EINTR, false
		}
		p.sleepLocked(w, BlockPipeRead)
	}
	return OK, true
}

// consumeLocked advances the read offset past n delivered bytes, rewinding
// the buffer when it drains (so the backing array is reused), and wakes
// writers waiting for space. Callers hold p.mu.
func (p *pipe) consumeLocked(n int) {
	p.r += n
	if p.r == len(p.buf) {
		p.buf = p.buf[:0]
		p.r = 0
	}
	p.wakeLocked()
	// Callers issue the poll wake (space freed: writers polling PollOut
	// may be ready) after releasing p.mu.
}

func (p *pipe) read(gen uint64, b []byte, w blocker) (int, Errno) {
	p.mu.Lock()
	if !p.checkGenLocked(gen) {
		p.mu.Unlock()
		return 0, EBADF
	}
	errno, ok := p.waitReadableLocked(w)
	if !ok {
		// This reader may have been the last waiter holding a dead pipe
		// back from recycling.
		rel := p.releaseDueLocked()
		p.mu.Unlock()
		if rel {
			p.hdr.kern.releasePipe(p)
		}
		return 0, errno
	}
	n := copy(b, p.buf[p.r:])
	p.consumeLocked(n)
	p.mu.Unlock()
	p.hdr.pollWake()
	return n, OK
}

// readAvailable blocks like read, but returns a freshly allocated slice
// sized to the data actually pending (capped at max) instead of filling a
// caller buffer. The kernel's read/recv handlers use it so that a request
// asking for N bytes costs an allocation proportional to the bytes
// delivered, not to N.
func (p *pipe) readAvailable(gen uint64, max int, w blocker) ([]byte, Errno) {
	p.mu.Lock()
	if !p.checkGenLocked(gen) {
		p.mu.Unlock()
		return nil, EBADF
	}
	errno, ok := p.waitReadableLocked(w)
	if !ok {
		rel := p.releaseDueLocked()
		p.mu.Unlock()
		if rel {
			p.hdr.kern.releasePipe(p)
		}
		return nil, errno
	}
	n := p.unread()
	if n > max {
		n = max
	}
	out := make([]byte, n)
	copy(out, p.buf[p.r:])
	p.consumeLocked(n)
	p.mu.Unlock()
	p.hdr.pollWake()
	return out, OK
}

func (p *pipe) write(gen uint64, b []byte, w blocker) (int, Errno) {
	p.mu.Lock()
	if !p.checkGenLocked(gen) {
		p.mu.Unlock()
		return 0, EBADF
	}
	written := 0
	for written < len(b) {
		if p.readClosed {
			rel := p.releaseDueLocked()
			p.mu.Unlock()
			if written > 0 {
				p.hdr.pollWake()
			}
			if rel {
				p.hdr.kern.releasePipe(p)
			}
			return written, EPIPE
		}
		if p.writeClosed {
			rel := p.releaseDueLocked()
			p.mu.Unlock()
			if written > 0 {
				p.hdr.pollWake()
			}
			if rel {
				p.hdr.kern.releasePipe(p)
			}
			return written, EBADF
		}
		space := pipeBufSize - p.unread()
		if space == 0 {
			// Like the read side, the interrupt predicate only bites when
			// the write would otherwise sleep — and per POSIX, a write
			// that already transferred bytes returns the short count with
			// NO error (EINTR is only for zero-progress interruptions):
			// the standard retry-on-EINTR idiom assumes nothing was
			// written, and handing it (n>0, EINTR) would make it resend
			// and duplicate bytes in the stream.
			if w.interrupted() {
				p.mu.Unlock()
				if written > 0 {
					p.hdr.pollWake()
					return written, OK
				}
				return 0, EINTR
			}
			// Announce what this call already buffered BEFORE sleeping:
			// a poller parked on the kernel wait set is the only thing
			// that can drain the pipe in the evented mode, and the
			// end-of-write wake below never happens while we wait here —
			// skipping this is a writer/poller deadlock on any write
			// larger than the pipe capacity.
			if written > 0 {
				p.hdr.pollWake()
			}
			p.sleepLocked(w, BlockPipeWrite)
			continue
		}
		chunk := b[written:]
		if len(chunk) > space {
			chunk = chunk[:space]
		}
		// Compact before growing: if the dead prefix alone makes room,
		// reuse it rather than extending the backing array.
		if p.r > 0 && len(p.buf)+len(chunk) > cap(p.buf) {
			n := copy(p.buf, p.buf[p.r:])
			p.buf = p.buf[:n]
			p.r = 0
		}
		p.buf = append(p.buf, chunk...)
		written += len(chunk)
		p.wakeLocked() // wake readers
	}
	p.mu.Unlock()
	// One poll wake per write, outside the lock (readers polling PollIn
	// are ready): per-chunk wakes under p.mu would stampede every poller
	// in the kernel straight into the lock the writer still holds.
	p.hdr.pollWake()
	return written, OK
}

// writeFromFile is sendfile's sink half: it fills the pipe buffer straight
// from the inode, so the file bytes are copied exactly once (inode → pipe)
// and never materialize in a guest- or monitor-visible buffer. Blocking,
// EPIPE/EBADF, short-count-on-progress, EINTR-only-on-zero-progress, and
// poll-wake placement all mirror write() — this IS a write as far as the
// stream's semantics are concerned; only the source of the bytes differs.
// The inode's read lock is taken per copied chunk (inside readAt), never
// held while sleeping for pipe space.
func (p *pipe) writeFromFile(gen uint64, ino *inode, off int64, total int, w blocker) (int, Errno) {
	p.mu.Lock()
	if !p.checkGenLocked(gen) {
		p.mu.Unlock()
		return 0, EBADF
	}
	written := 0
	for written < total {
		if p.readClosed {
			rel := p.releaseDueLocked()
			p.mu.Unlock()
			if written > 0 {
				p.hdr.pollWake()
			}
			if rel {
				p.hdr.kern.releasePipe(p)
			}
			return written, EPIPE
		}
		if p.writeClosed {
			rel := p.releaseDueLocked()
			p.mu.Unlock()
			if written > 0 {
				p.hdr.pollWake()
			}
			if rel {
				p.hdr.kern.releasePipe(p)
			}
			return written, EBADF
		}
		space := pipeBufSize - p.unread()
		if space == 0 {
			if w.interrupted() {
				p.mu.Unlock()
				if written > 0 {
					p.hdr.pollWake()
					return written, OK
				}
				return 0, EINTR
			}
			// Announce buffered progress before sleeping — same
			// writer/poller deadlock avoidance as write().
			if written > 0 {
				p.hdr.pollWake()
			}
			p.sleepLocked(w, BlockPipeWrite)
			continue
		}
		chunk := total - written
		if chunk > space {
			chunk = space
		}
		// Compact before growing, like write(); then extend the buffer and
		// let the inode copy directly into the new tail.
		if p.r > 0 && len(p.buf)+chunk > cap(p.buf) {
			n := copy(p.buf, p.buf[p.r:])
			p.buf = p.buf[:n]
			p.r = 0
		}
		old := len(p.buf)
		if cap(p.buf) < old+chunk {
			grown := make([]byte, old, old+chunk)
			copy(grown, p.buf)
			p.buf = grown
		}
		p.buf = p.buf[:old+chunk]
		n := ino.readAt(p.buf[old:], off+int64(written))
		p.buf = p.buf[:old+n]
		if n == 0 {
			break // file ended early (shrank under us): short count
		}
		written += n
		p.wakeLocked() // wake readers
	}
	p.mu.Unlock()
	p.hdr.pollWake()
	return written, OK
}

func (p *pipe) closeRead(gen uint64) {
	p.mu.Lock()
	if !p.checkGenLocked(gen) {
		p.mu.Unlock()
		return // the handle's pipe lifetime already ended
	}
	p.readClosed = true
	rel := p.releaseDueLocked()
	p.wakeLocked()
	p.mu.Unlock()
	p.hdr.pollWake() // writers polling the peer see PollErr now
	if rel {
		p.hdr.kern.releasePipe(p)
	}
}

func (p *pipe) closeWrite(gen uint64) {
	p.mu.Lock()
	if !p.checkGenLocked(gen) {
		p.mu.Unlock()
		return
	}
	p.writeClosed = true
	rel := p.releaseDueLocked()
	p.wakeLocked()
	p.mu.Unlock()
	p.hdr.pollWake() // readers polling PollIn see EOF (PollIn|PollHup) now
	if rel {
		p.hdr.kern.releasePipe(p)
	}
}

// interruptNow force-closes both directions regardless of generation —
// the kernel teardown path, where closing a just-recycled pipe of the
// dying session is acceptable (every connection in it is doomed anyway).
func (p *pipe) interruptNow() {
	p.mu.Lock()
	p.readClosed, p.writeClosed = true, true
	rel := p.releaseDueLocked()
	p.wakeLocked()
	p.mu.Unlock()
	p.hdr.pollWake()
	if rel {
		p.hdr.kern.releasePipe(p)
	}
}
