// Package synclib is the instrumented synchronization library the MVEE
// workloads link against — the stand-in for the instrumented libpthread /
// libgomp / libstdc++ of §5.3. Every primitive is built exclusively from
// the instrumented sync ops on core.SyncVar (CAS / Load / Store / Add /
// Xchg), so every atomic access to a synchronization variable passes
// through the variant's synchronization agent, and blocking slow paths use
// the per-variant futex, mirroring glibc's lowlevellock design.
//
// Primitives provided: Mutex, SpinLock, TryLock support, RWMutex, Cond,
// Barrier, Semaphore, Once, and WaitGroup — the vocabulary PARSEC and
// SPLASH-2x programs actually use.
package synclib

import "repro/internal/core"

// Mutex is a futex-based mutual exclusion lock, shaped like glibc's
// lowlevellock: word states 0 (free), 1 (locked, no waiters),
// 2 (locked, possible waiters).
type Mutex struct {
	w *core.SyncVar
}

// NewMutex allocates a mutex in t's variant.
func NewMutex(t *core.Thread) *Mutex {
	return &Mutex{w: t.NewSyncVar()}
}

// Lock acquires m, blocking on the futex under contention. The slow path
// is Drepper's classic futex mutex: exchange in state 2 ("locked with
// possible waiters") until the previous state was 0.
func (m *Mutex) Lock(t *core.Thread) {
	if t.CAS(m.w, 0, 1) {
		t.NoteAcquire(m.w.Addr())
		return
	}
	for t.Xchg(m.w, 2) != 0 {
		t.FutexWait(m.w, 2)
	}
	t.NoteAcquire(m.w.Addr())
}

// TryLock attempts to acquire m without blocking; it reports success. The
// trylock covert channel PoC (§5.4) is built on the replication of exactly
// this operation's outcome.
func (m *Mutex) TryLock(t *core.Thread) bool {
	if t.CAS(m.w, 0, 1) {
		t.NoteAcquire(m.w.Addr())
		return true
	}
	return false
}

// Unlock releases m and, if contention was announced, wakes one waiter:
// the oldest, which is the same thread in every variant because futex
// waits and wakes replay in the master's order.
func (m *Mutex) Unlock(t *core.Thread) {
	t.NoteRelease(m.w.Addr())
	if t.Xchg(m.w, 0) == 2 {
		t.FutexWake(m.w, 1)
	}
}

// SpinLock is the ad-hoc spinlock of Listing 1: CAS to acquire, plain
// (type (iii)) store to release, sched_yield in the spin loop.
type SpinLock struct {
	w *core.SyncVar
}

// NewSpinLock allocates a spinlock in t's variant.
func NewSpinLock(t *core.Thread) *SpinLock {
	return &SpinLock{w: t.NewSyncVar()}
}

// Lock spins until the lock is acquired.
func (s *SpinLock) Lock(t *core.Thread) {
	for !t.CAS(s.w, 0, 1) {
		t.Yield()
	}
}

// TryLock attempts one acquisition.
func (s *SpinLock) TryLock(t *core.Thread) bool {
	return t.CAS(s.w, 0, 1)
}

// Unlock releases the lock with the Listing 1 line 9 plain store.
func (s *SpinLock) Unlock(t *core.Thread) {
	t.Store(s.w, 0)
}

// Cond is a condition variable built on a sequence word, following the
// futex-based design of glibc: Wait snapshots the sequence, releases the
// mutex, and sleeps until the sequence moves.
type Cond struct {
	seq *core.SyncVar
}

// NewCond allocates a condition variable.
func NewCond(t *core.Thread) *Cond {
	return &Cond{seq: t.NewSyncVar()}
}

// Wait atomically releases m and blocks until a Signal/Broadcast, then
// reacquires m. Spurious wakeups are possible, as with pthreads; callers
// must re-check their predicate in a loop.
func (c *Cond) Wait(t *core.Thread, m *Mutex) {
	seq := t.Load(c.seq)
	m.Unlock(t)
	t.FutexWait(c.seq, seq)
	m.Lock(t)
}

// Signal wakes one waiter.
func (c *Cond) Signal(t *core.Thread) {
	t.AddWake(c.seq, 1, 1)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(t *core.Thread) {
	t.AddWake(c.seq, 1, 1<<30)
}

// Barrier blocks parties threads until all have arrived — the phase
// synchronization SPLASH-2x kernels are built around.
type Barrier struct {
	parties uint32
	count   *core.SyncVar
	gen     *core.SyncVar
}

// NewBarrier allocates a barrier for parties threads.
func NewBarrier(t *core.Thread, parties int) *Barrier {
	return &Barrier{
		parties: uint32(parties),
		count:   t.NewSyncVar(),
		gen:     t.NewSyncVar(),
	}
}

// Wait blocks until all parties have called Wait for the current phase.
func (b *Barrier) Wait(t *core.Thread) {
	gen := t.Load(b.gen)
	if t.Add(b.count, 1) == b.parties {
		// Last arriver: reset the count, advance the generation, wake.
		t.Store(b.count, 0)
		t.AddWake(b.gen, 1, 1<<30)
		return
	}
	for t.Load(b.gen) == gen {
		t.FutexWait(b.gen, gen)
	}
}

// Semaphore is a counting semaphore (sem_t).
type Semaphore struct {
	v *core.SyncVar
}

// NewSemaphore allocates a semaphore with the given initial count.
func NewSemaphore(t *core.Thread, initial int) *Semaphore {
	s := &Semaphore{v: t.NewSyncVar()}
	if initial > 0 {
		t.Store(s.v, uint32(initial))
	}
	return s
}

// Acquire decrements the semaphore, blocking while it is zero.
func (s *Semaphore) Acquire(t *core.Thread) {
	for {
		c := t.Load(s.v)
		if c > 0 {
			if t.CAS(s.v, c, c-1) {
				return
			}
			continue
		}
		t.FutexWait(s.v, 0)
	}
}

// TryAcquire attempts one decrement without blocking.
func (s *Semaphore) TryAcquire(t *core.Thread) bool {
	c := t.Load(s.v)
	return c > 0 && t.CAS(s.v, c, c-1)
}

// Release increments the semaphore and wakes one waiter.
func (s *Semaphore) Release(t *core.Thread) {
	t.AddWake(s.v, 1, 1)
}

// RWMutex is a writer-preference-free read-write lock built from a mutex
// and a reader count (the classic pthreads construction).
type RWMutex struct {
	m       *Mutex
	readers *core.SyncVar
	rzero   *core.SyncVar // kicked when the last reader leaves
}

// NewRWMutex allocates a read-write lock.
func NewRWMutex(t *core.Thread) *RWMutex {
	return &RWMutex{m: NewMutex(t), readers: t.NewSyncVar(), rzero: t.NewSyncVar()}
}

// RLock acquires the lock for reading.
func (rw *RWMutex) RLock(t *core.Thread) {
	rw.m.Lock(t)
	t.Add(rw.readers, 1)
	rw.m.Unlock(t)
	// A reader "holds" rzero in wait-for terms: writers sleep on rzero
	// until the last reader leaves, so the read side is what a blocked
	// writer depends on (and a reader upgrading in place depends on
	// itself — the classic self-deadlock).
	t.NoteAcquire(rw.rzero.Addr())
}

// RUnlock releases a read acquisition.
func (rw *RWMutex) RUnlock(t *core.Thread) {
	t.NoteRelease(rw.rzero.Addr())
	if t.Add(rw.readers, ^uint32(0)) == 0 { // decrement
		t.AddWake(rw.rzero, 1, 1<<30)
	}
}

// Lock acquires the lock for writing: takes the mutex (excluding new
// readers) and waits for in-flight readers to drain.
func (rw *RWMutex) Lock(t *core.Thread) {
	rw.m.Lock(t)
	for t.Load(rw.readers) != 0 {
		z := t.Load(rw.rzero)
		if t.Load(rw.readers) == 0 {
			break
		}
		t.FutexWait(rw.rzero, z)
	}
}

// Unlock releases a write acquisition.
func (rw *RWMutex) Unlock(t *core.Thread) {
	rw.m.Unlock(t)
}

// Once runs a function exactly once across the variant's threads
// (pthread_once).
type Once struct {
	state *core.SyncVar // 0 new, 1 running, 2 done
}

// NewOnce allocates a Once.
func NewOnce(t *core.Thread) *Once {
	return &Once{state: t.NewSyncVar()}
}

// Do runs fn if no other thread has; otherwise it waits for completion.
func (o *Once) Do(t *core.Thread, fn func()) {
	if t.Load(o.state) == 2 {
		return
	}
	if t.CAS(o.state, 0, 1) {
		// The winner owns the Once until completion: threads that lose the
		// race sleep on state, so a winner that re-enters Do (or never
		// finishes fn) is a holder in the wait-for graph.
		t.NoteAcquire(o.state.Addr())
		fn()
		t.NoteRelease(o.state.Addr())
		t.Store(o.state, 2)
		t.FutexWake(o.state, 1<<30)
		return
	}
	for t.Load(o.state) != 2 {
		t.FutexWait(o.state, 1)
	}
}

// WaitGroup counts outstanding work (the join side of fork/join loops).
type WaitGroup struct {
	n *core.SyncVar
}

// NewWaitGroup allocates a WaitGroup.
func NewWaitGroup(t *core.Thread) *WaitGroup {
	return &WaitGroup{n: t.NewSyncVar()}
}

// Add increments the counter by delta.
func (wg *WaitGroup) Add(t *core.Thread, delta int) {
	t.Add(wg.n, uint32(delta))
}

// Done decrements the counter, waking waiters at zero.
func (wg *WaitGroup) Done(t *core.Thread) {
	if t.Add(wg.n, ^uint32(0)) == 0 {
		t.FutexWake(wg.n, 1<<30)
	}
}

// Wait blocks until the counter reaches zero.
func (wg *WaitGroup) Wait(t *core.Thread) {
	for {
		c := t.Load(wg.n)
		if c == 0 {
			return
		}
		t.FutexWait(wg.n, c)
	}
}
