// Package futex provides a futex-style wait/wake service keyed on 32-bit
// words, mirroring Linux's sys_futex, which both the simulated kernel and
// the instrumented synchronization library use for their slow paths.
//
// Semantics follow FUTEX_WAIT / FUTEX_WAKE: Wait(w, val) blocks the caller
// only if *w still equals val at the time the waiter is registered (the
// atomicity that makes futexes race-free), and Wake(w, n) releases up to n
// of the waiters registered at that moment — never waiters that arrive
// later, which is what makes wakeups lossless.
package futex

import (
	"sync"
	"sync/atomic"
)

// Table is an independent futex namespace. Each simulated kernel process
// owns one. The zero value is ready to use.
//
// Queues live in the table only while they are needed: a queue is created
// when the first waiter (or waker) touches its word and removed again once
// the last waiter drains — like the kernel's futex hash buckets, which hold
// no per-address state between waits. Without the removal a process that
// churns through sync addresses (every mutex on a connection object, say)
// would grow the map by one entry per address it ever parked on, for the
// lifetime of the process.
type Table struct {
	mu          sync.Mutex
	queues      map[*atomic.Uint32]*queue
	interrupted bool
}

type queue struct {
	// refs counts callers between acquire and release, guarded by
	// Table.mu. A registered waiter also pins the queue (see release), so
	// refs itself only needs to cover the acquire→register window.
	refs int

	mu          sync.Mutex
	waiters     []chan struct{} // FIFO; closed channel = woken
	interrupted bool
}

// acquire returns the queue for w (creating it on first use) with a
// reference held; every acquire must be balanced by one release.
func (t *Table) acquire(w *atomic.Uint32) *queue {
	t.mu.Lock()
	if t.queues == nil {
		t.queues = make(map[*atomic.Uint32]*queue)
	}
	q, ok := t.queues[w]
	if !ok {
		q = &queue{interrupted: t.interrupted}
		t.queues[w] = q
	}
	q.refs++
	t.mu.Unlock()
	return q
}

// acquireExisting is acquire without create-on-miss, for operations that
// only act on registered waiters (Wake, Waiters). The common uncontended
// FUTEX_WAKE — value changed, nobody waiting — must not allocate a queue
// just to find it empty and delete it again.
func (t *Table) acquireExisting(w *atomic.Uint32) *queue {
	t.mu.Lock()
	q := t.queues[w]
	if q != nil {
		q.refs++
	}
	t.mu.Unlock()
	return q
}

// release drops a reference and removes the queue from the table when it
// is no longer reachable: no caller mid-operation and no registered
// waiter. The map identity check guards against deleting a successor queue
// created for the same word after an InterruptAll dropped this one.
func (t *Table) release(w *atomic.Uint32, q *queue) {
	t.mu.Lock()
	q.refs--
	if q.refs == 0 {
		q.mu.Lock()
		empty := len(q.waiters) == 0
		q.mu.Unlock()
		if empty && t.queues[w] == q {
			delete(t.queues, w)
		}
	}
	t.mu.Unlock()
}

// Register is FUTEX_WAIT's check-and-enqueue step without the sleep. If
// *w != val it returns nil (EAGAIN). Otherwise it queues the caller as w's
// newest waiter and returns the channel the Wake that releases it (or
// InterruptAll) closes; the caller sleeps by receiving from it. Splitting
// the step from the sleep lets a caller order the check and the enqueue
// against other accesses to w without holding that order while it sleeps.
func (t *Table) Register(w *atomic.Uint32, val uint32) <-chan struct{} {
	q := t.acquire(w)
	q.mu.Lock()
	var ch chan struct{}
	switch {
	case w.Load() != val: // EAGAIN: ch stays nil
	case q.interrupted:
		ch = interrupted
	default:
		ch = make(chan struct{})
		q.waiters = append(q.waiters, ch)
	}
	q.mu.Unlock()
	// A registered waiter keeps the queue in the table (release only
	// removes empty queues); whoever pops it last removes the queue.
	t.release(w, q)
	return ch
}

// interrupted is the already-closed channel Register hands out once the
// table has been interrupted.
var interrupted = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Wait blocks the caller until a Wake on w, provided *w == val at entry.
// It returns true if it was registered (and subsequently woken or
// interrupted), false if the value had already changed (EAGAIN).
func (t *Table) Wait(w *atomic.Uint32, val uint32) bool {
	ch := t.Register(w, val)
	if ch == nil {
		return false
	}
	<-ch
	return true
}

// Wake releases up to n waiters registered on w at this moment, in FIFO
// order, and returns how many it released.
func (t *Table) Wake(w *atomic.Uint32, n int) int {
	q := t.acquireExisting(w)
	if q == nil {
		return 0 // no queue, no waiters
	}
	q.mu.Lock()
	k := n
	if k > len(q.waiters) {
		k = len(q.waiters)
	}
	for i := 0; i < k; i++ {
		close(q.waiters[i])
	}
	q.waiters = append(q.waiters[:0], q.waiters[k:]...)
	q.mu.Unlock()
	t.release(w, q)
	return k
}

// WakeAll releases every waiter currently registered on w.
func (t *Table) WakeAll(w *atomic.Uint32) int {
	return t.Wake(w, 1<<30)
}

// InterruptAll permanently releases every waiter on every word and makes
// all future Waits return immediately. It is used when a variant is torn
// down (e.g. after divergence); callers of Wait are expected to observe the
// shutdown condition themselves.
func (t *Table) InterruptAll() {
	t.mu.Lock()
	t.interrupted = true
	queues := make([]*queue, 0, len(t.queues))
	for _, q := range t.queues {
		queues = append(queues, q)
	}
	// Dropping the whole map is safe: callers holding a reference keep
	// their queue pointer, and release's identity check tolerates the
	// entry being gone. Future Waits observe t.interrupted at creation.
	t.queues = nil
	t.mu.Unlock()
	for _, q := range queues {
		q.mu.Lock()
		q.interrupted = true
		for _, ch := range q.waiters {
			close(ch)
		}
		q.waiters = nil
		q.mu.Unlock()
	}
}

// Waiters reports how many goroutines are currently blocked on w. Intended
// for tests and diagnostics.
func (t *Table) Waiters(w *atomic.Uint32) int {
	q := t.acquireExisting(w)
	if q == nil {
		return 0
	}
	q.mu.Lock()
	n := len(q.waiters)
	q.mu.Unlock()
	t.release(w, q)
	return n
}

// Queues reports how many per-word wait queues the table currently holds.
// It exists so tests can assert the table does not accumulate state for
// addresses whose waiters have all drained.
func (t *Table) Queues() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.queues)
}
