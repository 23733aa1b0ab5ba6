// Package futex provides a futex-style wait/wake service keyed on 32-bit
// words, mirroring Linux's sys_futex, which both the simulated kernel and
// the instrumented synchronization library use for their slow paths.
//
// Semantics follow FUTEX_WAIT / FUTEX_WAKE: Wait(w, val) blocks the caller
// only if *w still equals val at the time the waiter is registered (the
// atomicity that makes futexes race-free), and Wake(w, n) releases up to n
// of the waiters registered at that moment — never waiters that arrive
// later, which is what makes wakeups lossless.
//
// The shape is Linux's futex hash: a fixed array of buckets, each a lock
// and a FIFO of waiter nodes that the waiting threads own. A word has no
// state of its own; it is a key its waiters carry, so the table neither
// allocates nor accumulates per-address state, however many words a
// process waits on.
package futex

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// bucketBits sets the table's hash width, 16 buckets. Guest processes park
// a handful of threads at a time, so a collision costs a short list walk
// under a lock the wake takes anyway; the buckets stay unpadded because
// every session allocates one Table per variant.
const bucketBits = 4

// Table is an independent futex namespace. Each variant of a session owns
// one. The zero value is ready to use.
type Table struct {
	b           [1 << bucketBits]bucket
	interrupted atomic.Bool
}

// bucket is one hash chain: a FIFO of the waiters registered on the words
// that hash here, oldest first.
type bucket struct {
	mu         sync.Mutex
	head, tail *Waiter
}

// Waiter is one thread's FUTEX_WAIT registration. A thread waits on one
// word at a time, so it embeds one Waiter and reuses it for every wait:
// registering links the node into its bucket and allocates nothing. The
// zero value is ready to use; a Waiter must not be copied after first use.
type Waiter struct {
	word   *atomic.Uint32 // guarded by the bucket lock while queued
	next   *Waiter        // guarded by the bucket lock
	queued atomic.Bool
	p      Parker
}

func (t *Table) bucketOf(w *atomic.Uint32) *bucket {
	h := uint64(uintptr(unsafe.Pointer(w))) * 0x9E3779B97F4A7C15 // Fibonacci hashing
	return &t.b[h>>(64-bucketBits)]
}

// Register is FUTEX_WAIT's check-and-enqueue step without the sleep. If
// *w != val it returns false (EAGAIN). Otherwise it queues n as w's
// newest waiter and returns true; the caller then sleeps with n.Sleep
// until a Wake (or InterruptAll) releases n. Once the table has been
// interrupted, Register still reports true but queues nothing, so the
// sleep returns at once. Splitting the step from the sleep lets a caller
// order the check and the enqueue against other accesses to w without
// holding that order while it sleeps.
func (t *Table) Register(w *atomic.Uint32, val uint32, n *Waiter) bool {
	b := t.bucketOf(w)
	b.mu.Lock()
	defer b.mu.Unlock()
	if w.Load() != val {
		return false
	}
	if t.interrupted.Load() {
		return true
	}
	n.word, n.next = w, nil
	n.queued.Store(true)
	if b.tail == nil {
		b.head = n
	} else {
		b.tail.next = n
	}
	b.tail = n
	return true
}

// Sleep blocks until the registration Register made is released. It is
// the Parker protocol with the queued flag as its condition: a release
// that lands between Prepare and Park bumps the generation, so Park
// returns at once. Like FUTEX_WAIT it sleeps without spinning first.
func (n *Waiter) Sleep() {
	for n.queued.Load() {
		g := n.p.Prepare()
		if !n.queued.Load() {
			n.p.Cancel()
			return
		}
		n.p.Park(g)
	}
}

// Queued reports whether n is still registered: no Wake or InterruptAll
// has released it. Wake clears it before the sleeper runs, so a queued
// waiter is provably asleep — the deadlock detector's futex proof.
func (n *Waiter) Queued() bool { return n.queued.Load() }

// Wait blocks the caller until a Wake on w, provided *w == val at entry.
// It returns true if it was registered (and subsequently woken or
// interrupted), false if the value had already changed (EAGAIN).
func (t *Table) Wait(w *atomic.Uint32, val uint32) bool {
	var n Waiter
	if !t.Register(w, val, &n) {
		return false
	}
	n.Sleep()
	return true
}

// Wake releases up to n waiters registered on w at this moment, in
// registration order, and returns how many it released.
func (t *Table) Wake(w *atomic.Uint32, n int) int {
	b := t.bucketOf(w)
	b.mu.Lock()
	defer b.mu.Unlock()
	k := 0
	var prev *Waiter
	for cur := b.head; cur != nil && k < n; {
		next := cur.next
		if cur.word != w {
			prev = cur
		} else {
			b.unlink(prev, cur)
			cur.release()
			k++
		}
		cur = next
	}
	return k
}

// unlink removes cur, whose predecessor is prev, from the chain. Caller
// holds b.mu.
func (b *bucket) unlink(prev, cur *Waiter) {
	if prev == nil {
		b.head = cur.next
	} else {
		prev.next = cur.next
	}
	if b.tail == cur {
		b.tail = prev
	}
	cur.next = nil
}

// release ends n's registration and wakes its sleeper. Once queued reads
// false the owner may reuse n, so release touches nothing but the parker
// afterwards.
func (n *Waiter) release() {
	n.queued.Store(false)
	n.p.Wake()
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
	// Set before any bucket is drained: a Register that takes a bucket lock
	// after the drain released it sees the flag and queues nothing.
	t.interrupted.Store(true)
	for i := range t.b {
		b := &t.b[i]
		b.mu.Lock()
		for b.head != nil {
			cur := b.head
			b.unlink(nil, cur)
			cur.release()
		}
		b.mu.Unlock()
	}
}

// Waiters reports how many waiters are currently registered on w.
// Intended for tests and diagnostics.
func (t *Table) Waiters(w *atomic.Uint32) int {
	b := t.bucketOf(w)
	b.mu.Lock()
	defer b.mu.Unlock()
	k := 0
	for cur := b.head; cur != nil; cur = cur.next {
		if cur.word == w {
			k++
		}
	}
	return k
}
