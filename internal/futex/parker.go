package futex

import (
	"sync"
	"sync/atomic"
)

// Parker is the user-space half of a futex: an eventcount a polling loop
// parks on once spinning has stopped paying off. Where Table implements the
// simulated kernel's sys_futex (waiters keyed on a guest word, each asleep
// on the Parker of its own Waiter), a Parker is the MVEE's own waiter
// queue for one producer word it already polls — a ring's publication
// word, a Lamport "now serving" clock, a wall clock. The consumer spins a
// while, then parks here; the producer, having stored the word, calls Wake,
// which is a single atomic load when nobody is parked — so the replication
// fast path pays one predictable branch for the right to cost a lagging
// slave zero CPU. The replication plane's one user of the protocol is
// ring.Await; DESIGN §12 ("How a replication-plane thread waits") has the
// spin schedule and the no-lost-wakeup argument.
//
// The protocol is FUTEX_WAIT's, adapted to arbitrary wait conditions:
//
//	g := p.Prepare()            // announce; returns the wake generation
//	if condition() || stopped { // re-check AFTER announcing
//		p.Cancel()
//		...                     // proceed without sleeping
//	}
//	p.Park(g)                   // sleeps only if no Wake since Prepare
//
// A Wake that lands between Prepare and Park bumps the generation, and Park
// returns without sleeping.
//
// Parking and waking are allocation-free (sync.Cond.Wait recycles its
// queue nodes), which is what lets waits that occasionally escalate to a
// park coexist with the replication path's 0 allocs/op invariant.
//
// The zero value is ready to use. A Parker must not be copied after first
// use.
type Parker struct {
	// waiters counts goroutines between Prepare and the end of Park (or
	// Cancel). Producers read it on every publish; it lives first in the
	// struct so embedding types can keep it on a quiet cache line.
	waiters atomic.Int32

	mu   sync.Mutex
	gen  uint64 // wake generation, guarded by mu
	cond sync.Cond
}

// Prepare announces the caller as a waiter and returns the current wake
// generation. Every Prepare must be balanced by exactly one Cancel or
// Park, and the caller must re-check its wait condition between Prepare
// and Park (see the type comment for why that ordering is load-bearing).
func (p *Parker) Prepare() uint64 {
	p.waiters.Add(1)
	p.mu.Lock()
	g := p.gen
	p.mu.Unlock()
	return g
}

// Cancel withdraws a Prepare without parking.
func (p *Parker) Cancel() {
	p.waiters.Add(-1)
}

// Park blocks until a Wake issued after the Prepare that returned g. If
// one already happened, Park returns immediately. Spurious returns are
// possible (any Wake releases every parked waiter); callers re-check their
// condition in a loop.
func (p *Parker) Park(g uint64) {
	parkEvents.Add(1)
	p.mu.Lock()
	if p.cond.L == nil {
		p.cond.L = &p.mu
	}
	for p.gen == g {
		p.cond.Wait()
	}
	p.mu.Unlock()
	p.waiters.Add(-1)
}

// Wake releases every waiter that Prepared before this call. It is the
// producer-side publish hook: call it after storing the data waiters poll
// for. When no one is parked — the fast path — Wake is one atomic load.
func (p *Parker) Wake() {
	if p.waiters.Load() == 0 {
		return
	}
	wakeEvents.Add(1)
	p.mu.Lock()
	p.gen++
	if p.cond.L == nil {
		p.cond.L = &p.mu
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Waiters reports how many goroutines are currently between Prepare and
// the end of Park/Cancel. Intended for tests and diagnostics.
func (p *Parker) Waiters() int {
	return int(p.waiters.Load())
}

// Gen returns the current wake generation. A waiter that recorded g at
// Prepare time and still observes Gen() == g has seen no Wake since — the
// deadlock detector uses this to prove a poll sleeper is genuinely asleep
// (any Wake that found waiters bumped the generation).
func (p *Parker) Gen() uint64 {
	p.mu.Lock()
	g := p.gen
	p.mu.Unlock()
	return g
}
