package core

import "sync/atomic"

// SyncVar is a synchronization variable: one 32-bit word in the variant's
// diversified address space, accessed only through the instrumented sync
// ops below. Every access is bracketed by the variant's agent, exactly like
// the compile-time instrumentation of Listing 3 brackets each atomic
// instruction with before_sync_op/after_sync_op.
//
// A SyncVar belongs to one variant; corresponding SyncVars in different
// variants live at different addresses (ASLR), which is why the agents
// replay positionally instead of by address (§4.5.1).
type SyncVar struct {
	addr uint64
	word atomic.Uint32
}

// Addr returns the variable's virtual address in this variant.
func (v *SyncVar) Addr() uint64 { return v.addr }

// NewSyncVar allocates a synchronization variable in this thread's
// variant's data segment.
func (t *Thread) NewSyncVar() *SyncVar {
	return &SyncVar{addr: t.vs.space.AllocData(4)}
}

// CAS is an instrumented compare-and-swap (a LOCK CMPXCHG, type (i)).
func (t *Thread) CAS(v *SyncVar, old, new uint32) bool {
	t.vs.agent.Before(t.ID, v.addr)
	ok := v.word.CompareAndSwap(old, new)
	t.vs.agent.After(t.ID, v.addr)
	return ok
}

// Load is an instrumented aligned load (type (iii): it aliases variables
// written by type (i)/(ii) ops, so the analysis marks it a sync op).
func (t *Thread) Load(v *SyncVar) uint32 {
	t.vs.agent.Before(t.ID, v.addr)
	x := v.word.Load()
	t.vs.agent.After(t.ID, v.addr)
	return x
}

// Store is an instrumented aligned store (type (iii)); e.g. the
// spinlock_unlock store of Listing 1, line 9.
func (t *Thread) Store(v *SyncVar, x uint32) {
	t.vs.agent.Before(t.ID, v.addr)
	v.word.Store(x)
	t.vs.agent.After(t.ID, v.addr)
}

// Add is an instrumented fetch-and-add (a LOCK XADD, type (i)). It returns
// the new value.
func (t *Thread) Add(v *SyncVar, delta uint32) uint32 {
	t.vs.agent.Before(t.ID, v.addr)
	x := v.word.Add(delta)
	t.vs.agent.After(t.ID, v.addr)
	return x
}

// Xchg is an instrumented exchange (an XCHG, type (ii)). It returns the
// previous value.
func (t *Thread) Xchg(v *SyncVar, x uint32) uint32 {
	t.vs.agent.Before(t.ID, v.addr)
	old := v.word.Swap(x)
	t.vs.agent.After(t.ID, v.addr)
	return old
}

// CodeAddr allocates a function-sized code region in this variant's
// (diversified) code segment and returns its address — the model of "the
// address of function f", which differs across variants under ASLR/DCL.
// The attack-detection experiment leaks such an address.
func (t *Thread) CodeAddr(size uint64) uint64 {
	return t.vs.space.AllocCode(size)
}

// DataAddr allocates a data object and returns its (diversified) address
// without creating a SyncVar; covert-channel PoCs hash such addresses to
// decide their role (§5.4).
func (t *Thread) DataAddr(size uint64) uint64 {
	return t.vs.space.AllocData(size)
}

// RefreshLayout re-randomizes this variant's layout cursors from seed (see
// variant.Space.EpochShift) — the hook a hot-restarting server calls before
// forking a new worker generation, so the new workers' code lands at fresh
// addresses and gadget addresses leaked from the old generation die with
// it. Guest code must call it at the same program position in every variant
// (it is local state, not a monitored syscall).
func (t *Thread) RefreshLayout(seed int64) {
	t.vs.space.EpochShift(seed)
}

// FutexWait blocks until a FutexWake on v, provided v still holds val
// (sys_futex FUTEX_WAIT). The check of v and the enqueue are one sync op,
// bracketed by the agent like a CAS; the sleep runs outside the order. So
// every variant checks v at the master's position and queues behind the
// waiters the master's queue held (§4.1, footnote 5; DESIGN §4).
// After waking, callers must re-check their predicate; the session may be
// tearing down, which the next instrumented op or syscall will surface.
func (t *Thread) FutexWait(v *SyncVar, val uint32) {
	t.checkKilled()
	t.vs.agent.Before(t.ID, v.addr)
	queued := t.vs.futex.Register(&v.word, val, &t.fw)
	t.vs.agent.After(t.ID, v.addr)
	if queued {
		// The deadlock board's proof is t.fw.Queued(), and Wake clears it
		// before this thread runs, so a wake that lands before the cell
		// reads as a wake in flight, never as a sleeper.
		b := t.board()
		b.FutexPark(t.ID, v.addr, &t.fw)
		t.fw.Sleep()
		b.FutexUnpark(t.ID)
	}
	t.checkKilled()
}

// FutexWake wakes up to n waiters on v, oldest first (sys_futex
// FUTEX_WAKE). The wake is an ordered sync op, so it releases the waiters
// the master's wake released.
func (t *Thread) FutexWake(v *SyncVar, n int) int {
	t.vs.agent.Before(t.ID, v.addr)
	k := t.vs.futex.Wake(&v.word, n)
	t.vs.agent.After(t.ID, v.addr)
	return k
}

// AddWake adds delta to v and wakes up to n of its futex waiters, oldest
// first, as one sync op: FUTEX_WAKE_OP's shape, for a primitive that
// publishes a change and wakes its sleepers (Cond.Signal,
// Semaphore.Release) with one ticket instead of two.
func (t *Thread) AddWake(v *SyncVar, delta uint32, n int) {
	t.vs.agent.Before(t.ID, v.addr)
	v.word.Add(delta)
	t.vs.futex.Wake(&v.word, n)
	t.vs.agent.After(t.ID, v.addr)
}

func (t *Thread) checkKilled() {
	if t.sess.mon.Killed() {
		panic(agentStopPanic())
	}
}

// agentStopPanic centralizes the value used to unwind killed vthreads from
// non-monitor code paths.
func agentStopPanic() any { return ErrVariantKilled }

// ErrVariantKilled unwinds vthreads blocked outside the monitor (futex
// waits) when the session dies. Recovered by the vthread trampoline.
var ErrVariantKilled = errKilledType{}

type errKilledType struct{}

func (errKilledType) Error() string { return "core: variant killed" }
