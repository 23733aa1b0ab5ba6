package kernel

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/futex"
)

// Deadlock detection (DESIGN.md §11). The lockstep machinery already knows
// when a master guest thread goes to sleep: every internal blocking site —
// a futex wait, an internal pipe read/write, a waitpid, an infinite poll
// over internal descriptors — parks through code the kernel or core owns.
// A BlockBoard turns that knowledge into a detector: each such site
// registers a cell (thread → what it sleeps on) for exactly the duration of
// the sleep, and when every live master thread has a cell AND every cell
// can be proven genuinely asleep, no internal wake can ever arrive — the
// guest is deadlocked.
//
// The soundness argument is by omission: only sleeps that nothing outside
// the guest can end register cells (the table at blocker, below, is the one
// list of who does), and monitor-internal waits never do — so whenever
// something could still wake a thread, the board sees fewer cells than live
// threads and stays silent. Missing instrumentation therefore produces
// false NEGATIVES only, never a false positive on a live workload.
//
// "Genuinely asleep" closes the wake-in-flight race: a thread that has
// been woken but not yet rescheduled still has its cell registered, so
// cell-count alone would misfire. Each site carries a proof:
//
//   - futex: the sleeper's waiter is still queued. Wake dequeues the
//     waiters it releases before they run, so a woken-but-running thread's
//     cell fails the proof.
//   - pipe: every pipe broadcast bumps the pipe's wakeSeq; a cell whose
//     recorded seq is stale has a wake in flight.
//   - waitpid: same scheme against the kernel-wide tree wake sequence.
//   - poll: the poll Parker's generation; any Wake that found waiters
//     bumps it.
//
// All proofs are monotonic while the guest is quiescent, so the detector's
// verdict on a genuinely deadlocked guest is stable and deterministic: the
// same program and seed block at the same sites with the same edges, run
// after run.

// BlockKind classifies the blocking site a cell was registered at.
type BlockKind uint8

const (
	// BlockFutex is a FUTEX_WAIT on a guest sync variable.
	BlockFutex BlockKind = iota + 1
	// BlockPipeRead is a read/recv sleeping on an empty internal pipe.
	BlockPipeRead
	// BlockPipeWrite is a write/send sleeping on a full internal pipe.
	BlockPipeWrite
	// BlockWaitpid is a waitpid sleeping for a child that has not exited.
	BlockWaitpid
	// BlockPoll is an infinite-timeout poll over internal descriptors only.
	BlockPoll
)

// String implements fmt.Stringer.
func (k BlockKind) String() string {
	switch k {
	case BlockFutex:
		return "futex"
	case BlockPipeRead:
		return "pipe-read"
	case BlockPipeWrite:
		return "pipe-write"
	case BlockWaitpid:
		return "waitpid"
	case BlockPoll:
		return "poll"
	}
	return "unknown"
}

// BlockedSite is the public snapshot of one cell: which thread sleeps
// where. Addr identifies the waited object in guest terms (futex: the sync
// variable's virtual address; waitpid: the waited pid or WaitAny; pipe and
// poll: unused — FD carries the descriptor).
type BlockedSite struct {
	Tid  int
	Kind BlockKind
	Addr uint64
	FD   int
}

// cell is one registered sleep. The site-specific proof fields below are
// what validate() checks; exactly one group is populated per kind.
type cell struct {
	site BlockedSite

	// futex proof: the sleeper's waiter is still queued.
	fw *futex.Waiter

	// pipe / waitpid proof: the site's wake sequence at registration.
	seqw *atomic.Uint64
	seq  uint64

	// poll proof: the poll parker's generation at Prepare.
	pk *futex.Parker
	g  uint64
}

// BlockBoard tracks which live master guest threads are asleep at internal
// blocking sites. One board serves one session's master variant; slave
// variants and unmonitored kernels carry a nil board, which every hook
// checks first — the disarmed cost on the replication hot path is one nil
// compare, preserving its 0 allocs/op invariant.
type BlockBoard struct {
	mu      sync.Mutex
	alive   []bool
	cells   []cell
	parked  []bool
	live    int
	nslots  int
	blocked int

	// onDeadlock fires at most once, with the validated snapshot.
	onDeadlock func([]BlockedSite)
	fired      bool
	closed     bool

	// checkCh nudges the watcher whenever blocked == live becomes true.
	checkCh chan struct{}
}

// NewBlockBoard builds a board for up to maxThreads guest tids and starts
// its watcher. onDeadlock is invoked at most once, from the watcher
// goroutine, with every blocked thread's site (sorted by tid). Close the
// board when the session ends.
func NewBlockBoard(maxThreads int, onDeadlock func([]BlockedSite)) *BlockBoard {
	if maxThreads < 1 {
		maxThreads = 1
	}
	b := &BlockBoard{
		alive:      make([]bool, maxThreads),
		cells:      make([]cell, maxThreads),
		parked:     make([]bool, maxThreads),
		nslots:     maxThreads,
		onDeadlock: onDeadlock,
		checkCh:    make(chan struct{}, 1),
	}
	go b.watch()
	return b
}

// Close stops the watcher. Idempotent.
func (b *BlockBoard) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		select {
		case b.checkCh <- struct{}{}:
		default:
		}
	}
	b.mu.Unlock()
}

// ThreadStart marks tid live. Call when a master guest thread begins
// running; balance with ThreadExit on every unwind path.
func (b *BlockBoard) ThreadStart(tid int) {
	if b == nil || tid < 0 || tid >= b.nslots {
		return
	}
	b.mu.Lock()
	if !b.alive[tid] {
		b.alive[tid] = true
		b.live++
	}
	b.mu.Unlock()
}

// ThreadExit marks tid gone. A thread exit can complete a deadlock (the
// remaining threads were already parked), so it nudges the watcher too.
func (b *BlockBoard) ThreadExit(tid int) {
	if b == nil || tid < 0 || tid >= b.nslots {
		return
	}
	b.mu.Lock()
	if b.alive[tid] {
		b.alive[tid] = false
		b.live--
		if b.parked[tid] {
			b.parked[tid] = false
			b.blocked--
		}
		b.maybeNudgeLocked()
	}
	b.mu.Unlock()
}

// park registers a cell for c.site.Tid and nudges the watcher if the board
// just reached full coverage. Threads register immediately before sleeping
// and deregister (unpark) immediately after returning, so a tid holds at
// most one cell at a time.
func (b *BlockBoard) park(c cell) {
	tid := c.site.Tid
	if b == nil || tid < 0 || tid >= b.nslots {
		return
	}
	b.mu.Lock()
	if !b.parked[tid] {
		b.parked[tid] = true
		b.blocked++
	}
	b.cells[tid] = c
	b.maybeNudgeLocked()
	b.mu.Unlock()
}

// unpark removes tid's cell.
func (b *BlockBoard) unpark(tid int) {
	if b == nil || tid < 0 || tid >= b.nslots {
		return
	}
	b.mu.Lock()
	if b.parked[tid] {
		b.parked[tid] = false
		b.blocked--
	}
	b.mu.Unlock()
}

// maybeNudgeLocked wakes the watcher when every live thread holds a cell.
func (b *BlockBoard) maybeNudgeLocked() {
	if b.fired || b.closed || b.live == 0 || b.blocked != b.live {
		return
	}
	select {
	case b.checkCh <- struct{}{}:
	default:
	}
}

// watch waits for full-coverage nudges and validates them. Validation can
// fail transiently (a woken thread still holds its cell); while coverage
// holds the watcher re-checks on a short backoff — a genuinely deadlocked
// guest validates on the first or second pass, and any transient state is
// broken by the runnable thread deregistering, which drops coverage.
func (b *BlockBoard) watch() {
	for range b.checkCh {
		for {
			b.mu.Lock()
			if b.fired || b.closed {
				b.mu.Unlock()
				return
			}
			if b.live == 0 || b.blocked != b.live {
				b.mu.Unlock()
				break
			}
			if b.validateLocked() {
				b.fired = true
				snap := b.snapshotLocked()
				cb := b.onDeadlock
				b.mu.Unlock()
				if cb != nil {
					cb(snap)
				}
				return
			}
			b.mu.Unlock()
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// validateLocked proves every parked cell is genuinely asleep. Caller
// holds b.mu; the one per-site lock taken here (the poll parker's) is a
// leaf in the lock order — nothing acquires b.mu while holding it except
// through the registration path, which never calls back in.
func (b *BlockBoard) validateLocked() bool {
	for tid := 0; tid < b.nslots; tid++ {
		if !b.parked[tid] || !b.alive[tid] {
			continue
		}
		c := &b.cells[tid]
		switch c.site.Kind {
		case BlockFutex:
			if !c.fw.Queued() {
				return false
			}
		case BlockPipeRead, BlockPipeWrite, BlockWaitpid:
			if c.seqw.Load() != c.seq {
				return false
			}
		case BlockPoll:
			if c.pk.Gen() != c.g {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// snapshotLocked copies the blocked sites, ordered by tid.
func (b *BlockBoard) snapshotLocked() []BlockedSite {
	out := make([]BlockedSite, 0, b.blocked)
	for tid := 0; tid < b.nslots; tid++ {
		if b.parked[tid] && b.alive[tid] {
			out = append(out, b.cells[tid].site)
		}
	}
	return out
}

// FutexPark registers a futex sleep: tid is about to sleep on fw, which
// Register queued on the sync variable at guest address addr. Balance with
// FutexUnpark when the wait returns. Exported because the futex slow path
// lives in core, not the kernel.
func (b *BlockBoard) FutexPark(tid int, addr uint64, fw *futex.Waiter) {
	if b == nil {
		return
	}
	b.park(cell{
		site: BlockedSite{Tid: tid, Kind: BlockFutex, Addr: addr},
		fw:   fw,
	})
}

// FutexUnpark removes tid's futex cell.
func (b *BlockBoard) FutexUnpark(tid int) { b.unpark(tid) }

// blocker is a blocking call's identity at the kernel's sleep sites, and
// the single answer to both questions a sleep asks. What ends it early:
// interrupted(), for every site. Does it register a deadlock cell: only
// through park*/unpark, which do nothing without a board-armed process —
// and only where the table below says so, because a sleep that anything
// outside the guest's own state can end must never count toward a verdict.
//
//	site (sleep function)          registers        woken by a kick through
//	pipe recv/send (sleepLocked)   internal pipes   pipe.kick (cond)
//	waitpid (doWaitpid)            always           treeWake (cond)
//	poll (doPoll)                  untimed, all     pollPark
//	                               fds internal
//	accept (listener.accept)       never: a host    listener.kick (cond)
//	                               Connect wakes it
//	nanosleep, chaos delay         never: timed     Proc.sigPark
//	(sleepFor)
//
// A pipe with a host-side end (pipe.external, ClientConn) is the other
// externally wakeable case. The zero blocker (host-side ClientConn I/O,
// kernel-internal drains) is never interrupted and registers nothing. A
// plain value built on the caller's stack: no allocation on any path.
type blocker struct {
	p   *Proc
	tid int
	fd  int
}

// interrupted reports whether the blocked call must give up with EINTR: an
// exit-group in progress (the first exiting thread yanks its siblings out)
// or a deliverable signal. Sites check it under the lock, or after the
// Prepare, that signalKick's wake takes, before the first sleep and after
// every wake — so a cause raised before the sleep interrupts as surely as
// one raised during it.
func (w blocker) interrupted() bool {
	return w.p != nil && (w.p.exitGroup.Load() || w.p.signalPending())
}

// armed reports whether parks from this call reach a board.
func (w blocker) armed() bool { return w.p != nil && w.p.board != nil }

// parkSeq registers a sleep whose proof is a wake sequence (pipe, waitpid).
// The caller holds the lock the sequence is bumped under, so the sample
// and the cell are atomic with respect to wakes.
func (w blocker) parkSeq(kind BlockKind, addr uint64, seqw *atomic.Uint64) {
	if w.armed() {
		w.p.board.park(cell{
			site: BlockedSite{Tid: w.tid, Kind: kind, Addr: addr, FD: w.fd},
			seqw: seqw, seq: seqw.Load(),
		})
	}
}

// parkPoll registers an untimed poll; the proof is the generation the
// caller's Prepare returned — any Wake that saw it waiting bumps it.
func (w blocker) parkPoll(pk *futex.Parker, g uint64) {
	if w.armed() {
		w.p.board.park(cell{
			site: BlockedSite{Tid: w.tid, Kind: BlockPoll, FD: w.fd},
			pk:   pk, g: g,
		})
	}
}

// unpark removes the caller's cell, if it holds one.
func (w blocker) unpark() {
	if w.armed() {
		w.p.board.unpark(w.tid)
	}
}
