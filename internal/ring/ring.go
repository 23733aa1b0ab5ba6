// Package ring implements the bounded, shared ring buffers the MVEE uses to
// carry synchronization events from the master variant to the slave
// variants ("sync buffers") and to replicate system-call results ("syscall
// buffers", §4).
//
// The central type is Log: a bounded, multi-producer, append-only circular
// log with one independent read cursor per consumer group. A consumer group
// corresponds to one slave variant: every slave consumes the entire log, in
// order, at its own pace. Slots are recycled once every group has moved its
// cursor past them, so a slow slave back-pressures the master exactly like
// a full shared-memory ring does in the paper's implementation.
//
// With a single producer the Log degenerates to the per-thread SPSC buffers
// used by the wall-of-clocks agent (§4.5); with many producers it is the
// single shared buffer of the total-order and partial-order agents.
//
// Hot-path design (§4's shared-ring lessons, applied):
//
//   - The producer sequence word and every consumer-group cursor live on
//     their own cache line. The master writes prod and the slaves write
//     their cursors at syscall rate; without padding those words share
//     lines and every append/advance ping-pongs the line across cores
//     (false sharing).
//   - AppendBatch and TryConsumeBatch amortize the cross-core traffic over
//     k events: one producer fetch-add and one back-pressure wait per
//     batch, and one cursor compare-and-swap per consumed run.
//   - Every blocking operation waits through Await (DESIGN §12, "How a
//     replication-plane thread waits").
package ring

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/futex"
)

// ErrStopped is panicked by blocking Log operations once SetStop's flag is
// set, so that threads waiting on a dead ring unwind instead of waiting
// forever. Callers that install a stop flag must recover it.
var ErrStopped = errors.New("ring: stopped")

// cacheLine is the assumed coherence granule. 64 bytes covers x86-64 and
// most arm64 parts; over-padding on 128-byte-line machines costs a few
// bytes, under-padding would cost false sharing.
const cacheLine = 64

// paddedCursor is one consumer group's read position, alone on its cache
// line so that group A advancing never invalidates the line group B (or the
// producer) is spinning on.
type paddedCursor struct {
	c atomic.Uint64
	_ [cacheLine - 8]byte
}

// Log is a bounded multi-producer broadcast log. See the package comment.
// Create Logs with NewLog; the zero value is not usable.
type Log[T any] struct {
	slots []slot[T]
	mask  uint64
	stop  *atomic.Bool // optional shutdown flag; see SetStop

	_    [cacheLine]byte
	prod atomic.Uint64 // next sequence number to allocate
	// minSeen is the lowest consumer cursor ReserveN last read: a lower
	// bound on every cursor (they only grow), so while it says there is
	// room the single producer reserves without touching the consumers'
	// lines at all. Only ReserveN's caller reads or writes it, which is why
	// it may sit on prod's line.
	minSeen uint64
	// reserving is set while a ReserveN is in flight, in -race builds only:
	// a second, overlapping ReserveN panics there instead of silently
	// corrupting minSeen.
	reserving atomic.Bool
	_         [cacheLine - 20]byte
	cursors   []paddedCursor // per consumer group: next sequence to consume

	// waitQ is where Await parks consumers waiting on a publication and
	// producers waiting on back-pressure. Every state change (publish,
	// cursor advance) wakes it — one atomic load when nobody is parked.
	// One wait set per log is deliberate: wakes broadcast and waiters
	// re-check, so sharing costs only spurious re-checks, while per-slot
	// wait sets would cost a producer one load per slot instead of one per
	// operation.
	waitQ futex.Parker
}

type slot[T any] struct {
	pub atomic.Uint64 // seq+1 once the value for seq is readable
	val T
}

// NewLog returns a log with the given capacity (rounded up to a power of
// two, minimum 2) and one read cursor per consumer group. groups must be at
// least 1.
func NewLog[T any](capacity, groups int) *Log[T] {
	if groups < 1 {
		panic(fmt.Sprintf("ring: %d consumer groups", groups))
	}
	c := 2
	for c < capacity {
		c <<= 1
	}
	return &Log[T]{
		slots:   make([]slot[T], c),
		mask:    uint64(c - 1),
		cursors: make([]paddedCursor, groups),
	}
}

// Cap returns the capacity of the log.
func (l *Log[T]) Cap() int { return len(l.slots) }

// Append publishes v and returns its sequence number. Append blocks (spins,
// then backs off) while the slot it needs is still unread by the slowest
// consumer group; this is the back-pressure a bounded shared ring applies
// to the master variant.
func (l *Log[T]) Append(v T) uint64 {
	seq := l.prod.Add(1) - 1
	// The slot for seq was previously occupied by seq-cap. It may be
	// reused only once every group's cursor has passed that occupant.
	l.awaitSpace(seq)
	s := &l.slots[seq&l.mask]
	s.val = v
	s.pub.Store(seq + 1)
	l.waitQ.Wake()
	return seq
}

// AppendBatch publishes vs in order and returns the sequence number of the
// first element (meaningless when vs is empty). The whole batch costs one
// producer fetch-add and one back-pressure wait; per-producer FIFO order is
// preserved because the sequence range is claimed atomically. Batches
// larger than the capacity are split internally so they cannot deadlock
// against the ring's own bound.
func (l *Log[T]) AppendBatch(vs []T) uint64 {
	if len(vs) == 0 {
		return l.prod.Load()
	}
	appendBatches.Add(1)
	appendItems.Add(uint64(len(vs)))
	// A batch can only be in flight whole if it fits the ring: the
	// back-pressure wait below needs the LAST slot of the chunk to be
	// recyclable while the first is still unpublished.
	first := uint64(0)
	for chunk := 0; len(vs) > 0; chunk++ {
		n := len(vs)
		if n > len(l.slots) {
			n = len(l.slots)
		}
		seq := l.prod.Add(uint64(n)) - uint64(n)
		if chunk == 0 {
			first = seq
		}
		// One wait for the whole chunk: space for the last slot implies
		// space for every earlier one.
		l.awaitSpace(seq + uint64(n) - 1)
		for i := 0; i < n; i++ {
			l.slots[(seq+uint64(i))&l.mask].val = vs[i]
		}
		// Publish in order. Consumers poll slot i's publication word, so
		// the batch becomes visible front to back; the amortized part is
		// the single fetch-add and single back-pressure check above.
		for i := 0; i < n; i++ {
			l.slots[(seq+uint64(i))&l.mask].pub.Store(seq + uint64(i) + 1)
		}
		l.waitQ.Wake()
		vs = vs[n:]
	}
	return first
}

// ReserveN claims the next n consecutive sequence numbers in one producer
// fetch-add, blocks until their slots are recyclable, and returns the first,
// without publishing anything: the caller fills each Slot(seq) in place and
// Commits it, front to back. The split exists for producers that build a
// value where it will be read — a fat record written field by field, a
// payload placed in slot-lifetime storage (an arena recycled in lockstep
// with the ring): once ReserveN returns, every consumer group has moved past
// the slots' previous occupants, so the slots and whatever backed those
// occupants may be overwritten. Consumers at a reserved sequence simply keep
// polling until Commit lands, exactly as with a producer mid-Append. Like
// AppendBatch's chunks, one wait on the LAST reserved slot covers the whole
// run. n must not exceed the ring's capacity — callers chunk larger batches.
//
// ReserveN is single-producer (-race builds panic on overlapping calls): it
// remembers the lowest cursor it last saw (minSeen) and re-reads the
// consumers' cache lines only when that says the ring is full. A stale value
// is merely conservative — it sends the producer to awaitSpace, which reads
// the live cursors and polls the stop callback. Append and AppendBatch, the
// agents' multi-producer path, read the cursors every time.
func (l *Log[T]) ReserveN(n int) uint64 {
	if n > len(l.slots) {
		panic("ring: ReserveN larger than ring capacity")
	}
	if raceEnabled {
		if !l.reserving.CompareAndSwap(false, true) {
			panic("ring: overlapping ReserveN calls on one Log (ReserveN is single-producer)")
		}
		defer l.reserving.Store(false)
	}
	seq := l.prod.Add(uint64(n)) - uint64(n)
	if last := seq + uint64(n) - 1; last >= l.minSeen+uint64(len(l.slots)) {
		l.minSeen = l.awaitSpace(last)
	}
	return seq
}

// Slot returns the storage of sequence seq. A producer may write through it
// between ReserveN and Commit(seq); a consumer of group g may read through
// it once Ready(seq) and until g's cursor passes seq — the value, and any
// slot-lifetime storage it references, is overwritten after that.
func (l *Log[T]) Slot(seq uint64) *T { return &l.slots[seq&l.mask].val }

// Commit publishes the value the producer wrote into Slot(seq), completing
// an append started with ReserveN.
func (l *Log[T]) Commit(seq uint64) {
	l.slots[seq&l.mask].pub.Store(seq + 1)
	l.waitQ.Wake()
}

// awaitSpace blocks until the slot for seq is recyclable, i.e. every
// consumer group's cursor has passed seq-cap, and returns the lowest cursor
// it saw. Consumers advancing their cursor wake a parked producer.
func (l *Log[T]) awaitSpace(seq uint64) uint64 {
	low := l.minCursor()
	if seq < low+uint64(len(l.slots)) {
		return low
	}
	l.await(func() bool {
		low = l.minCursor()
		return seq < low+uint64(len(l.slots))
	})
	return low
}

// Get returns the value with sequence number seq, blocking until it has
// been published. Callers must only ask for sequence numbers that are not
// yet overwritten, i.e. seq >= Cursor(g) for their group.
func (l *Log[T]) Get(seq uint64) T {
	s := &l.slots[seq&l.mask]
	if s.pub.Load() != seq+1 {
		l.await(func() bool { return s.pub.Load() == seq+1 })
	}
	return s.val
}

// await is the Log's own wait: Await on its wait set and stop flag, with
// ErrStopped as the way out of a stopped log.
func (l *Log[T]) await(ready func() bool) {
	if !Await(&l.waitQ, l.stop, ready) {
		panic(ErrStopped)
	}
}

// Ready reports whether the value with sequence number seq has been
// published. It is the cheap way to poll: a single load of the slot's
// publication word, with none of the value-copy (or zero-value
// construction) TryGet pays on every miss — which matters when T is a
// fat record and the poll loop runs per syscall.
func (l *Log[T]) Ready(seq uint64) bool {
	return l.slots[seq&l.mask].pub.Load() == seq+1
}

// TryGet returns the value with sequence number seq if it has been
// published, without blocking.
func (l *Log[T]) TryGet(seq uint64) (T, bool) {
	s := &l.slots[seq&l.mask]
	if s.pub.Load() != seq+1 {
		var zero T
		return zero, false
	}
	return s.val, true
}

// TryConsumeBatch copies the run of published entries at group g's cursor
// into out (at most len(out) of them), advances the cursor past the run
// with a single compare-and-swap, and returns how many were consumed (0 if
// none are ready). It never blocks.
//
// Each consumer group must have a single consuming goroutine, exactly like
// Advance: TryConsumeBatch panics if the cursor moved underneath it, which
// would indicate two threads of the same variant racing on consumption.
//
// The copies are the point: once TryConsumeBatch returns, the consumer
// owns out[:n] outright and the producer may recycle the slots, so a slave
// can validate a whole batch of records without touching the shared ring
// again.
func (l *Log[T]) TryConsumeBatch(g int, out []T) int {
	cur := l.cursors[g].c.Load()
	n := 0
	for n < len(out) {
		s := &l.slots[(cur+uint64(n))&l.mask]
		if s.pub.Load() != cur+uint64(n)+1 {
			break
		}
		out[n] = s.val
		n++
	}
	if n == 0 {
		return 0
	}
	if !l.cursors[g].c.CompareAndSwap(cur, cur+uint64(n)) {
		panic(fmt.Sprintf("ring: group %d consumed concurrently (cursor moved from %d)", g, cur))
	}
	consumeRuns.Add(1)
	consumeItems.Add(uint64(n))
	l.waitQ.Wake()
	return n
}

// Drain is a tape: it consumes group g of l until *stop is set, sweeps up what
// was published before that, and returns everything in order. It waits like
// any other consumer of the log (Await on the log's wait set) — so it keeps
// up with the producer instead of capping it at a ring per poll interval —
// but for a quarter ring at a time: nobody reads a tape before it stops, so it
// has no reason to follow the producer slot by slot, polling the line being
// written, and a quarter leaves the producer three to fill before it would
// block. Whoever sets *stop must Interrupt the log.
func Drain[T any](l *Log[T], g int, stop *atomic.Bool) []T {
	var tape []T
	run := make([]T, max(l.Cap()/4, 1))
	quarter := func() bool {
		if !l.Ready(l.Cursor(g) + uint64(len(run)) - 1) {
			return false
		}
		tape = append(tape, run[:l.TryConsumeBatch(g, run)]...)
		return true
	}
	for Await(&l.waitQ, stop, quarter) {
	}
	for n := l.TryConsumeBatch(g, run); n > 0; n = l.TryConsumeBatch(g, run) {
		tape = append(tape, run[:n]...)
	}
	return tape
}

// Cursor returns the next sequence number consumer group g will consume.
func (l *Log[T]) Cursor(g int) uint64 { return l.cursors[g].c.Load() }

// Advance moves group g's cursor from seq to seq+1. Groups must consume in
// order; Advance panics if seq is not the current cursor, which would
// indicate two threads of the same variant racing on consumption.
func (l *Log[T]) Advance(g int, seq uint64) {
	if !l.cursors[g].c.CompareAndSwap(seq, seq+1) {
		panic(fmt.Sprintf("ring: group %d advanced out of order (cursor %d, advancing %d)",
			g, l.cursors[g].c.Load(), seq))
	}
	l.waitQ.Wake()
}

// AdvanceTo moves group g's cursor forward to seq if it is currently
// behind. Used by consumers that skip entries not addressed to them after
// proving the entries were consumed elsewhere.
func (l *Log[T]) AdvanceTo(g int, seq uint64) {
	for {
		cur := l.cursors[g].c.Load()
		if cur >= seq {
			return
		}
		if l.cursors[g].c.CompareAndSwap(cur, seq) {
			l.waitQ.Wake()
			return
		}
	}
}

// Produced returns the number of sequence numbers allocated so far. Entries
// with seq < Produced() may not all be published yet (a producer may be
// mid-Append); use TryGet to test.
func (l *Log[T]) Produced() uint64 { return l.prod.Load() }

func (l *Log[T]) minCursor() uint64 {
	min := l.cursors[0].c.Load()
	for i := 1; i < len(l.cursors); i++ {
		if c := l.cursors[i].c.Load(); c < min {
			min = c
		}
	}
	return min
}

// SetStop installs the owner's shutdown flag. Once it is set, blocked
// Append, ReserveN and Get calls panic with ErrStopped rather than waiting
// forever. A parked thread cannot poll the flag, so the owner must call
// Interrupt after setting it (DESIGN §12, "How a replication-plane thread
// waits"; SetDebugStopWatch checks it).
func (l *Log[T]) SetStop(stop *atomic.Bool) { l.stop = stop }

// The parking-contract debug watch: an owner that sets a stop flag but wakes
// nobody strands parked waiters — they cannot poll the flag while asleep.
// With the watch armed (tests; off by default), every park Await makes with a
// stop flag carries a watchdog: if the watchdog expires with the flag set and
// waiters still parked, the violation handler runs. The default handler
// panics; tests install a capturing handler to catch bad owners without
// taking the process down.
var (
	stopWatchNanos    atomic.Int64
	stopViolationHook atomic.Pointer[func(string)]
)

// SetDebugStopWatch arms (d > 0) or disarms (d <= 0) the parking-contract
// watch and returns the previous setting. The duration is how long a
// parked waiter may coexist with a set stop flag before the owner is
// reported; pick it well above the owner's legitimate stop→wake latency (a
// few milliseconds in-process).
func SetDebugStopWatch(d time.Duration) time.Duration {
	return time.Duration(stopWatchNanos.Swap(int64(d)))
}

// SetStopViolationHandler replaces the contract-violation report (nil
// restores the default, which panics). The handler may be called from a
// timer goroutine.
func SetStopViolationHandler(f func(string)) {
	if f == nil {
		stopViolationHook.Store(nil)
		return
	}
	stopViolationHook.Store(&f)
}

func reportStopViolation(msg string) {
	stopTrips.Add(1)
	if f := stopViolationHook.Load(); f != nil {
		(*f)(msg)
		return
	}
	panic(msg)
}

// park sleeps on pk and counts the park; with the debug stop watch armed and
// a stop flag given, a watchdog checks for the stranded-waiter contract
// violation and then wakes the set so the waiter re-checks the flag and
// unwinds. (The unconditional wake also keeps the watch alive: a
// rescued-but-still-waiting waiter re-parks through here and arms a fresh
// watchdog.)
//
// The violation check is two-phase to avoid blaming a compliant owner: a
// single sample at expiry races the legitimate stop→wake handoff (the flag
// can flip an instant before the timer fires, with the woken waiters still
// inside Park before their waiter-count decrement). The watchdog therefore
// re-checks after a full extra watch period — a compliant owner's wake has
// long since drained the waiters by then, while a violator's waiters are
// still parked because nothing else can wake them.
func park(pk *futex.Parker, stop *atomic.Bool, g uint64) {
	parkCount.Add(1)
	d := time.Duration(stopWatchNanos.Load())
	if d <= 0 || stop == nil {
		pk.Park(g)
		return
	}
	tm := time.AfterFunc(d, func() {
		if stop.Load() && pk.Waiters() > 0 {
			time.Sleep(d) // grace: let a compliant wake drain
			if stop.Load() && pk.Waiters() > 0 {
				reportStopViolation("ring: stop flag set while waiters were parked and no wake arrived — the flag's owner violated the parking contract (see Await)")
			}
		}
		pk.Wake()
	})
	pk.Park(g)
	tm.Stop()
}

// Parker exposes the log's wait set, so waits over the log's state that the
// log does not implement itself (a monitor waiting on a record, a slave
// agent waiting on a ticket) can Await on the same queue the log's own
// blocking operations use; every publish and every cursor advance wakes it.
func (l *Log[T]) Parker() *futex.Parker { return &l.waitQ }

// Interrupt wakes every thread parked on the log so it re-checks its wait
// condition. Owners must call it after setting the SetStop flag (a killed
// session, a stopped exchange); it is also safe — just spurious — at any
// other time.
func (l *Log[T]) Interrupt() { l.waitQ.Wake() }

// Backoff phases, in poll counts.
const (
	busySpins  = 16  // phase 1: pure busy loop (counterpart is mid-operation)
	pauseSpins = 64  // phase 2: procyield-style pause, still on-CPU
	parkSpins  = 128 // phase 4: park on a futex.Parker (phase 3 = yields)
)

// pauseSink gives the pause loop a data dependency the compiler cannot
// delete. It is only ever loaded, so the cache line stays shared and the
// loop generates no coherence traffic.
var pauseSink atomic.Uint64

// pause burns a few cycles off the interconnect, approximating the PAUSE /
// YIELD instruction a shared-memory MVEE ring uses between polls: cheaper
// than a scheduler yield, politer than a raw busy loop to the sibling
// hyperthread.
func pause(n int) {
	for i := 0; i < n; i++ {
		_ = pauseSink.Load()
	}
}

// multicore is whether busy-waiting can ever be productive: with a single
// schedulable CPU the counterpart thread cannot be running concurrently,
// so every spin is stolen from it and the only useful move is to yield.
// GOMAXPROCS can change after package init (go test -cpu, explicit
// runtime.GOMAXPROCS calls), so Backoff re-samples it — see there for when.
// Every waiter loads this word on every failed poll, so it is written only
// when the answer changes: a store per wait would bounce its line between
// all waiting cores.
var multicore atomic.Bool

func init() { multicore.Store(runtime.GOMAXPROCS(0) > 1) }

// Backoff waits out one failed poll, the spins-th of its wait: Await's
// schedule below parkSpins, and the whole schedule of a poll loop that has no
// wait set to park on (it keeps yielding). On a single-CPU process every
// phase is a scheduler yield.
func Backoff(spins int) {
	if spins == pauseSpins {
		// This wait reached the yield phase: re-sample the CPU count, so a
		// process moved to one P after init degrades to immediate yields
		// (and back). Once per such wait and no earlier, because
		// runtime.GOMAXPROCS(0) takes the scheduler lock; a rendezvous with
		// a counterpart that is merely mid-operation never gets here.
		if mc := runtime.GOMAXPROCS(0) > 1; mc != multicore.Load() {
			multicore.Store(mc)
		}
	}
	if !multicore.Load() {
		runtime.Gosched()
		return
	}
	switch {
	case spins < busySpins:
		// busy spin
	case spins < pauseSpins:
		pause(8 * (spins - busySpins + 1)) // linearly growing pause
	default:
		runtime.Gosched()
	}
}

// Await blocks until ready reports true, and returns true; or until *stop is
// set, and returns false (a nil stop never is). It is the one wait of the
// replication plane — ring back-pressure and publication, the monitor's
// rendezvous and ordering ticket, the agents' tickets — and DESIGN §12, "How a
// replication-plane thread waits", is its specification: why the schedule is
// gradual, why no wakeup is lost, who must Wake pk (whoever makes ready true,
// and whoever sets *stop).
//
// ready may consume what it finds (a claim, a TryConsumeBatch), so Await
// returns the moment ready first reports true and never calls it again.
// Await does not allocate, and neither pk nor ready's closure escapes
// through it.
func Await(pk *futex.Parker, stop *atomic.Bool, ready func() bool) bool {
	for spins := 0; ; spins++ {
		if ready() {
			return true
		}
		if stop != nil && stop.Load() {
			return false
		}
		if spins < parkSpins {
			Backoff(spins)
			continue
		}
		g := pk.Prepare()
		if ready() {
			pk.Cancel()
			return true
		}
		if stop != nil && stop.Load() {
			pk.Cancel()
			return false
		}
		park(pk, stop, g)
	}
}
