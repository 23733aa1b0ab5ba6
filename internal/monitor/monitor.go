package monitor

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/futex"
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/telemetry"
)

// ErrKilled is panicked out of monitor calls once the session has been
// terminated (divergence or external shutdown). The MVEE core recovers it
// at the top of every variant thread.
var ErrKilled = fmt.Errorf("monitor: session killed")

// InlinePayload is the number of input-payload bytes a Record or digest
// carries inline, inside the ring slot itself. Payloads at or below this
// size (the vast majority of write/open/send payloads in server traffic)
// cross the slave→master digest inbox with zero heap allocations and zero
// shared mutable state; only larger payloads spill (see spillArena). A live
// record carries an input payload only for a pure call, which each slave
// checks against its own (see place); otherwise the tape is the only reader
// of a record's input.
const InlinePayload = 64

// payloadBox is the inline-or-spill storage both Record and digest embed
// for the call's input payload: up to InlinePayload bytes live in the
// fixed array inside the ring slot itself; larger payloads live in spill
// (a per-thread arena slot on the hot path, a fresh allocation otherwise).
// Keeping the triple in one embedded type keeps the storage invariant in
// one place for both directions of the replication protocol: n says where
// the bytes are, and spill means something only when n > InlinePayload. A box
// is overwritten in place, slot after slot, and an inline payload neither
// reads nor clears what the previous occupant left: a payload-free call
// touches n and nothing after it (reading n first to decide whether to clear
// spill cost syscall_mix +11%). So the inline bytes beyond n and, when
// n <= InlinePayload, spill are the previous occupants' and are never read;
// every copy of a box inherits them, and two boxes holding equal payloads
// need not be bytewise or DeepEqual equal — compare Payload(), as GobEncode
// does. The box goes LAST in Record and digest so that everything a small
// call writes and its counterpart reads is one contiguous run from the slot's
// publication word to n (140 bytes of a record, 76 of a digest: three cache
// lines and two, at seven slot alignments in eight), where the 64-byte array
// in the middle used to push the fields behind it onto one more line that
// both sides moved per call.
type payloadBox struct {
	n      int32
	inline [InlinePayload]byte
	spill  []byte
}

// Payload returns the stored input payload (nil if none). The returned
// slice must not be retained past the record's consumption window (for a
// slave: until it advances past the record) — large payloads may live in a
// recycled arena.
func (b *payloadBox) Payload() []byte {
	if b.n > InlinePayload {
		return b.spill
	}
	return b.inline[:b.n]
}

// SetPayload stores p, inline if it fits and in a freshly allocated spill
// otherwise: for records a tape keeps (place under Capture), trace
// construction and tests. The digest path recycles large payloads through
// per-thread arenas instead (see store).
func (b *payloadBox) SetPayload(p []byte) { b.store(p, nil, 0, 0) }

// store stores the payload of ring entry seq (of a ring with capacity rcap)
// over whatever the box held: inline if it fits — only the len(p) bytes are
// written (see payloadBox) — through the arena slot for seq otherwise.
// Callers must have reserved seq first — that is what makes the arena slot
// reusable (see spillArena).
func (b *payloadBox) store(p []byte, arena *spillArena, rcap int, seq uint64) {
	b.n = int32(len(p))
	if len(p) <= InlinePayload {
		copy(b.inline[:], p)
		return
	}
	b.spill = arena.put(rcap, seq, p, 0)
}

// Record is one entry in a per-thread syscall buffer: the master's account
// of one monitored system call — its result, stamp and delivered signal,
// which slaves replay. Slaves validate a lockstepped call through their
// digests; a live record's Nr and Args serve the slave-side check of a pure
// call and of the relaxed policy's run-ahead calls, and the flight tail. The
// input payload travels in the embedded payloadBox only for a pure call or
// when a tape consumes the record (see place); use Payload and SetPayload.
// Records gob-encode compactly (see GobEncode): only the payload bytes cross
// the wire, not the fixed inline array — so the field order below is memory
// layout only (see payloadBox for why the box is last), not wire format.
type Record struct {
	Nr   kernel.Sysno
	Args [6]uint64
	Ret  kernel.Ret
	Ts   uint64 // syscall-ordering-clock stamp, valid if Ordered

	Ordered bool
	Exit    bool // thread-exit marker, not a syscall

	payloadBox
}

// Divergence describes why the monitor shut the variants down.
type Divergence struct {
	Variant int    // the slave that mismatched
	Tid     int    // logical thread
	Reason  string // human-readable mismatch description
	Master  string // master's record, rendered
	Slave   string // slave's attempted call, rendered
}

// Error implements the error interface.
func (d *Divergence) Error() string {
	return fmt.Sprintf("divergence in variant %d thread %d: %s (master: %s, slave: %s)",
		d.Variant, d.Tid, d.Reason, d.Master, d.Slave)
}

// Config sizes a Monitor.
type Config struct {
	MaxThreads int
	RingCap    int
	Policy     Policy
	// Capture adds a tape consumer group that drains every record into
	// memory for offline replay (see StopCapture). Records then carry their
	// input payloads, and since the tape retains them indefinitely, large
	// payloads and Buf results are freshly allocated instead of recycled.
	Capture bool
	// Replay pre-fills the syscall buffers from a recorded trace; the
	// single variant then consumes them like an online slave.
	Replay [][]Record
	// Telemetry arms the observability plane: the per-syscall/per-variant
	// counter+latency matrix and the per-variant flight recorders (see
	// internal/telemetry). The hot-path cost is one atomic add plus the
	// flight ring's atomic stores per monitored call — and zero
	// allocations, which TestReplicationHotPathZeroAllocs asserts with
	// this flag on.
	Telemetry bool
}

func (c *Config) fill() {
	if c.MaxThreads <= 0 {
		c.MaxThreads = 64
	}
	if c.RingCap <= 0 {
		c.RingCap = 256
	}
}

// slaveBatch is how many master records a slave thread reads from its ring
// between cursor releases: one cross-core cursor write per batch instead of
// one per record. Under the relaxed (run-ahead) policy the master is
// typically several records ahead, so real batches form; under strict
// lockstep the slave waits for every record and releases before each wait,
// which costs nothing extra. A power of two (advance masks with it).
const slaveBatch = 8

// slaveCons is one (consumer group, thread) pair's read position over its
// per-thread syscall ring. The slave reads each record where it lies, in the
// ring slot, so the ring cursor deliberately lags `next`: a slot (and the
// arena payloads its record references) may be recycled only once the slave
// is completely done with it, and the cursor is released in one AdvanceTo
// every slaveBatch records and always before the slave waits (see
// nextRecord, advance). Padded to a line: different guest threads of one
// slave bump adjacent elements on every call.
type slaveCons struct {
	next uint64 // next ring sequence to read
	_    [56]byte
}

// orderClock is one variant's copy of the syscall ordering clock, alone on
// its line: the master's and a slave's passTurn tick different clocks on
// every ordered call, and as separate 8-byte allocations those shared one.
type orderClock struct {
	clock.Lamport
	_ [56]byte
}

// counter is a cache-line-isolated event counter: the per-variant syscall
// counters are bumped on every monitored call by different threads, and
// without padding variant 0's and variant 1's counters share a line.
type counter struct {
	n atomic.Uint64
	_ [56]byte
}

// spillArena is a per-thread recycler for oversized payloads. Slot
// seq&(cap-1) backs the payload of ring entry seq; it may be reused exactly
// when ring slot seq&(cap-1) may (the producer Reserves the sequence first,
// which blocks until every consumer group's cursor has passed the old
// occupant), so in steady state large payloads cost zero allocations too.
// The backing slices are allocated lazily: most threads never spill.
//
// Output arenas (Call.Buf results) cut every slot from one block at their
// first put, outSlot bytes each. A slot first allocated at its first use
// would not do for short results: a thread that makes the same k calls per
// request puts its Buf results in the same rcap/k slots lap after lap,
// until one extra call shifts the phase and a fresh set of slots allocates
// — so a serving loop would reach its steady state at no predictable point.
// Digest arenas hold only payloads past InlinePayload and carve nothing.
type spillArena struct {
	bufs [][]byte
}

// outSlot is an output arena slot's carved size: a request line or a small
// poll set fits.
const outSlot = InlinePayload

// put copies p into the arena slot for seq (of a ring with capacity rcap)
// and returns the stable copy; a fresh arena's slots are carved carve bytes
// each (0: none). A nil arena means recycling is unsound (see arenaAt): the
// copy is then a fresh allocation.
func (a *spillArena) put(rcap int, seq uint64, p []byte, carve int) []byte {
	if a == nil {
		return append([]byte(nil), p...)
	}
	if a.bufs == nil {
		a.bufs = make([][]byte, rcap)
		if carve > 0 {
			block := make([]byte, rcap*carve)
			for i := range a.bufs {
				a.bufs[i] = block[i*carve : i*carve : (i+1)*carve]
			}
		}
	}
	i := seq & uint64(rcap-1)
	b := append(a.bufs[i][:0], p...)
	a.bufs[i] = b
	return b
}

// arenaAt returns thread tid's arena, or nil when the monitor runs without
// arenas (capture retains records past consumption; replay publishes
// nothing live).
func arenaAt(arenas []spillArena, tid int) *spillArena {
	if arenas == nil {
		return nil
	}
	return &arenas[tid]
}

// Monitor supervises one MVEE session: variant 0 is the master, variants
// 1..N-1 are slaves. One Monitor thread per variant-thread-set is implicit
// in the design (§4: "each of ReMon's threads monitors one set of
// equivalent variant threads"); here the per-thread syscall buffers play
// that role.
//
// Ordering (§4.1, ticket form). The paper's monitor wraps every
// non-blocking monitored call in an "ordered critical section": enter,
// stamp the call with the current syscall-ordering-clock time, execute,
// and leave — so that the stamps form a total order identical to the order
// in which the master actually executed the calls, and the slaves can
// replay exactly that order by waiting for their own copy of the clock to
// reach each record's stamp. The first implementation here used a global
// mutex for that critical section; this one uses ordering tickets instead:
//
//   - A master thread Takes a ticket t from a cache-line-isolated dispenser
//     (clock.Tickets) — one uncontended fetch-add, no lock.
//   - It waits until the master's Lamport clock reads exactly t (its turn
//     in the total order). When only one thread is making ordered calls —
//     the common case for a server handling one request per thread — the
//     clock already equals t and the wait is a single load.
//   - It executes the call with Ts = t and Ticks the clock, passing the
//     turn to ticket t+1.
//
// This is a ticket lock whose "now serving" word IS the syscall ordering
// clock, which is what makes it secure in the paper's sense: the stamp is
// not merely taken inside a critical section, the stamp is the critical
// section — a thread holding ticket t is by construction the t-th ordered
// call, so no interleaving of threads can produce records whose stamps
// disagree with the execution order. Genuine cross-thread rendezvous (two
// threads with adjacent tickets) costs one cache-line transfer of the
// serving clock; threads that don't contend never synchronize at all.
// Publication of the record happens after the turn is passed: records
// travel through per-thread rings, so cross-thread publication order is
// irrelevant and keeping it out of the ordered section shortens the
// serialized path to stamp+execute.
type Monitor struct {
	cfg   Config
	kern  *kernel.Kernel
	procs []*kernel.Proc

	// clocks[v] is variant v's private copy of the syscall ordering clock.
	clocks []orderClock
	// clockParks[v] parks threads waiting for clocks[v] to reach their
	// ticket (the §4.1 ordered-section waits) once spinning stops paying
	// off; every Tick of clocks[v] wakes it — one atomic load when nobody
	// is parked, which is the common (uncontended) case.
	clockParks []futex.Parker
	// tickets dispenses the master's ordering tickets (see the type
	// comment); clocks[0] is the corresponding "now serving" word.
	tickets clock.Tickets
	// rings holds each thread's ring of master records for the slaves;
	// group g serves slave variant g+1, and under Capture a last group is
	// the tape. scons[g][tid] is that slave thread's read position. Under
	// Replay the table is preloaded with the trace.
	rings ring.Table[Record]
	scons [][]slaveCons
	// inboxes[g] carries slave g+1's call digests to the master for
	// lockstep calls: the master waits for (and validates) every slave's
	// equivalent call before executing it, or for a pure call before
	// returning its result to the master's guest (see enter) — so no
	// effectful call runs until all variants have made it (§2). The master's
	// read position is the inbox's one cursor.
	inboxes []ring.Table[digest]

	// darenas[g][tid] recycles slave g+1's oversized digest payloads —
	// digests are never retained, so these always recycle.
	darenas [][]spillArena
	// outArenas[tid] recycles the master's OUTPUT payloads for calls made
	// with a caller-owned destination buffer (kernel.Call.Buf): the result
	// bytes alias the master guest's reusable buffer, which the guest will
	// overwrite on its next receive, so they must be copied into stable
	// slot-lifetime storage before publication. Nil when recycling would be
	// unsound (capture retains records; replay has no live producer): the
	// copy is then a fresh allocation.
	outArenas []spillArena
	// btickets[tid] is the master's scratch for batched invocations
	// (InvokeBatchOn): a batch's records are placed only after all of it
	// has executed, so each call's ordering ticket waits here (its result
	// waits in the caller's rets). Only thread tid's master goroutine
	// touches its slot.
	btickets [][]uint64

	// publish is true when master records have at least one consumer
	// (live slaves or the capture tape).
	publish bool
	replay  bool

	killed   atomic.Bool
	diverged atomic.Pointer[Divergence]
	onKill   []func()
	killMu   sync.Mutex

	syscalls []counter // per variant: monitored syscall count
	unmon    []counter // per variant: unmonitored syscall count

	// tel is the observability plane (nil unless Config.Telemetry): the
	// syscall matrix fed from InvokeOn and the per-variant flight
	// recorders fed from the master/slave call paths. flightTail is the
	// tail captured at kill time (killMu), so quarantine forensics see
	// the records that led INTO the divergence, not the unwind noise
	// after it.
	tel        *telemetry.Recorder
	flightTail [][]telemetry.FlightRecord
}

// New creates a monitor for nvariants over kern. procs[v] is variant v's
// kernel process.
func New(kern *kernel.Kernel, procs []*kernel.Proc, cfg Config) *Monitor {
	cfg.fill()
	m := &Monitor{
		cfg:      cfg,
		kern:     kern,
		procs:    procs,
		syscalls: make([]counter, len(procs)),
		unmon:    make([]counter, len(procs)),
	}
	m.replay = cfg.Replay != nil
	m.publish = len(procs) > 1 || cfg.Capture
	// Clocks: one per variant; replay additionally needs the "slave"
	// clock at index 1.
	m.clocks = make([]orderClock, len(procs))
	if m.replay && len(m.clocks) < 2 {
		m.clocks = make([]orderClock, 2)
	}
	m.clockParks = make([]futex.Parker, len(m.clocks))
	if cfg.Telemetry {
		// Sized by len(m.clocks), not len(procs): replay runs a single
		// variant through the slave path under variant index 1.
		m.tel = telemetry.New(len(m.clocks))
	}
	slaves := len(procs) - 1
	switch {
	case m.replay:
		// The replayed variant is slave 1 of the recording.
		m.rings = ring.NewPreloadedTable(cfg.Replay, cfg.MaxThreads, cfg.RingCap, &m.killed)
		slaves = 1
	case cfg.Capture:
		m.rings = ring.NewRecordingTable[Record](cfg.MaxThreads, cfg.RingCap, slaves, &m.killed)
	default:
		m.rings = ring.NewTable[Record](cfg.MaxThreads, cfg.RingCap, slaves, &m.killed)
	}
	m.scons = make([][]slaveCons, slaves)
	for g := range m.scons {
		m.scons[g] = make([]slaveCons, cfg.MaxThreads)
	}
	// Output arenas recycle Buf results in lockstep with ring-slot
	// recycling; see spillArena. Capture retains records past consumption
	// (the tape), so recycling them would corrupt the trace; replay
	// publishes nothing live.
	if m.publish && !cfg.Capture && !m.replay {
		m.outArenas = make([]spillArena, cfg.MaxThreads)
	}
	m.btickets = make([][]uint64, cfg.MaxThreads)
	m.inboxes = make([]ring.Table[digest], len(procs)-1)
	m.darenas = make([][]spillArena, len(procs)-1)
	for g := range m.inboxes {
		m.inboxes[g] = ring.NewTable[digest](cfg.MaxThreads, inboxCap, 1, &m.killed)
		m.darenas[g] = make([]spillArena, cfg.MaxThreads)
	}
	return m
}

// ring returns thread tid's syscall ring.
func (m *Monitor) ring(tid int) *ring.Log[Record] { return m.rings.Get(tid) }

// inboxCap sizes the per-(slave, thread) digest inboxes. The lockstep
// protocol bounds the in-flight depth intrinsically: a slave submits a
// digest and then blocks on that very call's record, and the master cannot
// pass its own lockstepped call without consuming the matching digest — so
// at most a couple of digests are ever unconsumed. A small ring keeps lazy
// creation cheap; 64 is pure slack.
const inboxCap = 64

// inbox returns slave g+1's digest inbox for thread tid.
func (m *Monitor) inbox(g, tid int) *ring.Log[digest] { return m.inboxes[g].Get(tid) }

// digest is a slave's account of the call it is about to make, submitted to
// the master for pre-execution validation. The payload travels in the same
// embedded payloadBox as Record's (spills go to the slave's digest arena).
type digest struct {
	Nr   kernel.Sysno
	Args [6]uint64
	Exit bool
	payloadBox
}

// lockstepped reports whether calls of this class require the lockstep
// rendezvous: the master validates every slave's digest before executing
// the call, or for a pure call before its guest takes the result (see enter);
// only a pure call is checked a second time, by each slave against the
// master's record (see slaveStep). Under the strict policy every monitored
// call is lockstepped; under the relaxed policy only security-sensitive calls
// are, and the rest follow the run-ahead (leader/follower) protocol, checked
// by the slave (compare). Under Replay nothing is: the replayed variant is
// slave 1 with no master to lockstep against, and the trace is the authority.
func (m *Monitor) lockstepped(cls class) bool {
	return !m.replay && (m.cfg.Policy == PolicyStrictLockstep || cls.sensitive)
}

// Variants returns the number of variants under supervision.
func (m *Monitor) Variants() int { return len(m.procs) }

// Policy returns the comparison policy.
func (m *Monitor) Policy() Policy { return m.cfg.Policy }

// OnKill registers a teardown hook run exactly once when the session dies.
func (m *Monitor) OnKill(f func()) {
	m.killMu.Lock()
	m.onKill = append(m.onKill, f)
	m.killMu.Unlock()
}

// Kill terminates the session. The first divergence wins; later calls are
// no-ops. A nil d is an external (non-divergence) shutdown.
func (m *Monitor) Kill(d *Divergence) {
	if d != nil {
		m.diverged.CompareAndSwap(nil, d)
	}
	if m.killed.CompareAndSwap(false, true) {
		if m.tel != nil {
			// Freeze the flight tails NOW, before the variants unwind:
			// the forensic value is the records that led into the kill,
			// and threads racing their teardown would otherwise keep
			// overwriting the tail.
			tail := m.tel.SnapshotFlights()
			m.killMu.Lock()
			m.flightTail = tail
			m.killMu.Unlock()
		}
		m.killMu.Lock()
		hooks := m.onKill
		m.killMu.Unlock()
		for _, f := range hooks {
			f()
		}
		m.kern.Interrupt()
		m.wakeParked()
	}
}

// wakeParked releases every thread parked in a replication wait (record
// rings, digest inboxes, ordering-clock waits) so it re-checks the kill
// flag and unwinds. The killed flag is already set when this runs, and
// every park site re-checks it inside the Prepare window, so a thread that
// parks after this sweep never sleeps through the kill.
func (m *Monitor) wakeParked() {
	m.rings.Interrupt()
	for g := range m.inboxes {
		m.inboxes[g].Interrupt()
	}
	for i := range m.clockParks {
		m.clockParks[i].Wake()
	}
}

// Killed reports whether the session has been terminated.
func (m *Monitor) Killed() bool { return m.killed.Load() }

// Divergence returns the detected divergence, if any.
func (m *Monitor) Divergence() *Divergence { return m.diverged.Load() }

// Syscalls returns variant v's monitored syscall count.
func (m *Monitor) Syscalls(v int) uint64 { return m.syscalls[v].n.Load() }

// Telemetry returns the session's observability recorder, or nil when
// Config.Telemetry was off.
func (m *Monitor) Telemetry() *telemetry.Recorder { return m.tel }

// FlightTail returns the per-variant flight-recorder tails: the snapshot
// frozen at kill time if the session was killed, or a live snapshot
// otherwise. Nil without telemetry.
func (m *Monitor) FlightTail() [][]telemetry.FlightRecord {
	m.killMu.Lock()
	tail := m.flightTail
	m.killMu.Unlock()
	if tail != nil {
		return tail
	}
	if m.tel == nil {
		return nil
	}
	return m.tel.SnapshotFlights()
}

// StopCapture ends the record capture (if any) and returns the per-thread
// record streams. Call only after the session has finished. The tape owns its
// copies outright: under Capture, place copies payloads and Buf results into
// fresh allocations, never arenas. A copy carries its slot's leftovers (see
// payloadBox), so only Payload() says what a record carries.
func (m *Monitor) StopCapture() [][]Record { return m.rings.StopTape() }

func (m *Monitor) checkKilled() {
	if m.killed.Load() {
		panic(ErrKilled)
	}
}

// await blocks until ready reports true, waiting on pk (ring.Await); a killed
// session unwinds it with ErrKilled. Kill wakes every pk passed here
// (wakeParked).
func (m *Monitor) await(pk *futex.Parker, ready func() bool) {
	if !ring.Await(pk, &m.killed, ready) {
		panic(ErrKilled)
	}
}

// Invoke performs one system call on behalf of thread tid of variant v,
// running against variant v's ROOT process. Multi-process programs go
// through InvokeOn instead; Invoke remains the single-process surface the
// benchmarks and monitor tests use.
func (m *Monitor) Invoke(v, tid int, call kernel.Call) kernel.Ret {
	return m.InvokeOn(v, tid, m.procs[v], call)
}

// InvokeOn performs one system call on behalf of thread tid of variant v,
// whose current process is proc (the root process, or a fork descendant).
// This is the interposition point: the variant's thread "traps" here
// instead of entering the kernel directly.
func (m *Monitor) InvokeOn(v, tid int, proc *kernel.Proc, call kernel.Call) kernel.Ret {
	m.checkKilled()
	// The MVEE-awareness call never reaches the kernel (§4.5): the
	// monitor answers it, telling the variant its role.
	if call.Nr == kernel.SysMVEEAware {
		m.unmon[v].n.Add(1)
		return kernel.Ret{Val: uint64(v)}
	}
	cls := classify(call.Nr)
	if !cls.monitored {
		m.unmon[v].n.Add(1)
		return m.kern.Do(proc, call)
	}
	m.syscalls[v].n.Add(1)
	if tel := m.tel; tel != nil {
		// Telemetry hot path: one atomic add; every SampleEvery-th call
		// of a cell additionally brackets the dispatch with two clock
		// reads and one histogram observation. Master samples therefore
		// measure execute+publish, slave samples measure the replay wait
		// — both ends of the replication path, at sampling cost.
		if c := tel.Matrix.Inc(v, tid, call.Nr); telemetry.SampleDue(c) {
			t0 := time.Now()
			ret := m.dispatch(v, tid, proc, &call, cls)
			tel.Matrix.Observe(v, call.Nr, time.Since(t0))
			return ret
		}
	}
	return m.dispatch(v, tid, proc, &call, cls)
}

// dispatch routes a monitored call to the master execute or slave replay
// path.
func (m *Monitor) dispatch(v, tid int, proc *kernel.Proc, call *kernel.Call, cls class) kernel.Ret {
	if m.replay {
		v = 1 // the replayed variant is slave 1 of the recording
	}
	if v == 0 {
		return m.masterCall(tid, proc, call, cls)
	}
	return m.slaveCall(v, tid, proc, call, cls)
}

// flightAppend records one replicated call of variant v into its flight
// ring: sysno, a digest of the compared args+payload, the ordering ticket,
// and the delivered signal. Allocation-free (see telemetry.Flight).
func (m *Monitor) flightAppend(v, tid int, nr kernel.Sysno, args *[6]uint64, payload []byte, ts uint64, sig uint32) {
	if m.tel == nil {
		return
	}
	m.tel.Flights[v].Append(nr, tid, telemetry.Digest(args, payload), ts, sig)
}

// exitMarker is the class of a thread exit: lockstepped under every policy.
var exitMarker = class{sensitive: true}

// ThreadExit publishes (master) or validates (slave) a thread-exit marker,
// so that a variant thread making more or fewer syscalls than its
// counterparts is caught as divergence.
func (m *Monitor) ThreadExit(v, tid int) {
	if m.killed.Load() {
		return // tearing down anyway; nothing to validate
	}
	if m.replay {
		v = 1 // the replayed variant is slave 1 of the recording
	}
	if v == 0 {
		if m.publish {
			m.awaitDigests(tid, &kernel.Call{}, exitMarker, true)
			m.ring(tid).Append(Record{Exit: true})
		}
		return
	}
	if m.lockstepped(exitMarker) {
		m.submitDigest(v, tid, &kernel.Call{}, true)
	}
	rec := m.nextRecord(v, tid)
	if !rec.Exit {
		m.Kill(&Divergence{Variant: v, Tid: tid,
			Reason: "thread exited while master recorded a system call",
			Master: renderRecord(rec), Slave: "thread exit"})
		panic(ErrKilled)
	}
	m.advance(v, tid)
}

// submitDigest publishes slave v's account of its next call (or thread
// exit) to the master's inbox for thread tid, written field by field into
// the reserved inbox slot. Small payloads travel inline in the slot; large
// ones go through the slave's digest arena, whose slots recycle in lockstep
// with the inbox ring's (ReserveN blocks until the old occupant was
// consumed), so steady-state digests are allocation-free at any payload
// size.
func (m *Monitor) submitDigest(v, tid int, call *kernel.Call, exit bool) {
	ib := m.inbox(v-1, tid)
	seq := ib.ReserveN(1)
	d := ib.Slot(seq)
	d.Exit = exit
	d.store(call.Data, &m.darenas[v-1][tid], ib.Cap(), seq)
	d.Nr, d.Args = call.Nr, call.Args // last: they share the polled line (see place)
	ib.Commit(seq)
}

// awaitDigests blocks until every slave has submitted its digest for the
// master's current call of thread tid, validates the digests, and kills the
// session on mismatch. This is the lockstep barrier: no effectful call runs
// until every variant has arrived with an equivalent call. The master runs it
// before executing, or for a pure call after executing, passing the turn and
// placing the record, and before the result returns (see enter).
//
// The digest is validated where it lies, in the inbox slot, BEFORE the inbox
// cursor advances: once the cursor passes it the slave may overwrite the
// slot, and the arena slot a spilled payload lives in, with its next digest.
func (m *Monitor) awaitDigests(tid int, call *kernel.Call, cls class, exit bool) {
	for g := 0; g < len(m.procs)-1; g++ {
		ib := m.inbox(g, tid)
		// The master is the inbox's only consumer, so its read position is
		// the inbox cursor: a word on a line only this thread writes.
		pos := ib.Cursor(0)
		// Poll the publication word only; the slave's submitDigest commit
		// wakes the inbox's wait set.
		if !ib.Ready(pos) {
			m.await(ib.Parker(), func() bool { return ib.Ready(pos) })
		}
		if dv := m.validateDigest(g+1, tid, call, cls, exit, ib.Slot(pos)); dv != nil {
			m.Kill(dv)
			panic(ErrKilled)
		}
		ib.Advance(0, pos)
	}
}

// validateDigest compares a slave's submitted call against the master's.
func (m *Monitor) validateDigest(v, tid int, call *kernel.Call, cls class, exit bool, d *digest) *Divergence {
	fail := func(reason string) *Divergence {
		slave := renderCall(kernel.Call{Nr: d.Nr, Args: d.Args, Data: d.Payload()})
		if d.Exit {
			slave = "thread exit"
		}
		master := renderCall(*call)
		if exit {
			master = "thread exit"
		}
		return &Divergence{Variant: v, Tid: tid, Reason: reason, Master: master, Slave: slave}
	}
	if exit != d.Exit {
		if exit {
			return fail("slave issued a system call where master's thread exited")
		}
		return fail("thread exited while master recorded a system call")
	}
	if exit {
		return nil
	}
	if reason := mismatch(call, d.Nr, &d.Args, d.Payload(), true); reason != "" {
		return fail(reason)
	}
	return nil
}

// mismatch is the one comparison of a variant's call against the master's
// (a slave's digest, or a record against a slave's call): the syscall
// number, then, when full, the arguments argMask selects and the payload.
// It returns the divergence reason, or "" when the calls agree.
func mismatch(call *kernel.Call, nr kernel.Sysno, args *[6]uint64, payload []byte, full bool) string {
	if call.Nr != nr {
		return "system call number mismatch"
	}
	if !full {
		return ""
	}
	mask := argMask(call.Nr)
	for i := 0; i < 6; i++ {
		if mask&(1<<i) != 0 && call.Args[i] != args[i] {
			return fmt.Sprintf("argument %d mismatch", i)
		}
	}
	if !bytes.Equal(call.Data, payload) {
		return "payload mismatch"
	}
	return ""
}

// awaitTurn blocks until variant v's copy of the syscall ordering clock
// reaches t — the §4.1 wait, shared by the master (t is the ticket it just
// took) and the slaves (t is the record's stamp: the master's ticket, served
// by the slave's own clock). It runs per ordered call and must not allocate.
// The common, uncontended case exits on the first load; otherwise the
// passTurn that hands this thread the turn wakes the clock's wait set.
func (m *Monitor) awaitTurn(v int, t uint64) {
	if m.clocks[v].Now() < t {
		m.await(&m.clockParks[v], func() bool { return m.clocks[v].Now() >= t })
	}
}

// passTurn ends variant v's ordered section: the clock moves to the next
// ticket and whoever parked waiting for it is woken.
func (m *Monitor) passTurn(v int) {
	m.clocks[v].Tick()
	m.clockParks[v].Wake()
}

// enter is the master's protocol up to the point of execution, for one call
// of thread tid: the lockstep rendezvous (no effectful call runs until every
// variant has arrived with an equivalent call) and — for an ordered call —
// the §4.1 ticket (see the Monitor type comment): take the next position in
// the total order, wait for the turn, and return the ticket, which becomes
// the record's stamp. On return from an ordered call the caller is inside
// the ordered section; it executes the call and then passes the turn
// (passTurn). Blocking calls take no ticket: the kernel may never return
// (§4.1 Limitations), so they are executed by the master only and
// replicated positionally.
//
// The rendezvous comes first, except for a lockstepped pure call without a
// Buf: enter reports it late, and the caller runs it once the call has
// executed and the turn is passed — masterCall after placing the record too,
// masterBatch before (a batch places its records after its last call). The
// call changes no kernel state and reads no clock, so executing it, and
// handing its record to the slaves, while they are still arriving releases
// no effect, and both directions of the exchange are in flight at once.
// What is released stays gated by two rules: no effectful call executes
// before every variant arrived with an equivalent call (its own rendezvous
// comes first), and no variant's guest takes a pure result before its
// own call was checked against the master's — the master's against every
// digest (awaitDigests), each slave's against the record (slaveStep). A Buf
// result is excluded because the kernel writes it into the master guest's
// own memory; a clock read is not pure because the §5.4 timestamp channel
// relies on the master reading the clock after every variant arrived. The
// turn is never held across a wait for slaves — that would queue every other
// master thread behind one slave's arrival — and the ticket stays the
// real-time order of master execution, which is what keeps the slaves'
// replay deadlock-free.
func (m *Monitor) enter(tid int, call *kernel.Call, cls class) (ts uint64, late bool) {
	if len(m.procs) > 1 && m.lockstepped(cls) {
		if late = cls.pure && call.Buf == nil; !late {
			m.awaitDigests(tid, call, cls, false)
		}
	}
	if cls.ordered {
		ts = m.tickets.Take()
		m.awaitTurn(0, ts)
	}
	return ts, late
}

// place writes the master's record of call — its stamp ts (if ordered) and
// result ret — into slot seq of thread tid's ring r and commits it. The
// caller reserved seq (ReserveN): every slave is done with the slot's
// previous occupant, so the record is built where the slaves will read it,
// every field assigned (nothing of the old occupant survives but unread
// inline bytes), and the arena slots for seq are reusable. Digests carry
// inputs, live records carry results: the master validates a lockstepped
// call's input payload against the slaves' digests, so a record copies it
// only for its two other readers — the slave's own check of a pure call
// (stat's path; see slaveStep), and the tape (Capture). Up to InlinePayload
// bytes go inline at no cost; a longer payload is a fresh copy, which is what
// the tape keeps and, for a pure call, means one allocation per stat of a
// path over InlinePayload bytes. A result that aliases the caller's reusable
// destination buffer (Call.Buf) is repointed at a copy in the output arena
// slot for seq, or the master guest's next receive would overwrite bytes the
// slaves haven't consumed yet — only the record's copy of ret is repointed;
// the master's own caller keeps the alias into its Buf. Without output
// arenas (see arenaAt) that copy is a fresh allocation.
func (m *Monitor) place(tid int, r *ring.Log[Record], seq uint64, call *kernel.Call, cls class, ts uint64, ret *kernel.Ret) {
	rec := r.Slot(seq)
	rec.Ret, rec.Ts = *ret, ts
	rec.Ordered, rec.Exit = cls.ordered, false
	if cls.pure || m.cfg.Capture {
		rec.SetPayload(call.Data)
	} else {
		rec.n = 0
	}
	if call.Buf != nil && len(ret.Data) > 0 {
		rec.Ret.Data = arenaAt(m.outArenas, tid).put(r.Cap(), seq, ret.Data, outSlot)
	}
	// Nr and Args share the line the slave polls (the slot's publication
	// word): written last, they and the commit are one burst on it.
	rec.Nr, rec.Args = call.Nr, call.Args
	r.Commit(seq)
}

// masterCall executes a monitored call in the master variant and publishes
// the record for the slaves: enter (validation, then the turn), execute,
// passTurn, place — or for a late pure call (see enter) the turn, execute,
// passTurn, place, and only then the validation, so the slaves take the
// record while the master still waits for their digests, and the result
// returns to the master's guest only after every digest passed. A
// divergence there unwinds with the record committed (a tape of the session
// ends with it) and the result unreturned. After the call executes, the
// master pops the lowest deliverable pending signal of the calling process
// (if any) into Ret.Sig — the syscall-boundary delivery point, inside the
// ordered section when there is one. Because the popped signal travels
// inside the replicated record, the master's delivery schedule IS the
// session's delivery schedule: slaves consume it positionally instead of
// racing their own pending sets (DESIGN.md §2.5). Publication happens after
// the turn is passed because records travel through per-thread rings, where
// cross-thread order is immaterial.
func (m *Monitor) masterCall(tid int, proc *kernel.Proc, call *kernel.Call, cls class) kernel.Ret {
	ts, late := m.enter(tid, call, cls)
	ret := m.execute(proc, call)
	if call.Nr != kernel.SysExit && call.Nr != kernel.SysThreadExit {
		// No delivery at the exit boundaries: the thread is gone and
		// Linux discards its pending signals. (Delivering here would
		// also re-terminate a process already inside its exit path.)
		ret.Sig = proc.BoundarySig()
	}
	if cls.ordered {
		m.passTurn(0)
	}
	if m.publish {
		r := m.ring(tid)
		m.place(tid, r, r.ReserveN(1), call, cls, ts, &ret)
	}
	if late {
		m.awaitDigests(tid, call, cls, false)
	}
	m.flightAppend(0, tid, call.Nr, &call.Args, call.Data, ts, ret.Sig)
	return ret
}

// slaveCall submits thread tid's call for the master's validation when it is
// lockstepped — no effectful call runs, and no pure result reaches the
// master's guest, until every slave has arrived — and then takes the slave
// step.
func (m *Monitor) slaveCall(v, tid int, proc *kernel.Proc, call *kernel.Call, cls class) kernel.Ret {
	if m.lockstepped(cls) {
		m.submitDigest(v, tid, call, false)
	}
	return m.slaveStep(v, tid, proc, call, cls)
}

// slaveStep is the slave's protocol for one call of thread tid: take the
// master's record — read where it lies, in the ring slot, which stays this
// thread's until advance — wait for the ordering turn, and return the
// replicated (or per-variant re-executed) result. An effectful lockstepped
// call is validated once, by the master against this slave's own digest
// (validateDigest), before its record exists. compare runs where that is not
// so: for a pure call, whose record the master may place before it has seen
// this slave's digest (see enter), so the slave checks its own call before
// it takes the result; for the relaxed policy's run-ahead calls; under
// Replay, where the trace is the authority; and when the record's Nr, on the
// line the slave polled anyway, disagrees (a relaxed-policy sensitive call
// meeting a record of a non-sensitive one, or a thread-exit marker).
func (m *Monitor) slaveStep(v, tid int, proc *kernel.Proc, call *kernel.Call, cls class) kernel.Ret {
	rec := m.nextRecord(v, tid)
	if cls.pure || !m.lockstepped(cls) || rec.Nr != call.Nr {
		if d := m.compare(v, tid, call, rec, cls); d != nil {
			m.Kill(d)
			panic(ErrKilled)
		}
	}
	if rec.Ordered {
		// This variant's ordering clock must reach the recorded stamp;
		// then this thread alone may proceed (§4.1).
		m.awaitTurn(v, rec.Ts)
	}
	ret := rec.Ret // replicated master (or traced) result
	if cls.perVariant {
		ret = m.execute(proc, call)
	} else if call.Buf != nil && len(ret.Data) > 0 {
		// Copy a replicated output payload into the slave's own destination
		// buffer (Call.Buf): the record's bytes live in a recycled arena slot
		// that is only valid until this thread advances past the record, and
		// each variant must own its result the way the master owns its.
		n := copy(call.Buf, ret.Data)
		ret.Data = call.Buf[:n]
	}
	if rec.Ordered {
		m.passTurn(v)
	}
	// Enact the master's signal-delivery schedule: the record says a
	// signal landed at this boundary, so consume the slave's own pending
	// bit (set by its per-variant execution of the same ordered kill) and
	// surface the same signal to the slave's guest.
	if rec.Ret.Sig != 0 {
		proc.AckSignal(rec.Ret.Sig)
		ret.Sig = rec.Ret.Sig
	}
	// A replicated waitpid reaped a child in the master's tree; mirror the
	// reap in this variant's tree so pid liveness stays in lockstep.
	if call.Nr == kernel.SysWaitpid && rec.Ret.Err == kernel.OK {
		m.kern.ApplySlaveWait(proc, int(rec.Ret.Val))
	}
	// The slave's own call matched the master's (its digest or compare), so
	// digesting the slave's args+payload yields the master's digest:
	// matching tails digest identically across variants right up to the
	// divergence point.
	m.flightAppend(v, tid, rec.Nr, &rec.Args, call.Data, rec.Ts, rec.Ret.Sig)
	m.advance(v, tid)
	return ret
}

// InvokeBatchOn performs a RUN of system calls on behalf of thread tid of
// variant v as one replicated multi-record: the master executes all of
// them and publishes the records as one reserved run of its ring (one
// reservation, one back-pressure wait — one cross-core handoff per batch
// instead of one per call), and the slaves consume them through the same
// in-place reads and lagging cursor every record gets. This is the poll-wakeup
// amortization path: a poll that woke with K ready connections drains all K
// receives as one batch.
//
// Eligibility is exactly the REPLICATED set (monitored, replicated, not
// per-variant): replicated calls execute only in the master, so deferring
// their publication to the end of the batch changes nothing the slaves can
// observe except the grouping. Per-variant calls (fork, mmap, exit) have
// slave-side effects that later batch members could depend on, and
// unmonitored calls never reach the rendezvous — a batch containing either
// falls back to the per-call path, preserving semantics over speed. So does
// a run of one: it is exactly one per-call record, with that path's latency
// sampling and signal boundary.
//
// Signal delivery happens ONCE per batch, at its end: the batch is one
// syscall boundary, so a signal that lands mid-batch is stamped on the
// last record (and delivered by the caller after the batch returns),
// keeping the master's delivery schedule positional and replicable.
//
// rets must be the same length as calls; rets[i] receives call i's result.
// Calls that carry a Buf must each carry their own: the master copies a
// result out of its Buf at publication, which a batch defers to its end.
func (m *Monitor) InvokeBatchOn(v, tid int, proc *kernel.Proc, calls []kernel.Call, rets []kernel.Ret) {
	m.checkKilled()
	for i := range calls {
		cls := classify(calls[i].Nr)
		if len(calls) == 1 || calls[i].Nr == kernel.SysMVEEAware || !cls.monitored || !cls.replicated || cls.perVariant {
			for j := range calls {
				rets[j] = m.InvokeOn(v, tid, proc, calls[j])
			}
			return
		}
	}
	m.syscalls[v].n.Add(uint64(len(calls)))
	if tel := m.tel; tel != nil {
		// Count every call in the matrix; skip the latency sampling
		// brackets — a batch's per-call latency is not separable.
		for i := range calls {
			tel.Matrix.Inc(v, tid, calls[i].Nr)
		}
	}
	if m.replay {
		v = 1 // the replayed variant is slave 1 of the recording
	}
	if v != 0 {
		m.slaveBatch(v, tid, proc, calls, rets)
		return
	}
	m.masterBatch(tid, proc, calls, rets)
}

// batchChunk caps how many records one ring reservation of masterBatch
// covers; larger batches are split (and further clamped to the ring's
// capacity, which ReserveN must not exceed on a small test-sized ring).
const batchChunk = 64

// masterBatch is the master's protocol looped over a batch: per call, enter,
// execute and passTurn happen exactly as in masterCall (the ordering clock
// still ticks once per call — batching changes record TRANSPORT, not the
// total order, which is what keeps a batched trace identical to the
// sequential one) — but publication is deferred to the end, where each
// chunk of records is placed into one reserved run of the ring, front to
// back. So a late pure call's rendezvous (see enter) runs right after its
// turn is passed: the batch's records are placed only once every call in it
// was validated.
func (m *Monitor) masterBatch(tid int, proc *kernel.Proc, calls []kernel.Call, rets []kernel.Ret) {
	if cap(m.btickets[tid]) < len(calls) {
		m.btickets[tid] = make([]uint64, len(calls))
	}
	tickets := m.btickets[tid][:len(calls)]
	for i := range calls {
		cls := classify(calls[i].Nr)
		ts, late := m.enter(tid, &calls[i], cls)
		rets[i] = m.execute(proc, &calls[i])
		if cls.ordered {
			m.passTurn(0)
		}
		if late {
			m.awaitDigests(tid, &calls[i], cls, false)
		}
		tickets[i] = ts
	}
	// One delivery point per batch (see InvokeBatchOn): stamp the batch's
	// boundary signal on the LAST record. Exit syscalls are per-variant and
	// therefore never batched, so no exit-boundary exception applies here.
	if sig := proc.BoundarySig(); sig != 0 {
		rets[len(rets)-1].Sig = sig
	}
	if m.publish {
		r := m.ring(tid)
		for done := 0; done < len(calls); {
			n := min(len(calls)-done, batchChunk, r.Cap())
			first := r.ReserveN(n)
			for i := done; i < done+n; i++ {
				m.place(tid, r, first+uint64(i-done), &calls[i], classify(calls[i].Nr), tickets[i], &rets[i])
			}
			done += n
		}
	}
	for i := range calls {
		m.flightAppend(0, tid, calls[i].Nr, &calls[i].Args, calls[i].Data, tickets[i], rets[i].Sig)
	}
}

// slaveBatch is the slave step looped over a batch. The one protocol
// difference from looping slaveCall: under lockstep, EVERY digest is
// submitted before ANY record is consumed. The master publishes the batch
// only after executing all of it, so a slave that submitted digest i only
// after consuming record i-1 would deadlock against a master waiting for
// digest i before executing the batch. Submitting up front is safe —
// digests are consumed positionally from a per-thread inbox, so the master
// still validates digest i against its call i.
func (m *Monitor) slaveBatch(v, tid int, proc *kernel.Proc, calls []kernel.Call, rets []kernel.Ret) {
	for i := range calls {
		if m.lockstepped(classify(calls[i].Nr)) {
			m.submitDigest(v, tid, &calls[i], false)
		}
	}
	for i := range calls {
		rets[i] = m.slaveStep(v, tid, proc, &calls[i], classify(calls[i].Nr))
	}
}

// execute runs the call against the kernel for the given process. Injected
// faults surface here exactly once per fault (the kernel only sets Inj in
// the master's execution of a replicated call; slaves consume the record),
// so this is where telemetry counts them — one predicted-false branch on
// clean calls.
func (m *Monitor) execute(proc *kernel.Proc, call *kernel.Call) kernel.Ret {
	ret := m.kern.Do(proc, *call)
	if ret.Inj != 0 && m.tel != nil {
		m.tel.Faults.Count(ret.Inj)
	}
	return ret
}

// nextRecord returns the master's record for slave v's thread tid, blocking
// (with kill checks) until the master commits it. The pointer is into the
// ring slot and stays valid until advance: the ring cursor trails the read
// position (see slaveCons), so the master cannot recycle the slot — or the
// arena payloads the record references — while the slave still reads it.
// Before waiting, the slave releases every record it is done with: a master
// stalled on back-pressure needs exactly those slots.
func (m *Monitor) nextRecord(v, tid int) *Record {
	g := v - 1
	next := m.scons[g][tid].next
	r := m.ring(tid)
	if !r.Ready(next) {
		r.AdvanceTo(g, next)
		// The master's next commit wakes the ring's wait set.
		m.await(r.Parker(), func() bool { return r.Ready(next) })
	}
	return r.Slot(next)
}

// advance marks the current record of slave v's thread tid consumed. The
// ring cursor follows every slaveBatch records (here) or when the slave next
// has to wait (nextRecord), whichever comes first.
func (m *Monitor) advance(v, tid int) {
	sc := &m.scons[v-1][tid]
	sc.next++
	if sc.next&(slaveBatch-1) == 0 {
		m.ring(tid).AdvanceTo(v-1, sc.next)
	}
}

// compare validates a slave call against the master record under the
// session policy. It returns a non-nil Divergence on mismatch.
func (m *Monitor) compare(v, tid int, call *kernel.Call, rec *Record, cls class) *Divergence {
	fail := func(reason string) *Divergence {
		return &Divergence{Variant: v, Tid: tid, Reason: reason,
			Master: renderRecord(rec), Slave: renderCall(*call)}
	}
	if rec.Exit {
		return fail("slave issued a system call where master's thread exited")
	}
	full := m.cfg.Policy != PolicySecuritySensitive || cls.sensitive
	if reason := mismatch(call, rec.Nr, &rec.Args, rec.Payload(), full); reason != "" {
		return fail(reason)
	}
	return nil
}

// renderRecord reports a record's payload length only when it carries one: a
// live record does not (see place), and "0 bytes" would misstate the call.
func renderRecord(r *Record) string {
	if r.Exit {
		return "thread exit"
	}
	if r.n == 0 {
		return fmt.Sprintf("%v(args=%v) @ts=%d", r.Nr, r.Args, r.Ts)
	}
	return fmt.Sprintf("%v(args=%v, %d bytes) @ts=%d", r.Nr, r.Args, r.n, r.Ts)
}

func renderCall(c kernel.Call) string {
	return fmt.Sprintf("%v(args=%v, %d bytes)", c.Nr, c.Args, len(c.Data))
}
