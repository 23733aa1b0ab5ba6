package agent

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/futex"
	"repro/internal/ring"
)

// WEntry is one recorded sync op in a wall-of-clocks per-thread buffer: the
// logical clock the op's variable hashed to, and that clock's time when the
// master executed the op (Figure 4(c)).
type WEntry struct {
	Clock uint32
	Time  uint64
}

// wocExchange implements the wall-of-clocks strategy (§4.5):
//
//   - Synchronization variables are hashed onto a fixed wall of logical
//     clocks (the agents may not allocate memory dynamically, §3.3, so the
//     wall is pre-allocated and collisions are accepted).
//   - There is one sync buffer per master thread, so every buffer has a
//     single producer; corresponding slave threads are its only consumers.
//     No buffer-position word is shared between threads — the design's
//     whole point is eliminating that cache contention.
//   - Slaves keep local copies of every clock and replay the recorded
//     (clock, time) tickets against them; the master's clocks are never
//     read by slaves.
type wocExchange struct {
	cfg  Config
	wall *clock.Wall
	// locks[c] makes (op, record, tick) atomic per master clock. Master
	// threads contend here only if the original program already contended
	// on variables hashing to c.
	locks []sync.Mutex
	// bufs holds each master thread's sync buffer, created on its first sync
	// op: recording, it has one more consumer group, the tape; replaying, it
	// is preloaded with the trace.
	bufs  ring.Table[WEntry]
	walls []*clock.Wall // one local wall per slave group
	// wallParks[g] parks slave group g's threads once a wall-time wait has
	// spun past the pause phase; every local Tick by a sibling thread
	// wakes it. One wait set per wall (not per clock): 4096 parkers per
	// group would bloat the exchange, and a broadcast only costs the
	// (rare) parked waiters a re-check.
	wallParks []futex.Parker
	stop      stopFlag
}

func newWoCExchange(cfg Config) *wocExchange {
	ex := &wocExchange{
		cfg:       cfg,
		wall:      clock.NewWall(cfg.WallSize),
		locks:     make([]sync.Mutex, cfg.WallSize),
		walls:     make([]*clock.Wall, cfg.Slaves),
		wallParks: make([]futex.Parker, cfg.Slaves),
	}
	ex.bufs = ring.NewTable[WEntry](cfg.MaxThreads, cfg.BufCap, cfg.Slaves, &ex.stop.stopped)
	for g := range ex.walls {
		ex.walls[g] = clock.NewWall(cfg.WallSize)
	}
	return ex
}

// NewCapturingExchange returns a wall-of-clocks exchange for cfg.Slaves live
// slaves whose sync buffers also record every ticket the master logs, in the
// spirit of RecPlay [35] (§6): the tape is one more consumer group, so it
// applies the back-pressure a slow slave would. StopTape collects the
// recording.
func NewCapturingExchange(cfg Config) Exchange {
	cfg.fill()
	ex := newWoCExchange(cfg) // its table is empty: no buffer exists yet
	ex.bufs = ring.NewRecordingTable[WEntry](cfg.MaxThreads, cfg.BufCap, cfg.Slaves, &ex.stop.stopped)
	return ex
}

// NewReplayExchange returns an exchange whose sync buffers are preloaded with
// a recording's ticket streams. Only SlaveAgent(0) is meaningful: the
// replayed variant consumes the trace exactly as an online slave consumes a
// live master. MasterAgent must not be used.
func NewReplayExchange(ops [][]WEntry, cfg Config) Exchange {
	cfg.fill()
	cfg.Slaves = 1
	ex := newWoCExchange(cfg)
	ex.bufs = ring.NewPreloadedTable(ops, cfg.MaxThreads, cfg.BufCap, &ex.stop.stopped)
	return ex
}

// StopTape ends the recording of an exchange made by NewCapturingExchange and
// returns its per-thread ticket streams; nil for any other exchange. Call it
// only after the recorded session has finished.
func StopTape(ex Exchange) [][]WEntry {
	if w, ok := ex.(*wocExchange); ok {
		return w.bufs.StopTape()
	}
	return nil
}

// buf returns thread tid's sync buffer.
func (ex *wocExchange) buf(tid int) *ring.Log[WEntry] { return ex.bufs.Get(tid) }

func (ex *wocExchange) Kind() Kind { return WallOfClocks }

// Stop sets the stop flag and wakes every wait set of the exchange — every
// sync buffer and every wall — as its owner must (ring.Await).
func (ex *wocExchange) Stop() {
	ex.stop.stopped.Store(true)
	ex.bufs.Interrupt()
	for g := range ex.wallParks {
		ex.wallParks[g].Wake()
	}
}

func (ex *wocExchange) MasterAgent() Agent {
	return &wocMaster{ex: ex, threads: make([]wocMasterThread, ex.cfg.MaxThreads)}
}

func (ex *wocExchange) SlaveAgent(g int) Agent {
	s := &wocSlave{
		ex:       ex,
		group:    g,
		wall:     ex.walls[g],
		wallPark: &ex.wallParks[g],
		threads:  make([]wocSlaveThread, ex.cfg.MaxThreads),
	}
	for i := range s.threads {
		s.threads[i].want = 1
	}
	return s
}

// cacheLine is the assumed coherence granule (see ring): the per-thread
// structs below are sized in multiples of it, so no two threads of a variant
// write one line (TestWoCThreadStateDoesNotShareLines).
const cacheLine = 64

// bump counts one event on a per-thread counter. Its thread is the only
// writer, so a load and a store do: no locked add, and no line every thread
// of the variant hits on every sync op.
func bump(c *atomic.Uint64) { c.Store(c.Load() + 1) }

// wocMaster records (clock, time) tickets into its per-thread buffers.
type wocMaster struct {
	ex      *wocExchange
	threads []wocMasterThread
}

// wocMasterThread is what master thread tid writes on every sync op, alone on
// its line.
type wocMasterThread struct {
	held int32 // clock locked in Before
	ops  atomic.Uint64
	_    [cacheLine - 16]byte
}

func (m *wocMaster) Before(tid int, addr uint64) {
	m.ex.stop.check()
	cid := m.ex.wall.ClockOf(addr)
	m.ex.locks[cid].Lock()
	m.threads[tid].held = int32(cid)
}

func (m *wocMaster) After(tid int, addr uint64) {
	t := &m.threads[tid]
	cid := int(t.held)
	ticket := m.ex.wall.Tick(cid) // the pre-increment time
	m.ex.buf(tid).Append(WEntry{Clock: uint32(cid), Time: ticket})
	m.ex.locks[cid].Unlock()
	bump(&t.ops)
}

func (m *wocMaster) Ops() (n uint64) {
	for i := range m.threads {
		n += m.threads[i].ops.Load()
	}
	return n
}
func (m *wocMaster) Stalls() uint64 { return 0 }

// wocBatch is how many tickets a slave thread prefetches from its
// per-thread buffer at most in one consume. Prefetching is safe precisely
// because each buffer is SPSC per (group, thread): tickets are pure values
// consumed strictly in program order by their one thread, so eager cursor
// advancement only hands the master a little extra ring slack.
const wocBatch = 16

// wocSlave replays tickets: thread tid reads the next entry from its own
// buffer and waits until the slave's local copy of that clock reaches the
// recorded time. Threads whose variables hash to different clocks never
// wait on one another.
type wocSlave struct {
	ex       *wocExchange
	group    int
	wall     *clock.Wall
	wallPark *futex.Parker // this group's wall wait set (see wocExchange)
	threads  []wocSlaveThread
}

// wocSlaveThread is everything slave thread tid writes, on lines of its own:
// one for the words below, four for the prefetched batch.
type wocSlaveThread struct {
	bi, bn int32 // consumption window into pre; pre[bi] is the ticket Before claimed
	// want is how many tickets the next dry refill waits for (1 … min(wocBatch,
	// buffer capacity)). hold and strikes are learn's memory of waits that ran
	// out: while hold > 0, that many more refills may not grow want; below 0 it
	// counts the refills since (down to -wocForgive); the next hold-off lasts
	// 2<<strikes refills.
	want, hold, strikes int32
	expired             uint32 // batch waits that ran out with tickets on hand
	ops, stalls         atomic.Uint64
	_                   [cacheLine - 40]byte
	pre                 [wocBatch]WEntry
}

func (s *wocSlave) Before(tid int, addr uint64) {
	t := &s.threads[tid]
	if t.bi >= t.bn {
		r := s.refill(tid)
		s.ex.stop.await(r.buf.Parker(), r.poll)
	}
	e := &t.pre[t.bi]
	// Wait for the local clock to reach the ticket's time; each sibling Tick
	// (After) wakes the group's wall wait set.
	if s.wall.Now(int(e.Clock)) < e.Time {
		bump(&t.stalls)
		s.ex.stop.await(s.wallPark, func() bool { return s.wall.Now(int(e.Clock)) >= e.Time })
	}
}

// wocRefill is one wait of a thread whose batch ran dry; poll is its ready
// for Await. It waits for t.want tickets first — polling the publication
// word of the LAST slot it wants, lines away from the one the master is
// writing — and, once that patience has run out, for any (DESIGN §4, "Tickets
// travel by the batch"). The patience ends inside Await's busy/pause phases
// and the predicate never goes back: a thread that reaches the Prepare window
// waits for one ticket, which is what the master's next append wakes it for.
type wocRefill struct {
	t        *wocSlaveThread
	buf      *ring.Log[WEntry]
	group    int
	want     int
	last     uint64 // sequence of the want-th ticket from the cursor
	patience int    // polls left for it
	dry      bool   // a poll for any ticket found none
}

func (s *wocSlave) refill(tid int) wocRefill {
	r := wocRefill{t: &s.threads[tid], buf: s.ex.buf(tid), group: s.group}
	r.want = int(r.t.want)
	r.last = r.buf.Cursor(r.group) + uint64(r.want) - 1
	r.patience = wocPatience[bits.Len(uint(r.want-1))]
	return r
}

// wocPatience is how many polls a wait for 1, 2, ≤4, ≤8, ≤16 tickets lasts:
// some 0.2 µs a ticket asked for under Await's schedule (0.35, 0.85, 1.6 and
// 3.1 µs on the reference host). That is the time by which a master recording
// a ticket every 0.4 µs falls behind a slave replaying one every 0.2 µs — the
// sync_fine round's pace — so a thread that has caught up still gets its
// batch; a stream too sparse for it learns to ask for less. All of it lies
// inside Await's busy and pause phases, which end at 64 polls.
var wocPatience = [...]int{0, 28, 36, 44, 56}

func (r *wocRefill) poll() bool {
	if r.patience > 0 && !r.buf.Ready(r.last) {
		r.patience--
		return false
	}
	r.patience = 0
	n := r.buf.TryConsumeBatch(r.group, r.t.pre[:])
	if n == 0 {
		if !r.dry {
			r.dry = true
			bump(&r.t.stalls) // a stall is a Before that found no ticket, not one that waited for a fuller batch
		}
		return false
	}
	r.t.bi, r.t.bn = 0, int32(n)
	r.t.learn(n, min(wocBatch, r.buf.Cap()), n < r.want && !r.dry)
	return true
}

// learn sets what the next dry refill asks for from what this one found.
// A request that was met doubles. A wait that ran out while tickets were
// there — the master recorded found of them and then stopped, typically at a
// rendezvous with this very thread — delayed them for nothing: ask for what
// was found, and do not grow again for 2<<strikes refills, twice as long after
// each such expiry (up to 1024), so a stream of short bursts stops paying. A
// wait that ran out with NO ticket on hand cost nothing (the thread would
// have waited anyway) and proves nothing (on a busy host the master is simply
// off its CPU), so it changes nothing; and wocForgive refills past a hold-off
// without an expiry clear the strikes, so a dense stream's occasional expiry
// costs it a few refills, not its batches.
func (t *wocSlaveThread) learn(found, limit int, expired bool) {
	switch {
	case expired:
		t.expired++
		t.want = int32(found)
		t.hold = 2 << t.strikes
		t.strikes = min(t.strikes+1, wocMaxStrikes)
	case t.hold > 0:
		t.hold--
	default:
		if t.hold > -wocForgive {
			t.hold--
		} else {
			t.strikes = 0
		}
		if found >= int(t.want) {
			t.want = int32(min(2*int(t.want), limit))
		}
	}
}

const (
	wocMaxStrikes = 9  // the longest hold-off is 2<<9 = 1024 refills
	wocForgive    = 64 // refills past a hold-off without an expiry that clear the strikes
)

func (s *wocSlave) After(tid int, addr uint64) {
	t := &s.threads[tid]
	cid := int(t.pre[t.bi].Clock)
	t.bi++
	s.wall.Tick(cid)
	// The tick may be exactly the time a parked sibling is waiting for.
	s.wallPark.Wake()
	bump(&t.ops)
}

func (s *wocSlave) Ops() (n uint64) {
	for i := range s.threads {
		n += s.threads[i].ops.Load()
	}
	return n
}

func (s *wocSlave) Stalls() (n uint64) {
	for i := range s.threads {
		n += s.threads[i].stalls.Load()
	}
	return n
}
