package agent

import (
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
	// bufs[tid] is master thread tid's sync buffer, created lazily on its
	// first sync op (see buf): sessions sized for MaxThreads rarely run
	// them all, and eager allocation of every buffer dominates exchange
	// construction.
	bufs  []atomic.Pointer[ring.Log[WEntry]]
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
		bufs:      make([]atomic.Pointer[ring.Log[WEntry]], cfg.MaxThreads),
		walls:     make([]*clock.Wall, cfg.Slaves),
		wallParks: make([]futex.Parker, cfg.Slaves),
	}
	for g := range ex.walls {
		ex.walls[g] = clock.NewWall(cfg.WallSize)
	}
	publishBuffers(cfg, ex.bufs, cfg.MaxThreads*cfg.BufCap*12)
	return ex
}

// buf returns thread tid's sync buffer, creating it on first use. The fast
// path is one atomic load; the master-records vs slave-replays creation
// race is settled by a compare-and-swap.
func (ex *wocExchange) buf(tid int) *ring.Log[WEntry] {
	if b := ex.bufs[tid].Load(); b != nil {
		return b
	}
	b := ring.NewLog[WEntry](ex.cfg.BufCap, max(ex.cfg.Slaves, 1))
	b.SetStop(&ex.stop.stopped)
	if !ex.bufs[tid].CompareAndSwap(nil, b) {
		return ex.bufs[tid].Load()
	}
	return b
}

func (ex *wocExchange) Kind() Kind { return WallOfClocks }

func (ex *wocExchange) Stop() {
	ex.stop.stopped.Store(true)
	// The stop flag's owner wakes its waiters (ring.Await): every sync
	// buffer and every wall.
	for i := range ex.bufs {
		if b := ex.bufs[i].Load(); b != nil {
			b.Interrupt()
		}
	}
	for g := range ex.wallParks {
		ex.wallParks[g].Wake()
	}
}

func (ex *wocExchange) MasterAgent() Agent {
	return &wocMaster{ex: ex, held: make([]int32, ex.cfg.MaxThreads)}
}

func (ex *wocExchange) SlaveAgent(g int) Agent {
	return &wocSlave{
		ex:       ex,
		group:    g,
		wall:     ex.walls[g],
		wallPark: &ex.wallParks[g],
		cur:      make([]WEntry, ex.cfg.MaxThreads),
		pre:      make([]WEntry, ex.cfg.MaxThreads*wocBatch),
		bi:       make([]int, ex.cfg.MaxThreads),
		bn:       make([]int, ex.cfg.MaxThreads),
	}
}

// wocMaster records (clock, time) tickets into its per-thread buffers.
type wocMaster struct {
	ex   *wocExchange
	held []int32 // per tid: clock locked in Before
	ops  atomic.Uint64
}

func (m *wocMaster) Before(tid int, addr uint64) {
	m.ex.stop.check()
	cid := m.ex.wall.ClockOf(addr)
	m.ex.locks[cid].Lock()
	m.held[tid] = int32(cid)
}

func (m *wocMaster) After(tid int, addr uint64) {
	cid := int(m.held[tid])
	t := m.ex.wall.Tick(cid) // returns pre-increment time, i.e. the ticket
	m.ex.buf(tid).Append(WEntry{Clock: uint32(cid), Time: t})
	m.ex.locks[cid].Unlock()
	m.ops.Add(1)
}

func (m *wocMaster) Ops() uint64    { return m.ops.Load() }
func (m *wocMaster) Stalls() uint64 { return 0 }

// wocBatch is how many tickets a slave thread prefetches from its
// per-thread buffer in one consume: one cursor move per batch instead of
// one per sync op. Prefetching is safe precisely because each buffer is
// SPSC per (group, thread): tickets are pure values consumed strictly in
// program order by their one thread, so eager cursor advancement only
// hands the master a little extra ring slack.
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
	cur      []WEntry      // per tid: entry claimed in Before
	// pre[tid*wocBatch:] is thread tid's prefetched ticket batch;
	// bi/bn[tid] is the consumption window into it.
	pre    []WEntry
	bi, bn []int
	ops    atomic.Uint64
	stalls atomic.Uint64
}

func (s *wocSlave) Before(tid int, addr uint64) {
	// Refill this thread's ticket batch if it ran dry; the master's next
	// append wakes the (SPSC) buffer's wait set.
	if s.bi[tid] >= s.bn[tid] && !s.refill(tid) {
		s.stalls.Add(1)
		s.ex.stop.await(s.ex.buf(tid).Parker(), func() bool { return s.refill(tid) })
	}
	e := s.pre[tid*wocBatch+s.bi[tid]]
	// Wait for the local clock to reach the ticket's time; each sibling Tick
	// (After) wakes the group's wall wait set.
	if s.wall.Now(int(e.Clock)) < e.Time {
		s.stalls.Add(1)
		s.ex.stop.await(s.wallPark, func() bool { return s.wall.Now(int(e.Clock)) >= e.Time })
	}
	s.cur[tid] = e
}

// refill consumes the next run of tickets from thread tid's buffer into its
// batch and reports whether there were any.
func (s *wocSlave) refill(tid int) bool {
	n := s.ex.buf(tid).TryConsumeBatch(s.group, s.pre[tid*wocBatch:(tid+1)*wocBatch])
	if n == 0 {
		return false // a failed poll stores nothing: siblings' indices share these lines
	}
	s.bi[tid], s.bn[tid] = 0, n
	return true
}

func (s *wocSlave) After(tid int, addr uint64) {
	e := s.cur[tid]
	s.bi[tid]++
	s.wall.Tick(int(e.Clock))
	// The tick may be exactly the time a parked sibling is waiting for.
	s.wallPark.Wake()
	s.ops.Add(1)
}

func (s *wocSlave) Ops() uint64    { return s.ops.Load() }
func (s *wocSlave) Stalls() uint64 { return s.stalls.Load() }
