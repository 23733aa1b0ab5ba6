package agent

import (
	"sync"
	"sync/atomic"

	"repro/internal/ring"
)

// Entry is one recorded sync op in the shared TO/PO sync buffer: which
// master thread performed it, and on which (master-local) address. Slaves
// never interpret the address as a pointer — it only serves as the
// dependence key for the partial-order agent.
type Entry struct {
	Tid  int32
	Addr uint64
}

// orderExchange backs both the total-order and the partial-order agents:
// the two strategies share the single shared sync buffer and the master
// recording protocol (§4.5); they differ only in how slaves consume it.
//
// Unlike the wall-of-clocks agent, the TO/PO slaves deliberately do NOT use
// the ring's batched consumption: both must inspect the shared buffer's
// head under the group mutex (an op is claimable only relative to what the
// whole variant has consumed so far), so per-op head traffic is inherent to
// the single-buffer design — the very scalability pathology §4.5 describes
// and the WoC agent exists to avoid.
type orderExchange struct {
	partial bool
	cfg     Config
	log     *ring.Log[Entry]
	stop    stopFlag

	groups []*poGroup // per slave: PO consumption state (also used by TO for bookkeeping symmetry)
}

func newTOExchange(cfg Config, partial bool) *orderExchange {
	ex := &orderExchange{
		partial: partial,
		cfg:     cfg,
		log:     ring.NewLog[Entry](cfg.BufCap, max(cfg.Slaves, 1)),
	}
	ex.log.SetStop(&ex.stop.stopped)
	ex.groups = make([]*poGroup, cfg.Slaves)
	for g := range ex.groups {
		ex.groups[g] = &poGroup{consumed: make(map[uint64]bool)}
	}
	return ex
}

func (ex *orderExchange) Kind() Kind {
	if ex.partial {
		return PartialOrder
	}
	return TotalOrder
}

func (ex *orderExchange) Stop() {
	ex.stop.stopped.Store(true)
	ex.log.Interrupt() // the stop flag's owner wakes its waiters (ring.Await)
}

func (ex *orderExchange) MasterAgent() Agent {
	return &orderMaster{ex: ex}
}

func (ex *orderExchange) SlaveAgent(g int) Agent {
	if ex.partial {
		return &poSlave{ex: ex, group: g, st: ex.groups[g],
			pending: make([]uint64, ex.cfg.MaxThreads)}
	}
	return &toSlave{ex: ex, group: g, st: ex.groups[g],
		pending: make([]uint64, ex.cfg.MaxThreads)}
}

// orderMaster records sync ops into the shared buffer. The global record
// lock makes (op, append) atomic; it is also the shared cache line whose
// read-write sharing the paper blames for the TO/PO agents' poor
// scalability — the contention is inherent to the single-buffer design.
type orderMaster struct {
	ex  *orderExchange
	mu  sync.Mutex
	ops atomic.Uint64
}

func (m *orderMaster) Before(tid int, addr uint64) {
	m.ex.stop.check()
	m.mu.Lock()
}

func (m *orderMaster) After(tid int, addr uint64) {
	m.ex.log.Append(Entry{Tid: int32(tid), Addr: addr})
	m.mu.Unlock()
	m.ops.Add(1)
}

func (m *orderMaster) Ops() uint64    { return m.ops.Load() }
func (m *orderMaster) Stalls() uint64 { return 0 }

// toSlave replays the recorded total order: a thread may execute its next
// sync op only when that op is at the head of the buffer. Unrelated ops
// therefore stall each other — Figure 4(a)'s red bar.
//
// All head inspection and cursor advancement happens under the group's
// mutex: a slot may only be read while the cursor still points at it (once
// any thread advances the cursor, the producer may recycle the slot).
type toSlave struct {
	ex      *orderExchange
	group   int
	st      *poGroup // only its mutex is used
	pending []uint64 // per tid: seq claimed in Before, consumed in After
	ops     atomic.Uint64
	stalls  atomic.Uint64
}

// tryClaim claims the head entry for tid if it is published and addressed
// to this thread, recording the claimed sequence in pending.
func (s *toSlave) tryClaim(tid int) bool {
	s.st.mu.Lock()
	seq := s.ex.log.Cursor(s.group)
	e, ok := s.ex.log.TryGet(seq)
	claimed := ok && int(e.Tid) == tid
	if claimed {
		s.pending[tid] = seq
	}
	s.st.mu.Unlock()
	return claimed
}

// Before stalls until tid's op is at the head (the total order stalls
// unrelated threads by design — Figure 4(a)); the master's next append and
// every sibling's head advance wake the buffer's wait set.
func (s *toSlave) Before(tid int, addr uint64) {
	if s.tryClaim(tid) {
		return
	}
	s.stalls.Add(1)
	s.ex.stop.await(s.ex.log.Parker(), func() bool { return s.tryClaim(tid) })
}

func (s *toSlave) After(tid int, addr uint64) {
	s.st.mu.Lock()
	s.ex.log.Advance(s.group, s.pending[tid])
	s.st.mu.Unlock()
	s.ops.Add(1)
}

func (s *toSlave) Ops() uint64    { return s.ops.Load() }
func (s *toSlave) Stalls() uint64 { return s.stalls.Load() }

// poGroup is one slave variant's out-of-order consumption window over the
// shared buffer: entries before head are consumed; entries in the window
// may be consumed out of order as long as same-address order is respected.
type poGroup struct {
	mu       sync.Mutex
	head     uint64
	consumed map[uint64]bool
}

// poSlave replays a partial order: a thread's next op (the earliest
// unconsumed entry recorded for it) may run as soon as no earlier
// unconsumed entry touches the same address. Scanning the window costs
// memory traffic — the paper's stated downside of the PO agent.
type poSlave struct {
	ex      *orderExchange
	group   int
	st      *poGroup
	pending []uint64
	ops     atomic.Uint64
	stalls  atomic.Uint64
}

// Before stalls until tid's next op has no unconsumed same-address
// predecessor. Wakes come from the master's appends (ring publish) and from
// sibling consumption (After wakes the set explicitly — see the comment
// there).
func (s *poSlave) Before(tid int, addr uint64) {
	if s.tryClaim(tid) {
		return
	}
	s.stalls.Add(1)
	s.ex.stop.await(s.ex.log.Parker(), func() bool { return s.tryClaim(tid) })
}

// tryClaim scans the window for tid's next op — the earliest unconsumed
// entry recorded for it — and claims it (recording the sequence in pending)
// iff no earlier unconsumed entry operates on the same address. It runs once
// per poll of a stalled thread and must not allocate (§3.3).
func (s *poSlave) tryClaim(tid int) bool {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	for seq := s.st.head; ; seq++ {
		e, ok := s.ex.log.TryGet(seq)
		if !ok {
			return false // candidate not yet recorded
		}
		if s.st.consumed[seq] || int(e.Tid) != tid {
			continue
		}
		for b := s.st.head; b < seq; b++ {
			if be, _ := s.ex.log.TryGet(b); be.Addr == e.Addr && !s.st.consumed[b] {
				return false
			}
		}
		s.pending[tid] = seq
		return true
	}
}

func (s *poSlave) After(tid int, addr uint64) {
	seq := s.pending[tid]
	s.st.mu.Lock()
	s.st.consumed[seq] = true
	for s.st.consumed[s.st.head] {
		delete(s.st.consumed, s.st.head)
		s.st.head++
	}
	head := s.st.head
	s.st.mu.Unlock()
	s.ex.log.AdvanceTo(s.group, head)
	// Wake parked siblings even when the head did not move (AdvanceTo
	// no-ops then, so the ring wakes nobody): consuming a mid-window entry
	// can clear another thread's same-address dependence, and that thread
	// may be parked waiting for exactly this.
	s.ex.log.Parker().Wake()
	s.ops.Add(1)
}

func (s *poSlave) Ops() uint64    { return s.ops.Load() }
func (s *poSlave) Stalls() uint64 { return s.stalls.Load() }
