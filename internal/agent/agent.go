// Package agent implements the paper's three synchronization agents (§4.5):
// total-order (TO), partial-order (PO), and wall-of-clocks (WoC). An agent
// is injected into every variant; the master variant's agent records the
// order in which the variant executes synchronization operations into
// shared sync buffers, and each slave variant's agent replays an equivalent
// order, stalling slave threads that run ahead.
//
// A synchronization operation ("sync op") is a single atomic instruction on
// a synchronization variable. The instrumented synchronization library
// (internal/synclib) brackets every such instruction with Before/After
// calls, exactly like the before_sync_op/after_sync_op wrappers the paper
// compiles into variants (Listing 3).
//
// Recording and the operation itself must appear atomic — otherwise two
// master threads racing on one variable could log an order that differs
// from the order the hardware actually executed, and replaying that log
// would produce different CAS outcomes in the slaves. The master agents
// therefore hold a record lock across the Before→op→After window: a single
// global lock for TO and PO (the paper's single shared buffer, whose
// cache-line contention is the very scalability problem §4.5 describes),
// and a per-clock lock for WoC (contention only where the original program
// already contended, as the paper argues).
package agent

import (
	"fmt"
	"sync/atomic"

	"repro/internal/futex"
	"repro/internal/ring"
)

// Kind selects a replication strategy.
type Kind int

const (
	// None disables sync-op replication (native or single-variant runs).
	None Kind = iota
	// TotalOrder replays all sync ops in exactly the recorded order.
	TotalOrder
	// PartialOrder only orders dependent sync ops (same variable).
	PartialOrder
	// WallOfClocks hashes variables onto a fixed wall of logical clocks
	// and replays per-clock orders through per-thread buffers.
	WallOfClocks
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case TotalOrder:
		return "total-order"
	case PartialOrder:
		return "partial-order"
	case WallOfClocks:
		return "wall-of-clocks"
	}
	return fmt.Sprintf("agent(%d)", int(k))
}

// Agent is the per-variant interface the instrumented program calls around
// every sync op. tid is the logical thread id (equal across variants); addr
// is the variant-local virtual address of the synchronization variable.
type Agent interface {
	// Before is called immediately before the atomic instruction. In the
	// master it acquires the record lock; in a slave it blocks until the
	// recorded order allows this thread's next op to proceed.
	Before(tid int, addr uint64)
	// After is called immediately after the atomic instruction. In the
	// master it logs the op and releases the record lock; in a slave it
	// marks the op consumed.
	After(tid int, addr uint64)
	// Ops returns the number of sync ops recorded or replayed so far.
	Ops() uint64
	// Stalls returns how many times a slave thread had nothing to replay
	// (always 0 for masters): a Before that found NO recorded op it may
	// take, or that had to wait for wall time. A WoC thread that has tickets
	// and waits for a fuller batch is not stalled. It is a coarse efficiency
	// signal: the TO agent stalls more than PO, which stalls more than WoC.
	Stalls() uint64
}

// ErrStopped is panicked by agents when the exchange is shut down (e.g. on
// divergence) while a thread is blocked inside Before. The MVEE core
// recovers it at the top of every variant thread.
var ErrStopped = fmt.Errorf("agent: exchange stopped")

// Exchange is the shared state (the "sync buffers") connecting one master
// agent to its slave agents. Create one per MVEE session via NewExchange,
// then mint one Agent per variant with MasterAgent/SlaveAgent.
type Exchange interface {
	// Kind reports the replication strategy.
	Kind() Kind
	// MasterAgent returns the recording agent for the master variant.
	MasterAgent() Agent
	// SlaveAgent returns the replaying agent for slave group g,
	// 0 <= g < slaves.
	SlaveAgent(g int) Agent
	// Stop aborts all blocked agent calls; they panic with ErrStopped.
	Stop()
}

// Config sizes an exchange.
type Config struct {
	Slaves     int // number of slave variants
	MaxThreads int // maximum logical threads per variant
	BufCap     int // sync buffer capacity (entries)
	WallSize   int // number of clocks for WallOfClocks (power of two)
}

func (c *Config) fill() {
	if c.MaxThreads <= 0 {
		c.MaxThreads = 64
	}
	if c.BufCap <= 0 {
		c.BufCap = 1024
	}
	if c.WallSize <= 0 {
		c.WallSize = 4096
	}
}

// NewExchange builds the shared buffers for the chosen strategy. kind None
// returns an exchange whose agents do nothing.
func NewExchange(kind Kind, cfg Config) Exchange {
	cfg.fill()
	switch kind {
	case None:
		return noopExchange{}
	case TotalOrder:
		return newTOExchange(cfg, false)
	case PartialOrder:
		return newTOExchange(cfg, true)
	case WallOfClocks:
		return newWoCExchange(cfg)
	default:
		panic(fmt.Sprintf("agent: unknown kind %d", kind))
	}
}

// stopFlag is shared by all agents of an exchange.
type stopFlag struct{ stopped atomic.Bool }

func (s *stopFlag) check() {
	if s.stopped.Load() {
		panic(ErrStopped)
	}
}

// await blocks a slave thread until ready reports true, waiting on pk
// (ring.Await); a stopped exchange unwinds it with ErrStopped. Every
// exchange's Stop wakes each pk its agents pass here.
func (s *stopFlag) await(pk *futex.Parker, ready func() bool) {
	if !ring.Await(pk, &s.stopped, ready) {
		panic(ErrStopped)
	}
}

// noop agent/exchange.

type noopExchange struct{}

func (noopExchange) Kind() Kind           { return None }
func (noopExchange) MasterAgent() Agent   { return &noopAgent{} }
func (noopExchange) SlaveAgent(int) Agent { return &noopAgent{} }
func (noopExchange) Stop()                {}

type noopAgent struct{ ops atomic.Uint64 }

func (a *noopAgent) Before(int, uint64) {}
func (a *noopAgent) After(int, uint64)  { a.ops.Add(1) }
func (a *noopAgent) Ops() uint64        { return a.ops.Load() }
func (a *noopAgent) Stalls() uint64     { return 0 }
