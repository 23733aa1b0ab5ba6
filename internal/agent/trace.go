package agent

import (
	"sync"
	"sync/atomic"

	"repro/internal/ring"
)

// This file adds offline record/replay support to the wall-of-clocks
// exchange, in the spirit of RecPlay [35] (§6): the same (clock, time)
// tickets that drive online replication can be drained to a trace during
// recording and replayed later against a fresh run — deterministic
// re-execution for debugging, without a live master.

// Capture continuously drains a dedicated consumer group of a WoC exchange
// into memory. Create it with NewCapturingExchange; call Stop after the
// session finished to collect the per-thread ticket streams.
type Capture struct {
	ex      *wocExchange
	group   int
	stopped atomic.Bool // the tapes' stop flag: Stop sets it and wakes the exchange's wait sets
	ops     [][]WEntry  // ops[tid] is written by thread tid's tape, read after done
	done    sync.WaitGroup
}

// NewCapturingExchange returns a wall-of-clocks exchange for cfg.Slaves
// live slaves plus a Capture that records every ticket the master logs.
// The capture behaves like one more (invisible) slave variant: it has its
// own consumer group, so it applies the same back-pressure a slow slave
// would.
func NewCapturingExchange(cfg Config) (Exchange, *Capture) {
	cfg.fill()
	live := cfg.Slaves
	cfg.Slaves = live + 1 // the tape is the last consumer group
	ex := newWoCExchange(cfg)
	ex.tape = &Capture{ex: ex, group: live, ops: make([][]WEntry, cfg.MaxThreads)}
	return ex, ex.tape
}

// start runs thread tid's tape; the exchange calls it when it creates the
// thread's buffer, so threads that never record cost nothing.
func (c *Capture) start(tid int, buf *ring.Log[WEntry]) {
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		c.ops[tid] = ring.Drain(buf, c.group, &c.stopped)
	}()
}

// Stop ends the capture and returns the recorded per-thread ticket
// streams. Call it only after the recorded session has finished.
func (c *Capture) Stop() [][]WEntry {
	c.stopped.Store(true)
	c.ex.wakeParked()
	c.done.Wait()
	return c.ops
}

// NewReplayExchange builds an exchange whose recorded side is pre-filled
// from a captured trace. Only SlaveAgent(0) is meaningful: the replayed
// variant consumes the trace exactly as an online slave consumes a live
// master. MasterAgent must not be used.
func NewReplayExchange(ops [][]WEntry, cfg Config) Exchange {
	cfg.fill()
	cfg.Slaves = 1
	// Size the buffers to hold the whole trace: replay has no live
	// producer to apply back-pressure to.
	maxLen := 2
	for _, stream := range ops {
		if len(stream) > maxLen {
			maxLen = len(stream)
		}
	}
	cfg.BufCap = maxLen
	ex := newWoCExchange(cfg)
	for tid, stream := range ops {
		if tid >= len(ex.bufs) {
			break
		}
		// The buffers were sized to hold the whole trace, so this is one
		// batched append (one sequence claim) per stream.
		ex.buf(tid).AppendBatch(stream)
	}
	return ex
}
