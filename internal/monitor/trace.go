package monitor

import (
	"sync"
	"sync/atomic"

	"repro/internal/ring"
)

// Offline record/replay support (RecPlay [35] style, §6): during recording,
// an extra consumer group drains every per-thread syscall record into
// memory; during replay, the rings are pre-filled from the trace and the
// single replayed variant consumes them exactly like an online slave.

// RecordCapture drains the per-thread syscall buffers into memory.
type RecordCapture struct {
	m       *Monitor
	stopped atomic.Bool // the tapes' stop flag: Stop sets it and wakes the monitor's wait sets
	recs    [][]Record  // recs[tid] is written by thread tid's tape, read after done
	done    sync.WaitGroup
}

// start runs thread tid's tape; Monitor.ring calls it when it creates the
// thread's ring, so threads that never make a monitored call cost nothing.
// The tape owns its copies outright (under capture, place copies payloads and
// Buf results into fresh allocations, never arenas), so consuming eagerly is
// safe. A copy carries its slot's
// leftovers (see payloadBox): with n <= InlinePayload its spill is an earlier
// record's payload — one this tape holds anyway — and only Payload() says
// what the record carries.
func (c *RecordCapture) start(tid int, r *ring.Log[Record]) {
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		c.recs[tid] = ring.Drain(r, c.m.tapeGroup, &c.stopped)
	}()
}

// Stop ends the capture and returns the per-thread record streams. Call it
// only after the recorded session has finished.
func (c *RecordCapture) Stop() [][]Record {
	c.stopped.Store(true)
	c.m.wakeParked()
	c.done.Wait()
	return c.recs
}

// prefillReplay loads a recorded trace into the rings so the replayed
// variant can consume it, and rewires the monitor into replay mode.
func (m *Monitor) prefillReplay(recs [][]Record) {
	for tid, stream := range recs {
		if tid >= len(m.rings) {
			break
		}
		// One batched append per thread: the rings were sized to hold the
		// whole trace, so this is one sequence claim per stream.
		m.ring(tid).AppendBatch(stream)
	}
}
