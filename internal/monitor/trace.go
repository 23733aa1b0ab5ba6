package monitor

import (
	"sync"
	"time"
)

// Offline record/replay support (RecPlay [35] style, §6): during recording,
// an extra consumer group drains every per-thread syscall record into
// memory; during replay, the rings are pre-filled from the trace and the
// single replayed variant consumes them exactly like an online slave.

// RecordCapture drains the per-thread syscall buffers into memory.
type RecordCapture struct {
	m     *Monitor
	group int
	mu    sync.Mutex
	recs  [][]Record
	stop  chan struct{}
	done  sync.WaitGroup
}

// startCapture begins draining; called from New when cfg.Capture is set.
func (m *Monitor) startCapture() *RecordCapture {
	c := &RecordCapture{
		m:     m,
		group: m.tapeGroup,
		recs:  make([][]Record, m.cfg.MaxThreads),
		stop:  make(chan struct{}),
	}
	for tid := 0; tid < m.cfg.MaxThreads; tid++ {
		c.done.Add(1)
		go c.drain(tid)
	}
	return c
}

func (c *RecordCapture) drain(tid int) {
	defer c.done.Done()
	var local []Record
	// Batched consumption: one cursor move per run of published records.
	// The tape owns the copies outright (the monitor disables the payload
	// arenas under capture), so consuming eagerly is safe. A copy carries
	// its slot's leftovers (see payloadBox): with n <= InlinePayload its
	// spill is an earlier record's payload — one this tape holds anyway —
	// and only Payload() says what the record carries. Rings are
	// created lazily by the variants; until thread tid makes its first
	// monitored call there is nothing to drain (and polling the atomic
	// pointer creates nothing).
	var batch [slaveBatch]Record
	take := func() bool {
		buf := c.m.rings[tid].Load()
		if buf == nil {
			return false
		}
		n := buf.TryConsumeBatch(c.group, batch[:])
		if n == 0 {
			return false
		}
		local = append(local, batch[:n]...)
		return true
	}
	for {
		if take() {
			continue
		}
		select {
		case <-c.stop:
			for take() {
			}
			c.mu.Lock()
			c.recs[tid] = local
			c.mu.Unlock()
			return
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// Stop ends the capture and returns the per-thread record streams. Call it
// only after the recorded session has finished.
func (c *RecordCapture) Stop() [][]Record {
	close(c.stop)
	c.done.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
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
