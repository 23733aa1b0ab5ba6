package ring

import (
	"sync"
	"sync/atomic"
)

// Table is one Log per thread, each created on its first Get: the per-thread
// buffers of the replication planes (the monitor's record rings and digest
// inboxes, the wall-of-clocks agent's sync buffers). Sessions sized for
// dozens of threads typically run a few, and eagerly allocating a log per
// thread dominates both construction and the collector's scanning.
//
// A recording table (NewRecordingTable) has one more consumer group than its
// live consumers, which a Drain tape per log empties until StopTape. A
// preloaded table (NewPreloadedTable) holds a recorded trace, one stream per
// thread, for one consumer group. Owners hold a Table by value, so Get costs
// the loads a slice of log pointers would.
type Table[T any] struct {
	logs   []atomic.Pointer[Log[T]]
	cap    int
	groups int
	stop   *atomic.Bool
	tape   *tape[T] // non-nil when recording
}

// tape is a recording table's shared state: the tapes' stop flag, and the
// stream each log's tape drained.
type tape[T any] struct {
	stopped atomic.Bool
	done    sync.WaitGroup
	streams [][]T // streams[tid] is written by thread tid's tape, read after done
}

// NewTable returns a table of up to threads logs of the given capacity, each
// with groups consumer groups (at least one) and stop as its SetStop flag.
func NewTable[T any](threads, capacity, groups int, stop *atomic.Bool) Table[T] {
	return Table[T]{
		logs:   make([]atomic.Pointer[Log[T]], threads),
		cap:    capacity,
		groups: max(groups, 1),
		stop:   stop,
	}
}

// NewRecordingTable returns a table whose logs have groups live consumer
// groups plus one, the last, that a tape drains into memory. The tape applies
// the back-pressure a slow live consumer would.
func NewRecordingTable[T any](threads, capacity, groups int, stop *atomic.Bool) Table[T] {
	t := NewTable[T](threads, capacity, groups+1, stop)
	t.tape = &tape[T]{streams: make([][]T, threads)}
	return t
}

// NewPreloadedTable returns a table whose log for thread tid holds
// streams[tid], for one consumer group. Each log is sized to the longer of
// capacity and the longest stream: a trace has no live producer to
// back-pressure, so its consumer must find it whole.
func NewPreloadedTable[T any](streams [][]T, threads, capacity int, stop *atomic.Bool) Table[T] {
	for _, s := range streams {
		capacity = max(capacity, len(s))
	}
	t := NewTable[T](threads, capacity, 1, stop)
	for tid, s := range streams[:min(len(streams), threads)] {
		t.Get(tid).AppendBatch(s)
	}
	return t
}

// Get returns thread tid's log, creating it on first use. The fast path is
// one atomic load; a creation race (a producer's first append against a
// consumer's first read of the same thread) is settled by one
// compare-and-swap, and the loser discards its candidate.
func (t *Table[T]) Get(tid int) *Log[T] {
	if l := t.logs[tid].Load(); l != nil {
		return l
	}
	return t.create(tid)
}

func (t *Table[T]) create(tid int) *Log[T] {
	l := NewLog[T](t.cap, t.groups)
	l.SetStop(t.stop)
	if !t.logs[tid].CompareAndSwap(nil, l) {
		return t.logs[tid].Load()
	}
	if tp, g := t.tape, t.groups-1; tp != nil {
		tp.done.Add(1)
		go func() {
			defer tp.done.Done()
			tp.streams[tid] = Drain(l, g, &tp.stopped)
		}()
	}
	return l
}

// Interrupt wakes every log created so far (Log.Interrupt): the owner's
// sweep once it has set the stop flag.
func (t *Table[T]) Interrupt() {
	for i := range t.logs {
		if l := t.logs[i].Load(); l != nil {
			l.Interrupt()
		}
	}
}

// StopTape ends a recording table's tapes and returns what each drained,
// indexed by thread; nil for a table that is not recording. Call it only
// once the producers are done.
func (t *Table[T]) StopTape() [][]T {
	if t.tape == nil {
		return nil
	}
	t.tape.stopped.Store(true)
	t.Interrupt()
	t.tape.done.Wait()
	return t.tape.streams
}
