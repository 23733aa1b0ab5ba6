package ring

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every thread's first Get is raced by several goroutines on a recording
// table: all of them must get the one log the table keeps, and that log's tape
// must be the only one, so StopTape returns each thread's appends whole and in
// order. A log that lost the creation race but was handed out anyway, or a
// tape started for it, shows up as a mismatch, a short stream or a data race.
func TestTableGetRaceYieldsOneLogAndOneTape(t *testing.T) {
	const threads, racers, k = 32, 8, 100
	var stop atomic.Bool
	tb := NewRecordingTable[int](threads, 8, 0, &stop)
	for tid := 0; tid < threads; tid++ {
		var got [racers]*Log[int]
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[r] = tb.Get(tid)
			}()
		}
		close(start)
		wg.Wait()
		for r := range got {
			if got[r] != got[0] || got[r] != tb.Get(tid) {
				t.Fatalf("thread %d: racer %d got log %p, racer 0 %p, the table holds %p", tid, r, got[r], got[0], tb.Get(tid))
			}
		}
		for i := 0; i < k; i++ { // k exceeds the capacity: the tape must keep draining
			got[i%racers].Append(tid*k + i)
		}
	}
	streams := tb.StopTape()
	if len(streams) != threads {
		t.Fatalf("StopTape returned %d streams, want %d", len(streams), threads)
	}
	for tid, s := range streams {
		if len(s) != k {
			t.Fatalf("thread %d: tape holds %d items, want %d", tid, len(s), k)
		}
		for i, v := range s {
			if v != tid*k+i {
				t.Fatalf("thread %d: tape item %d is %d, want %d", tid, i, v, tid*k+i)
			}
		}
	}
}

// A preloaded table holds streams longer than its nominal capacity, and its
// one consumer group finds every item published: replay never waits.
func TestTablePreloadedHoldsStreamsPastItsCapacity(t *testing.T) {
	streams := [][]int{{1, 2, 3}, nil, make([]int, 50)}
	for i := range streams[2] {
		streams[2][i] = 100 + i
	}
	var stop atomic.Bool
	done := make(chan Table[int], 1)
	go func() { done <- NewPreloadedTable(streams, 4, 4, &stop) }()
	var tb Table[int]
	select {
	case tb = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("preloading a stream longer than the capacity blocked")
	}
	for tid, s := range streams {
		l := tb.Get(tid)
		out := make([]int, len(s)+1)
		if n := l.TryConsumeBatch(0, out); n != len(s) {
			t.Fatalf("thread %d: %d items ready, want %d", tid, n, len(s))
		}
		for i, v := range s {
			if out[i] != v {
				t.Fatalf("thread %d: item %d is %d, want %d", tid, i, out[i], v)
			}
		}
	}
	if tb.StopTape() != nil {
		t.Fatal("StopTape on a preloaded table returned a recording")
	}
}

func TestTableStopTapeWithoutRecordingIsNil(t *testing.T) {
	var stop atomic.Bool
	tb := NewTable[int](2, 4, 1, &stop)
	tb.Get(0).Append(1)
	if got := tb.StopTape(); got != nil {
		t.Fatalf("StopTape on a live table returned %v", got)
	}
}
