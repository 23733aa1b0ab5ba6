package ring

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Drain is a consumer like any other: it keeps a producer that laps the ring
// many times moving (a tape that polled on a timer capped it at a ring per
// interval), takes everything exactly once and in order — whole quarters
// while the log runs, the remainder once stopped — and ends when its owner
// sets the flag and interrupts the log, with the parking-contract watch
// armed and silent. Capacity 2 is the degenerate quarter: one entry.
func TestDrainTapesEverythingInOrder(t *testing.T) {
	prev := SetDebugStopWatch(time.Second)
	var fired atomic.Int32
	SetStopViolationHandler(func(string) { fired.Add(1) })
	defer func() {
		SetDebugStopWatch(prev)
		SetStopViolationHandler(nil)
	}()
	for _, capacity := range []int{2, 8, 64} {
		const total = 20003 // not a multiple of any quarter: the sweep has work
		l := NewLog[uint64](capacity, 2)
		var stop atomic.Bool
		tape := make(chan []uint64, 1)
		go func() { tape <- Drain(l, 1, &stop) }()
		go func() { // group 0: a live consumer beside the tape
			for seq := uint64(0); seq < total; seq++ {
				l.Get(seq)
				l.Advance(0, seq)
			}
		}()
		for i := uint64(0); i < total; i++ {
			l.Append(i)
		}
		// The tape may be asleep waiting for a quarter that will not fill.
		for deadline := time.Now().Add(10 * time.Second); l.Cursor(1) < total-uint64(capacity) || l.Cursor(0) < total; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("cap %d: tape at %d, consumer at %d of %d", capacity, l.Cursor(1), l.Cursor(0), total)
			}
		}
		stop.Store(true)
		l.Interrupt()
		select {
		case got := <-tape:
			if len(got) != total {
				t.Fatalf("cap %d: taped %d entries, want %d", capacity, len(got), total)
			}
			for i, v := range got {
				if v != uint64(i) {
					t.Fatalf("cap %d: tape[%d] = %d", capacity, i, v)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("cap %d: Drain did not return after stop", capacity)
		}
	}
	if fired.Load() != 0 {
		t.Fatal("parking-contract watch fired")
	}
}
