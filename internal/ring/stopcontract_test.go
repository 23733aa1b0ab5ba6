package ring

import (
	"sync/atomic"
	"testing"
	"time"
)

// withStopWatch arms the debug stop watch and a capturing violation
// handler for one test.
func withStopWatch(t *testing.T, d time.Duration) *atomic.Int32 {
	t.Helper()
	prev := SetDebugStopWatch(d)
	var fired atomic.Int32
	SetStopViolationHandler(func(string) { fired.Add(1) })
	t.Cleanup(func() {
		SetDebugStopWatch(prev)
		SetStopViolationHandler(nil)
	})
	return &fired
}

// stopWaiters are the two kinds of parked waiter the contract covers: a
// consumer in Get on an empty log, and a producer in ReserveN's slow path on
// a full one (the remembered cursor says full, the live cursors agree, the
// producer parks on back-pressure).
var stopWaiters = []struct {
	name string
	wait func(l *Log[int])
}{
	{"consumer-Get", func(l *Log[int]) { l.Get(0) }}, // nothing is ever published
	{"producer-ReserveN", func(l *Log[int]) {
		for seq := l.ReserveN(l.Cap()); seq < uint64(l.Cap()); seq++ {
			l.Commit(seq)
		}
		l.ReserveN(1) // nothing is ever consumed
	}},
}

// A bad owner: installs SetStop, flips the condition, never Interrupts.
// The parked waiter would sleep forever (it cannot poll the callback);
// the debug watch must catch the contract violation, and its rescue wake
// must still unwind the waiter through ErrStopped.
func TestStopWithoutInterruptTripsDebugWatch(t *testing.T) {
	for _, w := range stopWaiters {
		t.Run(w.name, func(t *testing.T) {
			fired := withStopWatch(t, 10*time.Millisecond)
			l := NewLog[int](4, 1)
			var stop atomic.Bool
			l.SetStop(stop.Load)

			unwound := make(chan any, 1)
			go func() {
				defer func() { unwound <- recover() }()
				w.wait(l) // the waiter spins, then parks
			}()
			// Let the waiter actually reach the park (a fixed sleep races the
			// pre-park spin when the scheduler is slow, e.g. under -race), then
			// flip stop WITHOUT Interrupt — the mistake the contract forbids.
			for l.waitQ.Waiters() == 0 {
				time.Sleep(time.Millisecond)
			}
			stop.Store(true)

			select {
			case r := <-unwound:
				if r != ErrStopped {
					t.Fatalf("waiter recovered %v, want ErrStopped", r)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("waiter still parked: the debug watch did not rescue it")
			}
			if fired.Load() == 0 {
				t.Fatal("contract violation not reported: SetStop without Interrupt went undetected")
			}
		})
	}
}

// A correct owner: Interrupt accompanies the stop flip (the monitor.Kill /
// exchange.Stop pattern). The waiter unwinds promptly and the watch stays
// silent.
func TestStopWithInterruptPassesDebugWatch(t *testing.T) {
	for _, w := range stopWaiters {
		t.Run(w.name, func(t *testing.T) {
			fired := withStopWatch(t, 50*time.Millisecond)
			l := NewLog[int](4, 1)
			var stop atomic.Bool
			l.SetStop(stop.Load)

			unwound := make(chan any, 1)
			go func() {
				defer func() { unwound <- recover() }()
				w.wait(l)
			}()
			time.Sleep(20 * time.Millisecond)
			stop.Store(true)
			l.Interrupt() // the contract: wake parked waiters when the condition flips

			select {
			case r := <-unwound:
				if r != ErrStopped {
					t.Fatalf("waiter recovered %v, want ErrStopped", r)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("waiter did not unwind after Interrupt")
			}
			// Give the (disarmed-by-unwind) watchdog window time to pass, then
			// assert no false positive.
			time.Sleep(80 * time.Millisecond)
			if fired.Load() != 0 {
				t.Fatal("false positive: a compliant owner tripped the stop watch")
			}
		})
	}
}
