package ring

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/futex"
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

// awaitParked blocks until a thread is asleep on pk — announced (Waiters)
// and past its Prepare-window re-checks (a park counted since the caller read
// ReadMetrics().Parks as since, before starting the waiter).
func awaitParked(t *testing.T, pk *futex.Parker, since uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); pk.Waiters() == 0 || ReadMetrics().Parks == since; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("no thread parked on the wait set")
		}
	}
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

// A bad owner: installs SetStop, sets the flag, never Interrupts.
// The parked waiter would sleep forever (it cannot poll the flag);
// the debug watch must catch the contract violation, and its rescue wake
// must still unwind the waiter through ErrStopped.
func TestStopWithoutInterruptTripsDebugWatch(t *testing.T) {
	for _, w := range stopWaiters {
		t.Run(w.name, func(t *testing.T) {
			fired := withStopWatch(t, 10*time.Millisecond)
			l := NewLog[int](4, 1)
			var stop atomic.Bool
			l.SetStop(&stop)

			since := ReadMetrics().Parks
			unwound := make(chan any, 1)
			go func() {
				defer func() { unwound <- recover() }()
				w.wait(l) // the waiter spins, then parks
			}()
			// Let the waiter actually reach the park, then set stop WITHOUT
			// Interrupt — the mistake the contract forbids.
			awaitParked(t, &l.waitQ, since)
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
			const watch = 50 * time.Millisecond // well above a loaded host's scheduling hiccups
			fired := withStopWatch(t, watch)
			l := NewLog[int](4, 1)
			var stop atomic.Bool
			l.SetStop(&stop)

			since := ReadMetrics().Parks
			unwound := make(chan any, 1)
			go func() {
				defer func() { unwound <- recover() }()
				w.wait(l)
			}()
			awaitParked(t, &l.waitQ, since) // so the park under test carries a watchdog
			stop.Store(true)
			l.Interrupt() // the contract: wake parked waiters once the flag is set

			select {
			case r := <-unwound:
				if r != ErrStopped {
					t.Fatalf("waiter recovered %v, want ErrStopped", r)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("waiter did not unwind after Interrupt")
			}
			// A watchdog that fired during the handoff reports, if at all, one
			// watch period (expiry) plus one (grace) after the park began.
			time.Sleep(2 * watch)
			if fired.Load() != 0 {
				t.Fatal("false positive: a compliant owner tripped the stop watch")
			}
		})
	}
}
