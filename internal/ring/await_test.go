package ring

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/futex"
)

// consumingReady is a ready that, like a claim or a TryConsumeBatch, must
// not be asked again once it has said yes: it reports true on its trueAt-th
// call (or, with trueAt 0, once flag is set) and counts every call, and
// every call after the first true.
type consumingReady struct {
	trueAt      int
	flag        atomic.Bool
	calls, late int
	done        bool
}

func (r *consumingReady) ready() bool {
	r.calls++
	if r.done {
		r.late++
		return true
	}
	r.done = r.calls == r.trueAt || r.flag.Load()
	return r.done
}

// Await's phases, by which call of ready first reports true. Single-threaded
// rows are exact: poll k is call k while k <= parkSpins, then every trip
// through the park protocol polls twice — at the loop top and again inside
// the Prepare window.
func TestAwaitReturnsWhenReadyFirstReportsTrue(t *testing.T) {
	for _, tc := range []struct {
		name   string
		trueAt int
	}{
		{"before the call", 1},
		{"busy spin", 2},
		{"pause phase", busySpins + 4},
		{"yield phase", pauseSpins + 4},
		{"last poll before the park protocol", parkSpins + 1},
		{"inside the Prepare window", parkSpins + 2}, // trap 1: Cancel-and-loop would ask again
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pk futex.Parker
			var stop atomic.Bool
			r := consumingReady{trueAt: tc.trueAt}
			before := ReadMetrics().Parks
			if !Await(&pk, &stop, r.ready) {
				t.Fatal("Await returned false with stop clear")
			}
			if r.calls != tc.trueAt || r.late != 0 {
				t.Fatalf("ready called %d times (%d after it first reported true), want %d (0)", r.calls, r.late, tc.trueAt)
			}
			if pk.Waiters() != 0 {
				t.Fatalf("%d waiters left announced", pk.Waiters())
			}
			if ReadMetrics().Parks != before {
				t.Fatal("a wait that never slept was counted as a park")
			}
		})
	}
}

// The rows that need a second thread: ready (or stop) flips only once the
// waiter is asleep, and whoever flips it wakes the set, as the contract says.
func TestAwaitParksUntilWokenOrStopped(t *testing.T) {
	for _, tc := range []struct {
		name        string
		flip        func(r *consumingReady, stop *atomic.Bool)
		want        bool
		wantPolls   int // ready calls after the park: loop top (+ Prepare window)
		stopAtEntry bool
	}{
		{name: "ready only after the park", want: true, wantPolls: 1,
			flip: func(r *consumingReady, _ *atomic.Bool) { r.flag.Store(true) }},
		{name: "stop after the park", want: false, wantPolls: 1,
			flip: func(_ *consumingReady, stop *atomic.Bool) { stop.Store(true) }},
		{name: "stop before the call", want: false, stopAtEntry: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pk futex.Parker
			var stop atomic.Bool
			stop.Store(tc.stopAtEntry)
			var r consumingReady
			since := ReadMetrics().Parks
			got := make(chan bool, 1)
			go func() { got <- Await(&pk, &stop, r.ready) }()
			if !tc.stopAtEntry {
				awaitParked(t, &pk, since)
				tc.flip(&r, &stop)
				pk.Wake()
			}
			select {
			case ok := <-got:
				if ok != tc.want {
					t.Fatalf("Await = %v, want %v", ok, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Await did not return")
			}
			wantCalls := 1 // ready is polled before stop, once
			if !tc.stopAtEntry {
				wantCalls = parkSpins + 2 + tc.wantPolls
			}
			if r.calls != wantCalls || r.late != 0 {
				t.Fatalf("ready called %d times (%d late), want %d (0)", r.calls, r.late, wantCalls)
			}
			if pk.Waiters() != 0 {
				t.Fatalf("%d waiters left announced", pk.Waiters())
			}
		})
	}
}

// On one P the thread being waited for can run only when the waiter yields:
// every phase of the schedule must give the processor away.
func TestAwaitMakesProgressOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var pk futex.Parker
	var turn atomic.Int32 // two threads hand a turn back and forth
	const rounds = 2000
	done := make(chan struct{})
	for side := int32(0); side < 2; side++ {
		go func() {
			for i := int32(0); i < rounds; i++ {
				Await(&pk, nil, func() bool { return turn.Load()&1 == side })
				turn.Add(1)
				pk.Wake()
			}
			done <- struct{}{}
		}()
	}
	for side := 0; side < 2; side++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("stuck at turn %d of %d", turn.Load(), 2*rounds)
		}
	}
}

// Await is the replication plane's hot wait (§3.3: agents may not allocate):
// neither a wait that is over within the spin phases nor one that parks may
// allocate. (The debug stop watch's timer does; it is a test facility.)
func TestAwaitDoesNotAllocate(t *testing.T) {
	t.Run("spins", func(t *testing.T) {
		var pk futex.Parker
		var stop atomic.Bool
		if n := testing.AllocsPerRun(100, func() {
			polls := 0
			Await(&pk, &stop, func() bool { polls++; return polls > pauseSpins+8 })
		}); n != 0 {
			t.Fatalf("a spinning wait allocates %v/op", n)
		}
	})
	t.Run("parks", func(t *testing.T) {
		var pk futex.Parker
		var stop, flag, quit atomic.Bool
		// The waker answers each park (and only a park) by making ready true.
		wakerDone := make(chan struct{})
		last := ReadMetrics().Parks
		go func() {
			defer close(wakerDone)
			for !quit.Load() {
				if p := ReadMetrics().Parks; p != last && pk.Waiters() != 0 {
					last = p
					flag.Store(true)
					pk.Wake()
				}
				runtime.Gosched()
			}
		}()
		const runs = 50
		before := ReadMetrics().Parks
		n := testing.AllocsPerRun(runs, func() {
			flag.Store(false)
			Await(&pk, &stop, flag.Load)
		})
		quit.Store(true)
		<-wakerDone
		if n != 0 {
			t.Fatalf("a parking wait allocates %v/op", n)
		}
		if d := ReadMetrics().Parks - before; d < runs+1 {
			t.Fatalf("%d parks over %d waits: the measured wait did not park", d, runs+1)
		}
	})
}
