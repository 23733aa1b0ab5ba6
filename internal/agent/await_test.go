package agent

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/futex"
	"repro/internal/ring"
)

// awaitParked blocks until a thread is asleep on pk: announced (Waiters) and
// past its Prepare-window re-checks (a park counted since the caller read
// ring.ReadMetrics().Parks as since, before starting the waiter).
func awaitParked(t *testing.T, pk *futex.Parker, since uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); pk.Waiters() == 0 || ring.ReadMetrics().Parks == since; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("no thread parked on the wait set")
		}
	}
}

// withStopWatch arms ring's parking-contract watch with a capturing handler
// for one test.
func withStopWatch(t *testing.T, d time.Duration) *atomic.Int32 {
	t.Helper()
	prev := ring.SetDebugStopWatch(d)
	var fired atomic.Int32
	ring.SetStopViolationHandler(func(string) { fired.Add(1) })
	t.Cleanup(func() {
		ring.SetDebugStopWatch(prev)
		ring.SetStopViolationHandler(nil)
	})
	return &fired
}

// slaveWaits are the agents' waits, each reached by a slave thread the
// master has recorded nothing (or not enough) for. park prepares the wait
// for slave s and returns the thread whose Before will sleep, and the wait
// set it will sleep on.
var slaveWaits = []struct {
	name string
	kind Kind
	park func(ex Exchange, s Agent) (tid int, pk *futex.Parker)
}{
	{"toSlave.Before", TotalOrder, func(ex Exchange, _ Agent) (int, *futex.Parker) {
		return 0, ex.(*orderExchange).log.Parker()
	}},
	{"poSlave.Before", PartialOrder, func(ex Exchange, _ Agent) (int, *futex.Parker) {
		return 0, ex.(*orderExchange).log.Parker()
	}},
	{"wocSlave.Before/refill", WallOfClocks, func(ex Exchange, _ Agent) (int, *futex.Parker) {
		return 0, ex.(*wocExchange).buf(0).Parker()
	}},
	{"wocSlave.Before/batch wait", WallOfClocks, func(ex Exchange, s Agent) (int, *futex.Parker) {
		// The thread asks for a whole batch: Stop finds it in that wait, or
		// past its patience and asleep waiting for one ticket.
		s.(*wocSlave).threads[0].want = 8
		return 0, ex.(*wocExchange).buf(0).Parker()
	}},
	{"wocSlave.Before/wall", WallOfClocks, func(ex Exchange, _ Agent) (int, *futex.Parker) {
		// Threads 0 and 1 take the same clock's times 0 and 1; slave thread
		// 1, running alone, has its ticket and waits for the wall.
		m := ex.MasterAgent()
		for tid := 0; tid < 2; tid++ {
			m.Before(tid, 0x1000)
			m.After(tid, 0x1000)
		}
		return 1, &ex.(*wocExchange).wallParks[0]
	}},
}

// Stop reaches a thread asleep in every agent wait: it unwinds with
// ErrStopped, and the parking-contract watch — which since ring.Await covers
// these waits too — has nothing to report. The negative row sets the flag
// and wakes nobody: the watch must notice, and rescue the waiter.
func TestStopWakesEveryAgentWait(t *testing.T) {
	for _, w := range slaveWaits {
		for _, wake := range []bool{true, false} {
			name := w.name
			if !wake {
				name += "/flag-without-wake"
			}
			t.Run(name, func(t *testing.T) {
				// The compliant row's period is well above a loaded host's
				// scheduling hiccups; the violation row only has to expire.
				watch := 50 * time.Millisecond
				if !wake {
					watch = 10 * time.Millisecond
				}
				fired := withStopWatch(t, watch)
				ex := NewExchange(w.kind, Config{Slaves: 1, MaxThreads: 2, BufCap: 8, WallSize: 64})
				s := ex.SlaveAgent(0)
				tid, pk := w.park(ex, s)
				since := ring.ReadMetrics().Parks
				unwound := make(chan any, 1)
				go func() {
					defer func() { unwound <- recover() }()
					s.Before(tid, 0x9000)
				}()
				awaitParked(t, pk, since)
				if wake {
					ex.Stop()
				} else {
					switch ex := ex.(type) {
					case *orderExchange:
						ex.stop.stopped.Store(true)
					case *wocExchange:
						ex.stop.stopped.Store(true)
					}
				}
				select {
				case r := <-unwound:
					if r != ErrStopped {
						t.Fatalf("waiter recovered %v, want ErrStopped", r)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("waiter still asleep")
				}
				if pk.Waiters() != 0 {
					t.Fatalf("%d waiters left announced", pk.Waiters())
				}
				if wake {
					time.Sleep(2 * watch) // a watchdog already past expiry reports within its grace period
				}
				if got := fired.Load() != 0; got == wake {
					t.Fatalf("watch reported a violation: %v, Stop woke the waiters: %v", got, wake)
				}
			})
		}
	}
}

// A WoC wall wait that parks is a replication wait like the ring's own:
// mvee_ring_parks_total counts it, and the sibling's tick wakes it.
func TestWallWaitParkIsCounted(t *testing.T) {
	ex := NewExchange(WallOfClocks, Config{Slaves: 1, MaxThreads: 2, BufCap: 8, WallSize: 64})
	defer ex.Stop()
	s := ex.SlaveAgent(0)
	tid, pk := slaveWaits[len(slaveWaits)-1].park(ex, s)
	since := ring.ReadMetrics().Parks
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Before(tid, 0x9000)
		s.After(tid, 0x9000)
	}()
	awaitParked(t, pk, since) // fails at a tree whose agents park behind the counter's back
	s.Before(0, 0x9000)
	s.After(0, 0x9000)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sibling's tick did not wake the wall wait")
	}
}

// The regression the suite lacked: a refill that succeeded inside Await's
// Prepare window was once dropped — a 16-ticket batch — and nothing failed.
//
// The first half is exact. One WoC thread on one variable, BufCap 16; the
// slave's own wait (refill as Await's ready) runs on this goroutine, and the
// master's burst is recorded between the poll that opens the park protocol
// and the poll inside the Prepare window, so that poll is the one that
// consumes it. The second half is a session: a slave that now and then falls
// a whole ring behind, a master that records a burst only once the slave has
// announced itself a waiter, and a third thread waking the buffer's wait set
// without pause (legal: wakes may be spurious), so the waiting slave keeps
// going round the park protocol instead of sleeping and some refills land in
// the window by themselves. Either way the slave must replay every ticket
// exactly once: times 0, 1, 2, …
func TestWoCRefillInsidePrepareWindowKeepsEveryTicket(t *testing.T) {
	ex := NewExchange(WallOfClocks, Config{Slaves: 1, MaxThreads: 1, BufCap: 16, WallSize: 64})
	defer ex.Stop()
	m, s := ex.MasterAgent(), ex.SlaveAgent(0).(*wocSlave)
	pk := ex.(*wocExchange).buf(0).Parker()
	record := func(n int) {
		for ; n > 0; n-- {
			m.Before(0, 0x1000)
			m.After(0, 0x1000)
		}
	}
	var next atomic.Uint64 // the ticket the slave must replay next
	replay := func() error {
		s.Before(0, 0x9000)
		if got := s.threads[0].pre[s.threads[0].bi].Time; got != next.Load() {
			return fmt.Errorf("slave op %d replayed ticket %d", next.Load(), got)
		}
		s.After(0, 0x9000)
		next.Add(1)
		return nil
	}

	const windowPoll = 128 + 2 // ring's parkSpins polls, the protocol's first, then the window's
	polls, r := 0, s.refill(0)
	ex.(*wocExchange).stop.await(pk, func() bool {
		switch polls++; {
		case polls == windowPoll:
			if pk.Waiters() != 1 {
				t.Fatalf("poll %d is not inside the Prepare window", polls)
			}
			record(16)
		case polls > windowPoll:
			t.Fatal("refill was asked again after it consumed a batch")
		}
		return r.poll()
	})
	for i := 0; i < 16; i++ {
		if err := replay(); err != nil {
			t.Fatal(err)
		}
	}

	const total = 20000
	var quit atomic.Bool
	defer quit.Store(true)
	go func() {
		for !quit.Load() {
			pk.Wake()
		}
	}()
	go func() { // the master thread
		defer unwindStopped()
		rng := rand.New(rand.NewSource(19))
		for sent := 0; sent < total; {
			for spins := 0; pk.Waiters() == 0 && spins < 1e6; spins++ {
				runtime.Gosched()
			}
			burst := min(1+rng.Intn(24), total-sent)
			record(burst)
			sent += burst
		}
	}()
	errc := make(chan error, 1)
	go func() { // the slave thread
		defer unwindStopped()
		for i := 0; i < total; i++ {
			if err := replay(); err != nil {
				errc <- err
				return
			}
			if i%4096 == 4095 {
				time.Sleep(time.Millisecond) // lag: the master fills the ring and parks
			}
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("slave wedged at ticket %d: a consumed batch was lost", next.Load())
	}
}

// §3.3: agents may not allocate. A PO claim that has to look past another
// thread's unconsumed entry — every out-of-order claim — used to build a
// slice of the entries it skipped. The tape: threads 0 and 1 alternate on
// different variables, the slave replays thread 1's op first.
func TestPOOutOfOrderClaimDoesNotAllocate(t *testing.T) {
	ex := NewExchange(PartialOrder, Config{Slaves: 1, MaxThreads: 2, BufCap: 64})
	defer ex.Stop()
	m, s := ex.MasterAgent(), ex.SlaveAgent(0)
	op := func(a Agent, tid int) {
		a.Before(tid, 0x1000+uint64(tid)*0x40)
		a.After(tid, 0x1000+uint64(tid)*0x40)
	}
	round := func() {
		op(m, 0)
		op(m, 1)
		op(s, 1) // claims past thread 0's unconsumed entry
		op(s, 0)
	}
	for i := 0; i < 128; i++ { // two ring laps: the consumed-set map has grown
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("an out-of-order PO claim allocates %v/round", n)
	}
	if s.Stalls() != 0 {
		t.Fatalf("%d stalls on a tape with no dependences", s.Stalls())
	}
}
