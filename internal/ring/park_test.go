package ring

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestLaggingConsumerParksThenWakes(t *testing.T) {
	l := NewLog[int](8, 1)
	since := ReadMetrics().Parks
	got := make(chan int, 1)
	go func() {
		got <- l.Get(3) // published only later: the consumer must park
	}()
	awaitParked(t, l.Parker(), since)
	for i := 0; i < 4; i++ {
		l.Append(10 + i)
	}
	select {
	case v := <-got:
		if v != 13 {
			t.Fatalf("Get(3) = %d, want 13", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked consumer was not woken by Append")
	}
	if n := l.Parker().Waiters(); n != 0 {
		t.Fatalf("%d waiters left after wake, want 0", n)
	}
}

func TestBackpressuredProducerParksThenWakes(t *testing.T) {
	l := NewLog[int](2, 1)
	l.Append(0)
	l.Append(1)
	since := ReadMetrics().Parks
	done := make(chan struct{})
	go func() {
		l.Append(2) // ring full: the producer must park on back-pressure
		close(done)
	}()
	awaitParked(t, l.Parker(), since)
	l.Advance(0, 0) // cursor advance must wake the parked producer
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parked producer was not woken by Advance")
	}
}

// A stopped log must unblock parked waiters once the owner calls
// Interrupt — the contract SetStop's doc comment spells out.
func TestInterruptUnblocksParkedWaiters(t *testing.T) {
	l := NewLog[int](2, 1)
	var stopped atomic.Bool
	l.SetStop(&stopped)
	l.Append(0)
	l.Append(1)
	since := ReadMetrics().Parks
	unwound := make(chan struct{})
	go func() {
		defer func() {
			if recover() == ErrStopped {
				close(unwound)
			}
		}()
		l.Append(2) // parks: ring full, nobody consuming
	}()
	awaitParked(t, l.Parker(), since)
	stopped.Store(true)
	l.Interrupt()
	select {
	case <-unwound:
	case <-time.After(5 * time.Second):
		t.Fatal("parked producer did not unwind after stop+Interrupt")
	}
}

// Park/wake stress with a deliberately lagging consumer group: the fast
// group keeps the producer moving, the lagging group sleeps between
// batches (so it parks and is repeatedly woken), and the producer parks on
// back-pressure whenever the laggard pins the ring. Everything must still
// be delivered exactly once, in order, to both groups. Run under -race in
// CI (the satellite's lagging-slave park/wake stress test).
func TestParkWakeStressLaggingConsumer(t *testing.T) {
	const total = 20000
	l := NewLog[int](64, 2)
	consume := func(g int, lag bool) <-chan error {
		errc := make(chan error, 1)
		go func() {
			var batch [16]int
			next := 0
			for next < total {
				// A consuming ready: Await must hand back the run it consumed,
				// whichever phase of the wait found it.
				var n int
				Await(l.Parker(), nil, func() bool {
					n = l.TryConsumeBatch(g, batch[:])
					return n > 0
				})
				for i := 0; i < n; i++ {
					if batch[i] != next {
						errc <- fmt.Errorf("group %d: got %d, want %d", g, batch[i], next)
						return
					}
					next++
				}
				if lag && next%512 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
			errc <- nil
		}()
		return errc
	}
	fast := consume(0, false)
	slow := consume(1, true)
	for i := 0; i < total; i++ {
		l.Append(i)
	}
	for _, c := range []<-chan error{fast, slow} {
		select {
		case err := <-c:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("consumer wedged: lost park/wake")
		}
	}
}

// TestBackoffFollowsGOMAXPROCS holds Backoff's re-sample: a process moved to
// one P must degrade to immediate yields — and recover — within the one wait
// that first reaches the yield phase, in either direction.
func TestBackoffFollowsGOMAXPROCS(t *testing.T) {
	wait := func() {
		for spins := 0; spins <= pauseSpins; spins++ {
			Backoff(spins)
		}
	}
	defer func(old int) {
		runtime.GOMAXPROCS(old)
		wait()
	}(runtime.GOMAXPROCS(1))
	wait()
	if multicore.Load() {
		t.Fatal("multicore still set one wait after GOMAXPROCS dropped to 1")
	}
	runtime.GOMAXPROCS(2)
	wait()
	if !multicore.Load() {
		t.Fatal("multicore still clear one wait after GOMAXPROCS rose to 2")
	}
}
