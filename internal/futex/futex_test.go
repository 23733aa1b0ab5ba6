package futex

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// waitFor yields until cond holds. The tests order themselves on the
// queues' observable state (Table.Waiters, Parker.Waiters), never on a
// sleep that only usually suffices.
func waitFor(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

func TestWaitReturnsFalseOnChangedValue(t *testing.T) {
	var tbl Table
	var w atomic.Uint32
	w.Store(5)
	if tbl.Wait(&w, 4) {
		t.Fatal("Wait slept although *w != val")
	}
}

func TestWaitWake(t *testing.T) {
	var tbl Table
	var w atomic.Uint32
	done := make(chan bool)
	go func() {
		done <- tbl.Wait(&w, 0)
	}()
	waitFor(func() bool { return tbl.Waiters(&w) == 1 })
	w.Store(1)
	if n := tbl.Wake(&w, 1); n != 1 {
		t.Fatalf("Wake released %d, want 1", n)
	}
	if !<-done {
		t.Fatal("waiter reported it did not sleep")
	}
}

func TestWakeWithoutWaiters(t *testing.T) {
	var tbl Table
	var w atomic.Uint32
	if n := tbl.Wake(&w, 10); n != 0 {
		t.Fatalf("Wake on empty queue released %d", n)
	}
}

func TestWakeN(t *testing.T) {
	var tbl Table
	var w atomic.Uint32
	const waiters = 5
	var woken sync.WaitGroup
	woken.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			tbl.Wait(&w, 0)
			woken.Done()
		}()
	}
	waitFor(func() bool { return tbl.Waiters(&w) == waiters })
	if n := tbl.Wake(&w, 2); n != 2 {
		t.Fatalf("Wake(2) released %d", n)
	}
	if n := tbl.WakeAll(&w); n != 3 {
		t.Fatalf("WakeAll released %d, want 3", n)
	}
	woken.Wait()
}

func TestDistinctWordsAreIndependent(t *testing.T) {
	var tbl Table
	var w1, w2 atomic.Uint32
	released := make(chan struct{})
	go func() {
		tbl.Wait(&w1, 0)
		close(released)
	}()
	waitFor(func() bool { return tbl.Waiters(&w1) == 1 })
	if n := tbl.Wake(&w2, 1); n != 0 {
		t.Fatalf("Wake on w2 released a waiter on w1")
	}
	// Wake dequeues the waiters it releases before it returns, so a waiter
	// still queued on w1 was not released.
	if n := tbl.Waiters(&w1); n != 1 {
		t.Fatalf("%d waiters left on w1 after a wake on w2, want 1", n)
	}
	tbl.Wake(&w1, 1)
	<-released
}

// Wake(w, 1) releases the oldest waiter. A mutex or semaphore that wakes
// one relies on it: with futex waits replayed in the master's order, the
// oldest waiter is the same thread in every variant.
func TestWakeOneReleasesInRegistrationOrder(t *testing.T) {
	var tbl Table
	var w atomic.Uint32
	const waiters = 4
	released := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			tbl.Wait(&w, 0)
			released <- i
		}()
		waitFor(func() bool { return tbl.Waiters(&w) == i+1 })
	}
	for i := 0; i < waiters; i++ {
		if n := tbl.Wake(&w, 1); n != 1 {
			t.Fatalf("Wake(1) released %d, want 1", n)
		}
		if got := <-released; got != i {
			t.Fatalf("wake %d released waiter %d, want %d (registration order)", i, got, i)
		}
	}
}

// A miniature mutex built on the futex, locking/unlocking under heavy
// contention — the canonical futex correctness exercise.
func TestFutexMutex(t *testing.T) {
	var tbl Table
	var word atomic.Uint32 // 0 free, 1 locked
	lock := func() {
		for {
			if word.CompareAndSwap(0, 1) {
				return
			}
			tbl.Wait(&word, 1)
		}
	}
	unlock := func() {
		word.Store(0)
		tbl.Wake(&word, 1)
	}

	var counter int
	var wg sync.WaitGroup
	const workers = 8
	const iters = 500
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				lock()
				counter++
				unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d (lost updates => futex broken)", counter, workers*iters)
	}
}
