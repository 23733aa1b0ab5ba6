package futex

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A process churning through sync addresses must not grow the table by
// one entry per address it ever waited on: once the waiters drain, no word
// has a waiter left, and TestTableWakeWithoutQueueIsAllocationFree shows
// the churn allocates nothing.
func TestTableRemovesDrainedQueues(t *testing.T) {
	var tbl Table
	words := make([]atomic.Uint32, 64)
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		for i := range words {
			w := &words[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				tbl.Wait(w, 0)
			}()
		}
		for i := range words {
			w := &words[i]
			waitFor(func() bool { return tbl.Waiters(w) == 1 })
		}
		for i := range words {
			tbl.WakeAll(&words[i])
		}
		wg.Wait()
		for i := range words {
			if n := tbl.Waiters(&words[i]); n != 0 {
				t.Fatalf("round %d: word %d has %d waiters after all drained, want 0", round, i, n)
			}
		}
	}
}

func TestTableValueChangedLeavesNoQueue(t *testing.T) {
	var tbl Table
	var w atomic.Uint32
	w.Store(7)
	if tbl.Wait(&w, 3) {
		t.Fatal("Wait slept although *w != val")
	}
	var n Waiter
	if tbl.Register(&w, 3, &n) || n.Queued() {
		t.Fatal("Register queued a waiter although *w != val")
	}
	if k := tbl.Waiters(&w); k != 0 {
		t.Fatalf("%d waiters after an EAGAIN wait, want 0", k)
	}
	if tbl.Wake(&w, 1) != 0 {
		t.Fatal("Wake released a phantom waiter")
	}
}

func TestTableInterruptAllDropsQueues(t *testing.T) {
	var tbl Table
	var w atomic.Uint32
	done := make(chan struct{})
	go func() {
		tbl.Wait(&w, 0)
		close(done)
	}()
	waitFor(func() bool { return tbl.Waiters(&w) == 1 })
	tbl.InterruptAll()
	<-done
	if k := tbl.Waiters(&w); k != 0 {
		t.Fatalf("%d waiters after InterruptAll, want 0", k)
	}
	// Future waits return immediately and leave nothing behind: Register
	// still reports "registered", with the waiter already released.
	if !tbl.Wait(&w, 0) {
		t.Fatal("post-interrupt Wait returned false")
	}
	var n Waiter
	if !tbl.Register(&w, 0, &n) || n.Queued() {
		t.Fatal("post-interrupt Register did not report a released registration")
	}
	n.Sleep()
	if k := tbl.Waiters(&w); k != 0 {
		t.Fatalf("%d waiters after post-interrupt waits, want 0", k)
	}
}

func TestParkerWakeBeforeParkDoesNotSleep(t *testing.T) {
	var p Parker
	g := p.Prepare()
	p.Wake() // lands between Prepare and Park
	done := make(chan struct{})
	go func() {
		p.Park(g) // must return immediately: a wake already happened
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Park slept through a Wake issued after Prepare")
	}
}

func TestParkerCancelBalancesWaiters(t *testing.T) {
	var p Parker
	p.Prepare()
	if p.Waiters() != 1 {
		t.Fatalf("Waiters = %d after Prepare, want 1", p.Waiters())
	}
	p.Cancel()
	if p.Waiters() != 0 {
		t.Fatalf("Waiters = %d after Cancel, want 0", p.Waiters())
	}
}

// The store-buffer race the eventcount exists to close: a producer storing
// a word and a consumer parking on it must never both "miss" — under the
// protocol (announce, re-check, park / store, wake) every published value
// is observed. Run with -race in CI.
func TestParkerNoLostWakeups(t *testing.T) {
	var p Parker
	var word atomic.Uint64
	const total = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		next := uint64(1)
		for next <= total {
			if word.Load() >= next {
				next++
				continue
			}
			g := p.Prepare()
			if word.Load() >= next {
				p.Cancel()
				continue
			}
			p.Park(g)
		}
	}()
	for v := uint64(1); v <= total; v++ {
		word.Store(v)
		p.Wake()
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("consumer missed a wakeup and parked forever")
	}
	if p.Waiters() != 0 {
		t.Fatalf("Waiters = %d after drain, want 0", p.Waiters())
	}
}

// Many parked waiters, one broadcast: everyone must come back.
func TestParkerBroadcast(t *testing.T) {
	var p Parker
	var flag atomic.Bool
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !flag.Load() {
				g := p.Prepare()
				if flag.Load() {
					p.Cancel()
					return
				}
				p.Park(g)
			}
		}()
	}
	// Let most of them actually park before the flag flips.
	waitFor(func() bool { return p.Waiters() >= n/2 })
	flag.Store(true)
	p.Wake()
	wg.Wait()
}

func TestParkerWakeIsAllocationFree(t *testing.T) {
	var p Parker
	if allocs := testing.AllocsPerRun(100, p.Wake); allocs != 0 {
		t.Fatalf("Wake with no waiters allocates %.1f/op, want 0", allocs)
	}
}

// The uncontended FUTEX_WAKE — value changed, nobody waiting — allocates
// nothing, and neither does a register/wake pair on a fresh word: the
// waiter node belongs to the caller, and a word has no state of its own.
func TestTableWakeWithoutQueueIsAllocationFree(t *testing.T) {
	var tbl Table
	var w atomic.Uint32
	if allocs := testing.AllocsPerRun(100, func() { tbl.Wake(&w, 1) }); allocs != 0 {
		t.Fatalf("waiterless Wake allocates %.1f/op, want 0", allocs)
	}
	words := make([]atomic.Uint32, 1000)
	var n Waiter
	churn := func() {
		for i := range words {
			if !tbl.Register(&words[i], 0, &n) || tbl.Wake(&words[i], 1) != 1 {
				t.Fatalf("word %d: register/wake did not pair", i)
			}
		}
	}
	if allocs := testing.AllocsPerRun(3, churn); allocs != 0 {
		t.Fatalf("register/wake over %d fresh words allocates %.1f, want 0", len(words), allocs)
	}
	for i := range words {
		if k := tbl.Waiters(&words[i]); k != 0 {
			t.Fatalf("word %d: %d waiters left after the churn, want 0", i, k)
		}
	}
}
