package kernel

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/futex"
)

// A futex cell's proof is its waiter still being queued. A waiter a Wake
// has released, whose thread has not yet run FutexUnpark, is a wake in
// flight and keeps the board silent; a waiter still queued counts as
// asleep, so a board where it is the only live thread reports it.
func TestFutexCellProofIsTheQueuedWaiter(t *testing.T) {
	var tbl futex.Table
	var word atomic.Uint32
	fired := make(chan []BlockedSite, 1)
	b := NewBlockBoard(1, func(s []BlockedSite) { fired <- s })
	defer b.Close()
	b.ThreadStart(0)

	var fw futex.Waiter
	if !tbl.Register(&word, 0, &fw) || tbl.Wake(&word, 1) != 1 {
		t.Fatal("register/wake did not pair")
	}
	b.FutexPark(0, 0x40, &fw)
	b.mu.Lock()
	asleep := b.validateLocked()
	b.mu.Unlock()
	if asleep {
		t.Fatal("a released waiter's cell validated as asleep")
	}
	b.FutexUnpark(0)
	select {
	case s := <-fired:
		t.Fatalf("board reported %v for a released waiter", s)
	default:
	}

	if !tbl.Register(&word, 0, &fw) {
		t.Fatal("register failed on an unchanged word")
	}
	b.FutexPark(0, 0x40, &fw)
	select {
	case s := <-fired:
		if len(s) != 1 || s[0] != (BlockedSite{Tid: 0, Kind: BlockFutex, Addr: 0x40}) {
			t.Fatalf("board reported %v, want tid 0 asleep on futex 0x40", s)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a queued waiter's cell never validated as asleep")
	}
	tbl.InterruptAll()
	fw.Sleep()
}
