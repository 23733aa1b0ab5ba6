package core

import (
	"testing"
	"time"

	"repro/internal/agent"
)

// A futex's value check and its wake are sync-word accesses like any CAS or
// Xchg, so a slave must make them at the master's position in the order.
// This program scripts the interleaving that wedged slaves while they were
// not ordered. Four threads share one futex mutex (0 free, 1 locked, 2
// locked with waiters). Host channels, acting in the master only, force:
//
//	H locks; A's Xchg(2) returns 1; H unlocks (its wake finds nobody);
//	D locks; A's FutexWait(2) sees 1 and returns; E's Xchg(2);
//	A's next Xchg, then D's unlock.
//
// The slave's A waits up to 200 ms for the slave's E to make its Xchg
// before A checks the word. An unordered check then sees 2 and sleeps,
// where only D's unlock can wake it, and that unlock is ordered after A's
// next Xchg: the slave wedges. An ordered check holds E's Xchg back until A
// has checked, so the bounded wait times out and A sees 1, as the master
// did.
func TestFutexCheckReplaysAtTheMastersPosition(t *testing.T) {
	for _, kind := range allAgents() {
		t.Run(kind.String(), func(t *testing.T) {
			runFutexInterleaving(t, kind)
		})
	}
}

func runFutexInterleaving(t *testing.T, kind agent.Kind) {
	killed := make(chan struct{})
	gate := func(ch chan struct{}) {
		select {
		case <-ch:
		case <-killed:
		case <-time.After(10 * time.Second):
		}
	}
	var (
		hLocked, aXchg, hUnlocked, dLocked = make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
		aChecked, eXchg, aXchg2            = make(chan struct{}), make(chan struct{}), make(chan struct{})
		slaveEXchg                         = make(chan struct{})
	)
	prog := Program{Name: "futex-interleaving", Main: func(th *Thread) {
		m := th.NewSyncVar()
		master := th.IsMaster()
		mark := func(ch chan struct{}) {
			if master {
				close(ch)
			}
		}
		await := func(ch chan struct{}) {
			if master {
				gate(ch)
			}
		}
		// lockFrom finishes Drepper's futex mutex acquire, given the value
		// the thread's first Xchg(2) returned.
		lockFrom := func(g *Thread, x uint32) {
			for x != 0 {
				g.FutexWait(m, 2)
				x = g.Xchg(m, 2)
			}
		}
		unlock := func(g *Thread) {
			if g.Xchg(m, 0) == 2 {
				g.FutexWake(m, 1)
			}
		}
		hs := []*ThreadHandle{
			th.Spawn(func(g *Thread) { // H
				if !g.CAS(m, 0, 1) {
					t.Errorf("variant %d: H could not take the free lock", g.Variant())
				}
				mark(hLocked)
				await(aXchg)
				unlock(g)
				mark(hUnlocked)
			}),
			th.Spawn(func(g *Thread) { // A
				await(hLocked)
				if x := g.Xchg(m, 2); x != 1 {
					t.Errorf("variant %d: A's Xchg returned %d, want 1", g.Variant(), x)
				}
				mark(aXchg)
				if master {
					gate(dLocked)
				} else {
					select {
					case <-slaveEXchg:
					case <-time.After(200 * time.Millisecond):
					}
				}
				g.FutexWait(m, 2) // the master's sees 1 and returns
				mark(aChecked)
				await(eXchg)
				x := g.Xchg(m, 2)
				mark(aXchg2)
				lockFrom(g, x)
				unlock(g)
			}),
			th.Spawn(func(g *Thread) { // D
				await(hUnlocked)
				if !g.CAS(m, 0, 1) {
					t.Errorf("variant %d: D could not take the lock H released", g.Variant())
				}
				mark(dLocked)
				await(aXchg2)
				unlock(g)
			}),
			th.Spawn(func(g *Thread) { // E
				await(aChecked)
				x := g.Xchg(m, 2)
				if !master {
					close(slaveEXchg)
				}
				mark(eXchg)
				lockFrom(g, x)
				unlock(g)
			}),
		}
		for _, h := range hs {
			h.Join()
		}
	}}

	s := NewSession(Options{Variants: 2, Agent: kind}, prog)
	done := make(chan *Result, 1)
	go func() { done <- s.Run() }()
	select {
	case res := <-done:
		if res.Divergence != nil || res.Panic != nil {
			t.Fatalf("diverged: %v, panic: %v", res.Divergence, res.Panic)
		}
	case <-time.After(10 * time.Second):
		close(killed)
		s.Kill()
		t.Errorf("the slave wedged: a futex check or wake ran outside the master's order")
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Kill did not unwind the wedged session")
		}
	}
}
