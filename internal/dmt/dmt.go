// Package dmt implements a token-passing deterministic multithreading
// (DMT) scheduler in the style of Kendo [32]: threads take turns holding a
// token; a thread may perform communicating operations only while holding
// the token, and passes it on once its quantum of *logical progress*
// (retired instructions, modelled as abstract cost units) is exhausted.
//
// The package exists to reproduce the paper's §2.1 argument for why DMT is
// the wrong tool for an MVEE over *diversified* variants: logical progress
// is measured in instructions, and diversity transformations (NOP
// insertion, substitution, inlining differences) change instruction
// counts. Each variant is then perfectly deterministic in isolation — but
// deterministic with a *different* schedule, so the variants still diverge
// from each other. The record/replay agents sidestep this by replaying one
// variant's (nondeterministic) order in the others instead of making each
// variant independently deterministic.
package dmt

import "sync"

// Scheduler serializes the communicating sections of a fixed set of
// threads with a deterministic round-robin token.
type Scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	holder  int // thread currently holding the token
	quantum uint64
	used    uint64
	live    []bool
	nlive   int
}

// New creates a scheduler for threads 0..threads-1 with the given quantum
// of cost units per turn. Thread 0 holds the token first.
func New(threads int, quantum uint64) *Scheduler {
	s := &Scheduler{quantum: quantum, live: make([]bool, threads), nlive: threads}
	for i := range s.live {
		s.live[i] = true
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Acquire blocks until tid holds the token. Communicating operations may
// only run between Acquire and the token passing on.
func (s *Scheduler) Acquire(tid int) {
	s.mu.Lock()
	for s.holder != tid {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Charge adds cost units of logical progress to the current holder and
// passes the token when the quantum is exhausted. cost models the retired
// instruction count of the code just executed — the quantity hardware
// performance counters measure in real DMT systems, and exactly what
// diversity perturbs.
func (s *Scheduler) Charge(tid int, cost uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.holder != tid {
		panic("dmt: Charge without token")
	}
	s.used += cost
	if s.used >= s.quantum {
		s.passLocked()
	}
}

// Yield passes the token voluntarily (e.g. before blocking).
func (s *Scheduler) Yield(tid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.holder == tid {
		s.passLocked()
	}
}

// Exit removes tid from the rotation, passing the token if it holds it.
func (s *Scheduler) Exit(tid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live[tid] = false
	s.nlive--
	if s.holder == tid && s.nlive > 0 {
		s.passLocked()
	}
}

func (s *Scheduler) passLocked() {
	s.used = 0
	if s.nlive == 0 {
		return
	}
	next := s.holder
	for {
		next = (next + 1) % len(s.live)
		if s.live[next] {
			break
		}
	}
	s.holder = next
	s.cond.Broadcast()
}
