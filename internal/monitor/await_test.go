package monitor

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/futex"
	"repro/internal/kernel"
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

// monitorWaits are the monitor's three waits. Each row names the policy that
// leads a lone getpid there, the variant that makes the call, and the wait
// set it sleeps on; prepare arranges for the wait never to be satisfied.
var monitorWaits = []struct {
	name    string
	policy  Policy
	variant int
	prepare func(m *Monitor)
	parker  func(m *Monitor) *futex.Parker
}{
	{"awaitDigests", PolicyStrictLockstep, 0, // the slave never arrives
		func(*Monitor) {},
		func(m *Monitor) *futex.Parker { return m.inbox(0, 0).Parker() }},
	{"nextRecord", PolicyStrictLockstep, 1, // the master never arrives
		func(*Monitor) {},
		func(m *Monitor) *futex.Parker { return m.ring(0).Parker() }},
	{"awaitTurn", PolicySecuritySensitive, 0, // ticket 0 is taken and never served
		func(m *Monitor) { m.tickets.Take() },
		func(m *Monitor) *futex.Parker { return &m.clockParks[0] }},
}

func newWaitMonitor(policy Policy) *Monitor {
	k := kernel.New()
	procs := []*kernel.Proc{
		k.NewProc(0x1000_0000, 0x7000_0000),
		k.NewProc(0x2000_0000, 0x7100_0000),
	}
	return New(k, procs, Config{MaxThreads: 2, RingCap: 8, Policy: policy})
}

// Kill reaches a thread asleep in every monitor wait: it unwinds with
// ErrKilled, and the parking-contract watch — which since ring.Await covers
// these waits too — has nothing to report. The negative row sets the flag
// and wakes nobody: the watch must notice, and rescue the waiter.
func TestKillWakesEveryMonitorWait(t *testing.T) {
	for _, w := range monitorWaits {
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
				prev := ring.SetDebugStopWatch(watch)
				var fired atomic.Int32
				ring.SetStopViolationHandler(func(string) { fired.Add(1) })
				defer func() {
					ring.SetDebugStopWatch(prev)
					ring.SetStopViolationHandler(nil)
				}()

				m := newWaitMonitor(w.policy)
				w.prepare(m)
				pk := w.parker(m)
				since := ring.ReadMetrics().Parks
				unwound := make(chan any, 1)
				go func() {
					defer func() { unwound <- recover() }()
					m.Invoke(w.variant, 0, kernel.Call{Nr: kernel.SysGetpid})
				}()
				awaitParked(t, pk, since)
				if wake {
					m.Kill(nil)
				} else {
					m.killed.Store(true)
				}
				select {
				case r := <-unwound:
					if r != ErrKilled {
						t.Fatalf("waiter recovered %v, want ErrKilled", r)
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
					t.Fatalf("watch reported a violation: %v, Kill woke the waiters: %v", got, wake)
				}
			})
		}
	}
}

// A ticket wait that parks is a replication wait like the ring's own:
// mvee_ring_parks_total counts it, and the passTurn that serves the ticket
// wakes it.
func TestTicketWaitParkIsCounted(t *testing.T) {
	w := monitorWaits[2]
	m := newWaitMonitor(w.policy)
	w.prepare(m)
	since := ring.ReadMetrics().Parks
	done := make(chan kernel.Ret, 1)
	go func() { done <- m.Invoke(0, 0, kernel.Call{Nr: kernel.SysGetpid}) }()
	awaitParked(t, w.parker(m), since) // fails at a tree whose monitor parks behind the counter's back
	m.passTurn(0)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("passTurn did not wake the ticket wait")
	}
}
