package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/kernel"
	"repro/internal/ring"
)

// Failure-injection coverage: sessions must tear down cleanly no matter
// where a variant is parked when things go wrong.

// awaitParkedThread waits, for at most 10 s, until parked reports the
// evidence that a thread is asleep where the kill must reach it — so a kill
// test exercises the wake sweep, not an earlier syscall boundary.
func awaitParkedThread(t *testing.T, what string, parked func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !parked(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("no thread parked %s", what)
		}
	}
}

func TestProgramPanicIsCapturedNotFatal(t *testing.T) {
	prog := Program{Name: "panics", Main: func(th *Thread) {
		if th.Variant() == 0 {
			panic("boom")
		}
		// The other variant parks in a rendezvous that will never
		// complete; the kill must unwind it.
		th.Syscall(kernel.SysGetpid, [6]uint64{}, nil)
	}}
	res := runWithTimeout(t, Options{Variants: 2, Agent: agent.WallOfClocks}, prog)
	if res.Panic != "boom" {
		t.Fatalf("Panic = %v, want boom", res.Panic)
	}
}

func TestExternalKillUnblocksKernelWaiters(t *testing.T) {
	// A thread blocked in a pipe read with no writer is only freed by the
	// session kill interrupting the kernel.
	rfd := make(chan int, 1)
	prog := Program{Name: "stuck-in-kernel", Main: func(th *Thread) {
		p := th.Syscall(kernel.SysPipe2, [6]uint64{}, nil)
		rfd <- int(p.Val)
		th.Syscall(kernel.SysRead, [6]uint64{p.Val, 16}, nil) // blocks forever
	}}
	s := NewSession(Options{Variants: 1}, prog)
	done := make(chan *Result, 1)
	go func() { done <- s.Run() }()
	fd := <-rfd
	awaitParkedThread(t, "in the pipe read", func() bool { return s.vars[0].proc.PipeWaiters(fd) > 0 })
	s.Kill()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("kill did not unblock the kernel read")
	}
}

func TestExternalKillUnblocksFutexWaiters(t *testing.T) {
	word := make(chan *SyncVar, 1)
	prog := Program{Name: "stuck-in-futex", Main: func(th *Thread) {
		v := th.NewSyncVar()
		word <- v
		th.FutexWait(v, 0) // no waker exists
	}}
	s := NewSession(Options{Variants: 1}, prog)
	done := make(chan *Result, 1)
	go func() { done <- s.Run() }()
	v := <-word
	awaitParkedThread(t, "in the futex wait", func() bool { return s.vars[0].futex.Waiters(&v.word) > 0 })
	s.Kill()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("kill did not unblock the futex wait")
	}
}

func TestExternalKillUnblocksAgentWaiters(t *testing.T) {
	// A slave thread stalled at a sync-op ticket that the (diverged-away)
	// master never produces.
	prog := Program{Name: "stuck-in-agent", Main: func(th *Thread) {
		v := th.NewSyncVar()
		if th.Variant() == 1 {
			th.Store(v, 1) // master records nothing: slave stalls in Before
		}
	}}
	s := NewSession(Options{Variants: 2, Agent: agent.WallOfClocks}, prog)
	done := make(chan *Result, 1)
	since := ring.ReadMetrics().Parks
	go func() { done <- s.Run() }()
	// Two waits park: the slave's for its ticket, and the master's exit
	// rendezvous waiting for that slave.
	awaitParkedThread(t, "at the WoC ticket", func() bool {
		return s.vars[1].agent.Stalls() > 0 && ring.ReadMetrics().Parks-since >= 2
	})
	s.Kill()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("kill did not unblock the agent stall")
	}
}

func TestSmallSyncBufferBackpressure(t *testing.T) {
	// A sync buffer far smaller than the op count: the master must be
	// throttled by slave consumption, not crash or deadlock.
	prog := Program{Name: "backpressure", Main: func(th *Thread) {
		mu := newMutexForTest(th)
		n := 0
		hs := make([]*ThreadHandle, 2)
		for i := range hs {
			hs[i] = th.Spawn(func(tt *Thread) {
				for j := 0; j < 500; j++ {
					mu.lock(tt)
					n++
					mu.unlock(tt)
				}
			})
		}
		for _, h := range hs {
			h.Join()
		}
		fd := th.Syscall(kernel.SysOpen, [6]uint64{kernel.OCreat | kernel.OWronly}, []byte("/n")).Val
		th.Syscall(kernel.SysWrite, [6]uint64{fd}, []byte(fmt.Sprintf("%d", n)))
	}}
	for _, k := range allAgents() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			s := NewSession(Options{Variants: 2, Agent: k, SyncBufCap: 8, RingCap: 4}, prog)
			done := make(chan *Result, 1)
			go func() { done <- s.Run() }()
			var res *Result
			select {
			case res = <-done:
			case <-time.After(60 * time.Second):
				s.Kill()
				t.Fatal("backpressure deadlocked")
			}
			if res.Divergence != nil {
				t.Fatalf("divergence: %v", res.Divergence)
			}
			got, _ := s.Kernel().ReadFile("/n")
			if string(got) != "1000" {
				t.Fatalf("n = %q", got)
			}
		})
	}
}

func TestSpawnBeyondMaxThreadsPanicsCleanly(t *testing.T) {
	prog := Program{Name: "too-many-threads", Main: func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Spawn(func(tt *Thread) {}).Join()
		}
	}}
	res := runWithTimeout(t, Options{Variants: 1, MaxThreads: 4}, prog)
	if res.Panic == nil {
		t.Fatal("exceeding MaxThreads did not surface")
	}
}

func TestKillIsIdempotentFromResultSide(t *testing.T) {
	prog := Program{Name: "noop", Main: func(th *Thread) {}}
	s := NewSession(Options{Variants: 2, Agent: agent.WallOfClocks}, prog)
	res := s.Run()
	s.Kill() // after completion: must be harmless
	s.Kill()
	if res.Divergence != nil {
		t.Fatalf("divergence: %v", res.Divergence)
	}
}
