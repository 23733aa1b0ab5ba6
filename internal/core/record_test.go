package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/kernel"
)

// Recording must not throttle what it records. The tapes of the sync buffers
// and of the record rings once polled every 2 ms, which capped a master thread
// at one sync buffer of tickets and one ring of records per poll: this shape —
// fluidanimate's, as benchmark/'s sync_fine runs it: two threads, 200 000
// spinlock ops with a little work between them, a syscall now and then — ran
// nine times slower recorded than not. They wait on the rings like any other
// consumer now (ring.Drain), so recording costs a third consumer's CPU: at
// most twice the unrecorded run (1.35–1.55 times, measured), the tape replays
// clean, and the tape goroutines — one per ring a thread actually created,
// not one per possible thread — end with the session.
func TestRecordingKeepsUpWithTheMaster(t *testing.T) {
	const (
		threads = 2
		pairs   = 50_000 // per thread: a lock and an unlock each
		nlocks  = 64
	)
	prog := Program{Name: "recorded-spinlocks", Main: func(th *Thread) {
		locks := make([]*SyncVar, nlocks)
		for i := range locks {
			locks[i] = th.NewSyncVar()
		}
		worker := func(t *Thread, w int) {
			x := uint32(2463534242)
			for u := 0; u < pairs; u++ {
				for i := 0; i < 100; i++ { // the unit's work: xorshift, some 0.2 µs
					x ^= x << 13
					x ^= x >> 17
					x ^= x << 5
				}
				l := locks[(w*pairs+u*7+int(x&1))%nlocks]
				for !t.CAS(l, 0, 1) {
					t.Yield()
				}
				t.Store(l, 0)
				if u%4096 == 0 {
					t.Syscall(kernel.SysGetpid, [6]uint64{}, nil)
				}
			}
		}
		h := th.Spawn(func(tt *Thread) { worker(tt, 1) })
		worker(th, 0)
		h.Join()
	}}
	run := func(o Options) (*Result, time.Duration) {
		t.Helper()
		o.Variants, o.Agent = 2, agent.WallOfClocks
		t0 := time.Now()
		res := runWithTimeout(t, o, prog)
		d := time.Since(t0)
		if res.Divergence != nil || res.Panic != nil {
			t.Fatalf("record=%v: diverged: %v, panic: %v", o.Record, res.Divergence, res.Panic)
		}
		if res.SyncOps < 2*threads*pairs {
			t.Fatalf("record=%v: %d sync ops, want at least %d", o.Record, res.SyncOps, 2*threads*pairs)
		}
		return res, d
	}
	// Best of three each, alternating: the comparison is of what the code can
	// do, not of what else the host was doing.
	var rec *Result
	plain, taped := time.Hour, time.Hour
	for i := 0; i < 3; i++ {
		_, d := run(Options{})
		plain = min(plain, d)
		rec, d = run(Options{Record: true})
		taped = min(taped, d)
	}
	t.Logf("unrecorded %v, recorded %v (%.2fx)", plain, taped, float64(taped)/float64(plain))
	if taped > 2*plain {
		t.Errorf("recording took %v, the unrecorded run %v: more than twice as long", taped, plain)
	}

	if got := uint64(rec.Trace.Ops()); got != rec.SyncOps {
		t.Errorf("tape holds %d tickets, the master recorded %d", got, rec.SyncOps)
	}
	rep := runWithTimeout(t, Options{Replay: rec.Trace}, prog)
	if rep.Divergence != nil || rep.Panic != nil {
		t.Fatalf("replay diverged: %v, panic: %v", rep.Divergence, rep.Panic)
	}
	if rep.SyncOps != rec.SyncOps {
		t.Errorf("replay ran %d sync ops, the recording %d", rep.SyncOps, rec.SyncOps)
	}

	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	if strings.Contains(string(stacks), "ring.Drain") {
		t.Errorf("a tape goroutine outlived its session:\n%s", stacks)
	}
}
