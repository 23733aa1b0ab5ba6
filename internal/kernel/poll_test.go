package kernel

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitPollParked spins until a goroutine has announced itself on the
// kernel's poll wait set — the condition the fixed time.Sleep calls in
// these tests used to approximate. Once Waiters is non-zero the poller is
// past its readiness re-check, so any subsequent state change's Wake is
// guaranteed to reach it (a Wake landing between Prepare and Park is
// absorbed by the parker protocol).
func waitPollParked(t *testing.T, k *Kernel) {
	t.Helper()
	spinUntil(t, "a poller parked", func() bool { return k.pollPark.Waiters() > 0 })
}

// pollOne runs SysPoll over a single descriptor and returns (revents, Ret).
func pollOne(k *Kernel, p *Proc, fd uint64, events uint16, timeout uint64) (uint16, Ret) {
	buf := make([]byte, PollFDSize)
	EncodePollFD(buf, 0, int(fd), events)
	r := k.Do(p, Call{Nr: SysPoll, Args: [6]uint64{1, timeout}, Data: buf})
	if !r.Ok() || len(r.Data) != PollFDSize {
		return 0, r
	}
	return DecodeRevents(r.Data, 0), r
}

func TestPollPipeReadiness(t *testing.T) {
	k := New()
	p := newTestProc(k)
	pr := k.Do(p, Call{Nr: SysPipe2})
	rfd, wfd := pr.Val, pr.Val2

	// Empty pipe, zero timeout: no events, immediate return.
	if rev, r := pollOne(k, p, rfd, PollIn, 0); r.Val != 0 || rev != 0 {
		t.Fatalf("empty pipe: ready=%d revents=%#x", r.Val, rev)
	}
	// Write end of an empty pipe is writable.
	if rev, r := pollOne(k, p, wfd, PollOut, 0); r.Val != 1 || rev&PollOut == 0 {
		t.Fatalf("write end: ready=%d revents=%#x", r.Val, rev)
	}
	// Data pending: readable.
	k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{wfd}, Data: []byte("x")})
	if rev, r := pollOne(k, p, rfd, PollIn, 0); r.Val != 1 || rev&PollIn == 0 {
		t.Fatalf("pending data: ready=%d revents=%#x", r.Val, rev)
	}
	// Drain, close the writer: EOF is readable (PollIn) and a hang-up.
	k.Do(p, Call{Nr: SysRead, Args: [6]uint64{rfd, 8}})
	k.Do(p, Call{Nr: SysClose, Args: [6]uint64{wfd}})
	rev, _ := pollOne(k, p, rfd, PollIn, 0)
	if rev&PollIn == 0 || rev&PollHup == 0 {
		t.Fatalf("EOF revents = %#x, want PollIn|PollHup", rev)
	}
}

func TestPollBlocksUntilWrite(t *testing.T) {
	k := New()
	p := newTestProc(k)
	pr := k.Do(p, Call{Nr: SysPipe2})
	rfd, wfd := pr.Val, pr.Val2
	got := make(chan uint16, 1)
	go func() {
		rev, _ := pollOne(k, p, rfd, PollIn, PollNoTimeout)
		got <- rev
	}()
	// The poller parks (no events yet); the write must wake it.
	waitPollParked(t, k)
	k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{wfd}, Data: []byte("wake")})
	select {
	case rev := <-got:
		if rev&PollIn == 0 {
			t.Fatalf("revents = %#x, want PollIn", rev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("poll never woke after write")
	}
}

// The timeout test runs on virtual time: the poll must block for exactly
// its 20ms window — no return before Advance crosses the deadline, a
// 0-events return right after — with no wall-clock sleeps or slack margins.
func TestPollTimeoutExpires(t *testing.T) {
	k := New()
	vc := NewVirtualClock()
	k.SetClock(vc)
	p := newTestProc(k)
	pr := k.Do(p, Call{Nr: SysPipe2})
	type res struct {
		rev uint16
		r   Ret
	}
	done := make(chan res, 1)
	go func() {
		rev, r := pollOne(k, p, pr.Val, PollIn, uint64(20*time.Millisecond))
		done <- res{rev, r}
	}()
	// doPoll arms its deadline timer before first parking, so a registered
	// timer means the poll is underway and Advance's wake cannot be lost.
	deadline := time.Now().Add(10 * time.Second)
	for vc.Timers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("poll never armed its timeout timer")
		}
		runtime.Gosched()
	}
	vc.Advance(19 * time.Millisecond)
	select {
	case got := <-done:
		t.Fatalf("poll returned at t=19ms of a 20ms timeout: %+v", got)
	case <-time.After(10 * time.Millisecond):
	}
	vc.Advance(time.Millisecond)
	select {
	case got := <-done:
		if got.r.Val != 0 || got.rev != 0 {
			t.Fatalf("timed-out poll reported events: ready=%d revents=%#x", got.r.Val, got.rev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("poll still parked after its virtual deadline passed")
	}
}

func TestPollListenerReadiness(t *testing.T) {
	k := New()
	p := newTestProc(k)
	sfd := k.Do(p, Call{Nr: SysSocket}).Val
	if r := k.Do(p, Call{Nr: SysListen, Args: [6]uint64{sfd, 8085, 16}}); !r.Ok() {
		t.Fatalf("listen: %v", r.Err)
	}
	if rev, r := pollOne(k, p, sfd, PollIn, 0); r.Val != 0 || rev != 0 {
		t.Fatalf("idle listener: ready=%d revents=%#x", r.Val, rev)
	}
	cc, errno := k.Connect(8085)
	if errno != OK {
		t.Fatalf("connect: %v", errno)
	}
	defer cc.Close()
	if rev, _ := pollOne(k, p, sfd, PollIn, 0); rev&PollIn == 0 {
		t.Fatalf("pending connection: revents=%#x, want PollIn", rev)
	}
	// Poll says the accept will not block; prove it.
	done := make(chan Ret, 1)
	go func() { done <- k.Do(p, Call{Nr: SysAccept, Args: [6]uint64{sfd}}) }()
	select {
	case acc := <-done:
		if !acc.Ok() {
			t.Fatalf("accept: %v", acc.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("accept blocked although poll reported PollIn")
	}
	k.CloseListener(8085)
	if rev, _ := pollOne(k, p, sfd, PollIn, 0); rev&PollHup == 0 {
		t.Fatalf("closed listener: revents=%#x, want PollHup", rev)
	}
}

func TestPollBadFDIsNval(t *testing.T) {
	k := New()
	p := newTestProc(k)
	rev, r := pollOne(k, p, 777, PollIn, PollNoTimeout)
	if r.Val != 1 || rev != PollNval {
		t.Fatalf("bad fd: ready=%d revents=%#x, want 1/PollNval (a dead fd must not park forever)", r.Val, rev)
	}
	// Malformed fd sets are rejected outright.
	if r := k.Do(p, Call{Nr: SysPoll, Args: [6]uint64{3, 0}, Data: make([]byte, 8)}); r.Err != EINVAL {
		t.Fatalf("nfds/payload mismatch: %v, want EINVAL", r.Err)
	}
}

func TestPollMultipleFDsReportsOnlyReady(t *testing.T) {
	k := New()
	p := newTestProc(k)
	p1 := k.Do(p, Call{Nr: SysPipe2})
	p2 := k.Do(p, Call{Nr: SysPipe2})
	k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{p2.Val2}, Data: []byte("y")})
	buf := make([]byte, 2*PollFDSize)
	EncodePollFD(buf, 0, int(p1.Val), PollIn)
	EncodePollFD(buf, 1, int(p2.Val), PollIn)
	r := k.Do(p, Call{Nr: SysPoll, Args: [6]uint64{2, 0}, Data: buf})
	if r.Val != 1 {
		t.Fatalf("ready = %d, want 1", r.Val)
	}
	if rev := DecodeRevents(r.Data, 0); rev != 0 {
		t.Fatalf("idle pipe revents = %#x", rev)
	}
	if rev := DecodeRevents(r.Data, 1); rev&PollIn == 0 {
		t.Fatalf("ready pipe revents = %#x", rev)
	}
	// The input payload must not have been mutated in place: under the
	// monitor it is the compared (and ring-resident) fd set.
	if rev := DecodeRevents(buf, 1); rev != 0 {
		t.Fatalf("poll wrote revents into the caller's buffer")
	}
}

func TestPollInterruptUnblocks(t *testing.T) {
	k := New()
	p := newTestProc(k)
	pr := k.Do(p, Call{Nr: SysPipe2})
	done := make(chan Ret, 1)
	go func() {
		buf := make([]byte, PollFDSize)
		EncodePollFD(buf, 0, int(pr.Val), PollIn)
		done <- k.Do(p, Call{Nr: SysPoll, Args: [6]uint64{1, PollNoTimeout}, Data: buf})
	}()
	waitPollParked(t, k)
	k.Interrupt()
	select {
	case <-done:
		// Either outcome is fine (events from the force-closed pipe, or
		// the stopped-kernel error); what matters is that it returned.
	case <-time.After(10 * time.Second):
		t.Fatal("poll still parked after Kernel.Interrupt")
	}
}

// A close must wake pollers even when it touches no pipe or listener: an
// unconnected socket() placeholder polls as nothing, so only the close's
// own wake can tell a parked poller the fd is now PollNval.
func TestPollWokenByPlaceholderClose(t *testing.T) {
	k := New()
	p := newTestProc(k)
	sfd := k.Do(p, Call{Nr: SysSocket}).Val
	got := make(chan uint16, 1)
	go func() {
		rev, _ := pollOne(k, p, sfd, PollIn, PollNoTimeout)
		got <- rev
	}()
	waitPollParked(t, k) // let the poller park on the idle placeholder
	if r := k.Do(p, Call{Nr: SysClose, Args: [6]uint64{sfd}}); !r.Ok() {
		t.Fatalf("close: %v", r.Err)
	}
	select {
	case rev := <-got:
		if rev != PollNval {
			t.Fatalf("revents = %#x, want PollNval", rev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("poller still parked after the fd was closed")
	}
}

// A write larger than the pipe capacity blocks mid-call; the bytes it
// buffered before sleeping must still reach a parked poller, or an
// evented server (whose poll wake is the only thing that drains the
// pipe) deadlocks against the writer.
func TestPollWokenByOversizedWriteInProgress(t *testing.T) {
	k := New()
	p := newTestProc(k)
	pr := k.Do(p, Call{Nr: SysPipe2})
	rfd, wfd := pr.Val, pr.Val2
	const total = 2*pipeBufSize + 512
	writerDone := make(chan Ret, 1)
	go func() {
		// Let the drain loop's first poll park on an empty pipe before
		// the oversized write starts filling it — the deadlock ordering:
		// the writer buffers a pipeful and sleeps mid-call, and only the
		// wake it issues before sleeping can reach the parked poller.
		// (Condition-wait, capped, non-fatal: a t.Fatal off the test
		// goroutine is illegal, and a missed park only loses the ordering
		// this test wants, which the assertions below would then catch.)
		for dl := time.Now().Add(10 * time.Second); k.pollPark.Waiters() == 0 && time.Now().Before(dl); {
			runtime.Gosched()
		}
		writerDone <- k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{wfd}, Data: make([]byte, total)})
	}()
	// The evented drain loop: poll (parking when nothing is pending),
	// then read what arrived.
	got := 0
	for got < total {
		rev, r := pollOne(k, p, rfd, PollIn, uint64(30*time.Second))
		if !r.Ok() || rev&PollIn == 0 {
			t.Fatalf("poll after %d/%d bytes: ready=%d revents=%#x err=%v (writer-poller deadlock)",
				got, total, r.Val, rev, r.Err)
		}
		rd := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{rfd, 8192}})
		if !rd.Ok() {
			t.Fatalf("read: %v", rd.Err)
		}
		got += int(rd.Val)
	}
	select {
	case w := <-writerDone:
		if !w.Ok() || int(w.Val) != total {
			t.Fatalf("write: %+v", w)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer still blocked after the pipe drained")
	}
}

// TestPollStress churns pollers, writers, and closers over pooled pipes
// and a listener concurrently — the race-detector workout for the poll
// wait set riding the pipes' state changes (run ×3 under -race in CI).
func TestPollStress(t *testing.T) {
	k := New()
	stop := startEchoServer(t, k, 86)
	defer stop()
	p := newTestProc(k)
	const pollers, rounds = 4, 60
	var wg sync.WaitGroup
	errs := make(chan error, pollers)
	for c := 0; c < pollers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 2*PollFDSize)
			for i := 0; i < rounds; i++ {
				pr := k.Do(p, Call{Nr: SysPipe2})
				if !pr.Ok() {
					errs <- fmt.Errorf("poller %d round %d: pipe2: %v", c, i, pr.Err)
					return
				}
				rfd, wfd := pr.Val, pr.Val2
				go func() {
					k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{wfd}, Data: []byte("z")})
					k.Do(p, Call{Nr: SysClose, Args: [6]uint64{wfd}})
				}()
				// No interest bits on wfd: only its Err/Hup can surface, so
				// the poll genuinely parks until the writer goroutine runs.
				EncodePollFD(buf, 0, int(rfd), PollIn)
				EncodePollFD(buf, 1, int(wfd), 0)
				r := k.Do(p, Call{Nr: SysPoll, Args: [6]uint64{2, PollNoTimeout}, Data: buf[:2*PollFDSize]})
				if !r.Ok() || r.Val == 0 {
					errs <- fmt.Errorf("poller %d round %d: poll ready=%d err=%v", c, i, r.Val, r.Err)
					return
				}
				k.Do(p, Call{Nr: SysRead, Args: [6]uint64{rfd, 8}})
				k.Do(p, Call{Nr: SysClose, Args: [6]uint64{rfd}})
				// Interleave served connections so listener wakeups and
				// pipe recycling churn under the pollers.
				cc, errno := k.Connect(86)
				if errno != OK {
					errs <- fmt.Errorf("poller %d round %d: connect: %v", c, i, errno)
					return
				}
				cc.Write([]byte("ping"))
				rb := make([]byte, 8)
				cc.Read(rb)
				cc.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A poll with a destination buffer (Call.Buf) writes its result there and
// returns Data aliasing Buf's prefix, as recv does; the input fd set stays
// untouched, and a Buf too short for the fd set is rejected with the other
// malformed arguments.
func TestPollIntoCallerBuffer(t *testing.T) {
	k := New()
	p := newTestProc(k)
	pr := k.Do(p, Call{Nr: SysPipe2})
	fds := make([]byte, 2*PollFDSize)
	EncodePollFD(fds, 0, int(pr.Val), PollIn)
	EncodePollFD(fds, 1, int(pr.Val2), PollOut)
	buf := make([]byte, 4*PollFDSize)
	r := k.Do(p, Call{Nr: SysPoll, Args: [6]uint64{2, 0}, Data: fds, Buf: buf})
	if !r.Ok() || r.Val != 1 || len(r.Data) != len(fds) || &r.Data[0] != &buf[0] {
		t.Fatalf("poll into Buf: %+v, want 1 ready and Data aliasing Buf", r)
	}
	if DecodeRevents(r.Data, 0) != 0 || DecodeRevents(r.Data, 1)&PollOut == 0 {
		t.Fatalf("revents %#x %#x", DecodeRevents(r.Data, 0), DecodeRevents(r.Data, 1))
	}
	if DecodeRevents(fds, 1) != 0 {
		t.Fatal("poll wrote revents into the input fd set")
	}
	short := Call{Nr: SysPoll, Args: [6]uint64{2, 0}, Data: fds, Buf: buf[:PollFDSize]}
	if r := k.Do(p, short); r.Err != EINVAL {
		t.Fatalf("short Buf: %v, want EINVAL", r.Err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		k.Do(p, Call{Nr: SysPoll, Args: [6]uint64{2, 0}, Data: fds, Buf: buf})
	})
	if allocs != 0 {
		t.Fatalf("poll into Buf allocates %.2f/op, want 0", allocs)
	}
}
