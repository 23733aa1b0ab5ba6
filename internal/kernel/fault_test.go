package kernel

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// stubInjector lets kernel tests script fault decisions directly. (The
// real rate/seed machinery lives in internal/chaos, which imports this
// package — these tests exercise the kernel half of the seam.)
type stubInjector struct {
	decide func(FaultOp) (FaultDecision, bool)
}

func (s stubInjector) Decide(op FaultOp) (FaultDecision, bool) { return s.decide(op) }

// injectOn returns an injector that applies d to every op of the given
// kind.
func injectOn(kind FaultTarget, d FaultDecision) stubInjector {
	return stubInjector{decide: func(op FaultOp) (FaultDecision, bool) {
		if op.Kind != kind {
			return FaultDecision{}, false
		}
		return d, true
	}}
}

func TestInjectedErrorFailsCallWithoutExecuting(t *testing.T) {
	k := New()
	p := newTestProc(k)
	pr := k.Do(p, Call{Nr: SysPipe2})
	rfd, wfd := pr.Val, pr.Val2
	if w := k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{wfd}, Data: []byte("intact")}); !w.Ok() {
		t.Fatalf("write: %v", w.Err)
	}

	k.SetInjector(injectOn(FaultPipe, FaultDecision{Err: EIO}))
	r := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{rfd, 64}})
	if r.Err != EIO || r.Inj&InjError == 0 {
		t.Fatalf("injected read: err=%v inj=%#x, want EIO with InjError", r.Err, r.Inj)
	}

	// The failed call must not have consumed stream bytes: with injection
	// off, the data is still there.
	k.SetInjector(nil)
	r = k.Do(p, Call{Nr: SysRead, Args: [6]uint64{rfd, 64}})
	if !r.Ok() || string(r.Data) != "intact" || r.Inj != 0 {
		t.Fatalf("post-fault read: %+v, want the untouched payload and Inj=0", r)
	}
}

func TestInjectedShortReadsPreserveTheStream(t *testing.T) {
	k := New()
	p := newTestProc(k)
	pr := k.Do(p, Call{Nr: SysPipe2})
	rfd, wfd := pr.Val, pr.Val2
	payload := []byte("0123456789abcdef")
	k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{wfd}, Data: payload})
	k.Do(p, Call{Nr: SysClose, Args: [6]uint64{wfd}})

	k.SetInjector(injectOn(FaultPipe, FaultDecision{Short: true}))
	var got []byte
	for len(got) < len(payload) {
		r := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{rfd, uint64(len(payload))}})
		if !r.Ok() {
			t.Fatalf("read after %d bytes: %v", len(got), r.Err)
		}
		if r.Inj&InjShort == 0 {
			t.Fatalf("read was not marked short (inj=%#x)", r.Inj)
		}
		if int(r.Val) > (len(payload)+1)/2 {
			t.Fatalf("short read returned %d bytes of a %d-byte request", r.Val, len(payload))
		}
		got = append(got, r.Data...)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("reassembled %q, want %q — short reads must not lose or reorder bytes", got, payload)
	}
}

func TestInjectedShortWriteReportsTruncatedCount(t *testing.T) {
	k := New()
	p := newTestProc(k)
	pr := k.Do(p, Call{Nr: SysPipe2})
	rfd, wfd := pr.Val, pr.Val2

	k.SetInjector(injectOn(FaultPipe, FaultDecision{Short: true}))
	payload := []byte("0123456789")
	w := k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{wfd}, Data: payload})
	if !w.Ok() || w.Inj&InjShort == 0 {
		t.Fatalf("short write: %+v", w)
	}
	if w.Val == 0 || int(w.Val) > (len(payload)+1)/2 {
		t.Fatalf("short write wrote %d of %d bytes", w.Val, len(payload))
	}
	// Exactly the reported prefix reached the pipe.
	k.SetInjector(nil)
	r := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{rfd, 64}})
	if !bytes.Equal(r.Data, payload[:w.Val]) {
		t.Fatalf("pipe carries %q, want the written prefix %q", r.Data, payload[:w.Val])
	}
}

func TestInjectedTimeoutForcesPollExpiryAndEAGAIN(t *testing.T) {
	k := New()
	p := newTestProc(k)
	pr := k.Do(p, Call{Nr: SysPipe2})
	rfd, wfd := pr.Val, pr.Val2
	k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{wfd}, Data: []byte("ready")})

	// Poll: data is pending, but the forced timeout reports nothing ready.
	k.SetInjector(injectOn(FaultPoll, FaultDecision{Timeout: true}))
	rev, r := pollOne(k, p, rfd, PollIn, PollNoTimeout)
	if r.Val != 0 || rev != 0 || r.Inj&InjTimeout == 0 {
		t.Fatalf("forced poll timeout: ready=%d revents=%#x inj=%#x", r.Val, rev, r.Inj)
	}

	// Blocking read: the forced timeout surfaces as EAGAIN.
	k.SetInjector(injectOn(FaultPipe, FaultDecision{Timeout: true}))
	rd := k.Do(p, Call{Nr: SysRead, Args: [6]uint64{rfd, 64}})
	if rd.Err != EAGAIN || rd.Inj&InjTimeout == 0 {
		t.Fatalf("forced read timeout: err=%v inj=%#x, want EAGAIN", rd.Err, rd.Inj)
	}
}

func TestFilesAndPerVariantCallsAreNotInjectable(t *testing.T) {
	k := New()
	p := newTestProc(k)
	k.SetInjector(stubInjector{decide: func(FaultOp) (FaultDecision, bool) {
		return FaultDecision{Err: EIO}, true
	}})
	fd := k.Do(p, openCall("/f", OCreat|ORdwr)).Val
	if w := k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{fd}, Data: []byte("x")}); !w.Ok() || w.Inj != 0 {
		t.Fatalf("file write under always-fail injector: %+v (files must be exempt)", w)
	}
	if g := k.Do(p, Call{Nr: SysGetpid}); !g.Ok() || g.Inj != 0 {
		t.Fatalf("getpid under always-fail injector: %+v (non-I/O calls must be exempt)", g)
	}
}

// The satellite regression for PR 5's signal-boundary semantics: a
// Injected latency on I/O completes (with the fault marker) once the delay
// elapses — driven here entirely on virtual time.
func TestInjectedLatencyElapsesOnVirtualClock(t *testing.T) {
	k := New()
	vc := NewVirtualClock()
	k.SetClock(vc)
	p := newTestProc(k)
	pr := k.Do(p, Call{Nr: SysPipe2})
	rfd, wfd := pr.Val, pr.Val2
	k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{wfd}, Data: []byte("late")})

	k.SetInjector(injectOn(FaultPipe, FaultDecision{Delay: 50 * time.Millisecond}))
	done := make(chan Ret, 1)
	go func() {
		done <- k.Do(p, Call{Nr: SysRead, Args: [6]uint64{rfd, 64}})
	}()
	// Wait for the delay loop to ARM its virtual timer (not merely to
	// park): advancing before the timer exists would fire into the void.
	deadline := time.Now().Add(10 * time.Second)
	for vc.Timers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delayed read never armed its timer")
		}
		runtime.Gosched()
	}
	select {
	case r := <-done:
		t.Fatalf("read returned before the virtual delay elapsed: %+v", r)
	default:
	}
	vc.Advance(51 * time.Millisecond)
	select {
	case r := <-done:
		if !r.Ok() || string(r.Data) != "late" || r.Inj&InjLatency == 0 {
			t.Fatalf("delayed read: %+v, want the payload with InjLatency", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read still blocked after the virtual delay elapsed")
	}
}
