package kernel

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Every sleep site asks one blocker what interrupts it, so every cause must
// unwind a thread parked at every site. Each row parks a thread, waits on
// the site's own evidence that it is asleep (never a time.Sleep), raises
// one cause from a sibling thread, and requires the call to return.

// spinUntil yields until cond holds, failing the test after 10 s.
func spinUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never happened", what)
		}
		runtime.Gosched()
	}
}

// waitCondParked waits until some goroutine is asleep in sync.Cond.Wait
// beneath the named function — the evidence for sites whose cond keeps no
// waiter count (accept, waitpid).
func waitCondParked(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	spinUntil(t, "a thread parked in "+fn, func() bool {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[sync.Cond.Wait") && strings.Contains(g, fn) {
				return true
			}
		}
		return false
	})
}

// waitSigParked waits until a thread of p is parked on its signal parker
// (nanosleep or an injected delay).
func waitSigParked(t *testing.T, p *Proc) {
	t.Helper()
	spinUntil(t, "a sleeper parked on the proc's parker", func() bool { return p.sigPark.Waiters() > 0 })
}

func waitPipeParked(t *testing.T, p *Proc, fd uint64) {
	t.Helper()
	spinUntil(t, "a thread parked on the pipe", func() bool { return p.PipeWaiters(int(fd)) > 0 })
}

// sleepSites: park issues the blocking call's setup and returns the call
// plus the wait for "a thread is asleep in it".
var sleepSites = []struct {
	name string
	park func(t *testing.T, k *Kernel, p *Proc) (Call, func())
}{
	{"pipe-read", func(t *testing.T, k *Kernel, p *Proc) (Call, func()) {
		pr := k.Do(p, Call{Nr: SysPipe2})
		return Call{Nr: SysRead, Args: [6]uint64{pr.Val, 16}}, func() { waitPipeParked(t, p, pr.Val) }
	}},
	{"pipe-write-full", func(t *testing.T, k *Kernel, p *Proc) (Call, func()) {
		pr := k.Do(p, Call{Nr: SysPipe2})
		k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{pr.Val2}, Data: make([]byte, pipeBufSize)})
		return Call{Nr: SysWrite, Args: [6]uint64{pr.Val2}, Data: []byte("x")}, func() { waitPipeParked(t, p, pr.Val2) }
	}},
	{"sendfile-full", func(t *testing.T, k *Kernel, p *Proc) (Call, func()) {
		src := mkFile(t, k, p, "/page", []byte("page"))
		pr := k.Do(p, Call{Nr: SysPipe2})
		k.Do(p, Call{Nr: SysWrite, Args: [6]uint64{pr.Val2}, Data: make([]byte, pipeBufSize)})
		return Call{Nr: SysSendfile, Args: [6]uint64{pr.Val2, src, 0, 4}}, func() { waitPipeParked(t, p, pr.Val2) }
	}},
	{"accept", func(t *testing.T, k *Kernel, p *Proc) (Call, func()) {
		lfd := k.Do(p, Call{Nr: SysSocket}).Val
		if r := k.Do(p, Call{Nr: SysListen, Args: [6]uint64{lfd, 80, 4}}); !r.Ok() {
			t.Fatalf("listen: %v", r.Err)
		}
		return Call{Nr: SysAccept, Args: [6]uint64{lfd}}, func() { waitCondParked(t, "(*listener).accept(") }
	}},
	{"waitpid", func(t *testing.T, k *Kernel, p *Proc) (Call, func()) {
		if r := k.Do(p, Call{Nr: SysFork}); !r.Ok() {
			t.Fatalf("fork: %v", r.Err)
		}
		return Call{Nr: SysWaitpid, Args: [6]uint64{WaitAny}}, func() { waitCondParked(t, "(*Kernel).doWaitpid(") }
	}},
	{"poll-untimed", func(t *testing.T, k *Kernel, p *Proc) (Call, func()) {
		return pollEmptyPipe(k, p, PollNoTimeout), func() { waitPollParked(t, k) }
	}},
	{"poll-timed", func(t *testing.T, k *Kernel, p *Proc) (Call, func()) {
		return pollEmptyPipe(k, p, uint64(time.Hour)), func() { waitPollParked(t, k) }
	}},
	{"nanosleep", func(t *testing.T, k *Kernel, p *Proc) (Call, func()) {
		return Call{Nr: SysNanosleep, Args: [6]uint64{uint64(time.Hour)}}, func() { waitSigParked(t, p) }
	}},
	// Injection must not create an uninterruptible window: a nanosleep
	// stretched by injected latency unwinds like the sleep itself.
	{"chaos-delay", func(t *testing.T, k *Kernel, p *Proc) (Call, func()) {
		k.SetInjector(injectOn(FaultSleep, FaultDecision{Delay: time.Hour}))
		return Call{Nr: SysNanosleep, Args: [6]uint64{uint64(time.Millisecond)}}, func() { waitSigParked(t, p) }
	}},
}

func pollEmptyPipe(k *Kernel, p *Proc, timeout uint64) Call {
	pr := k.Do(p, Call{Nr: SysPipe2})
	buf := make([]byte, PollFDSize)
	EncodePollFD(buf, 0, int(pr.Val), PollIn)
	return Call{Nr: SysPoll, Args: [6]uint64{1, timeout}, Data: buf}
}

// sleepCauses: raise ends the sleep from a sibling thread; eintr says the
// sleeper must see exactly EINTR (teardown closes objects instead, so each
// site reports what its object turned into).
var sleepCauses = []struct {
	name  string
	raise func(t *testing.T, k *Kernel, p *Proc)
	eintr bool
}{
	{"signal", func(t *testing.T, k *Kernel, p *Proc) {
		if r := k.Do(p, Call{Nr: SysKill, Args: [6]uint64{uint64(p.Vpid()), SIGTERM}}); !r.Ok() {
			t.Fatalf("kill: %v", r.Err)
		}
	}, true},
	{"exit-group", func(t *testing.T, k *Kernel, p *Proc) {
		k.Do(p, Call{Nr: SysExit})
	}, true},
	{"interrupt", func(t *testing.T, k *Kernel, p *Proc) { k.Interrupt() }, false},
}

func TestEverySleepSiteUnwinds(t *testing.T) {
	for _, site := range sleepSites {
		for _, cause := range sleepCauses {
			t.Run(site.name+"/"+cause.name, func(t *testing.T) {
				k := New()
				defer k.Interrupt() // frees the sleeper if the row fails
				p := newTestProc(k)
				// The sibling that raises the cause is a second thread of p.
				if r := k.Do(p, Call{Nr: SysClone}); !r.Ok() {
					t.Fatalf("clone: %v", r.Err)
				}
				call, parked := site.park(t, k, p)
				done := make(chan Ret, 1)
				go func() { done <- k.Do(p, call) }()
				parked()
				cause.raise(t, k, p)
				select {
				case r := <-done:
					if cause.eintr && r.Err != EINTR {
						t.Fatalf("sleeper returned %+v, want EINTR", r)
					}
					if site.name == "chaos-delay" && r.Inj&InjLatency == 0 {
						t.Fatalf("interrupted delay lost its injection marker (inj=%#x)", r.Inj)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("still asleep 5s after the cause was raised")
				}
			})
		}
	}
}
