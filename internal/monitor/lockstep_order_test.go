package monitor

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/ring"
)

// The two orders of a lockstepped call (see enter): a pure call runs in the
// master while its slaves are still arriving and is validated afterwards;
// every other call is validated first. Each test below pins one interleaving
// at a small bound, by waiting on conditions — the master's ordering clock,
// its park on the digest inbox — never on time.

// lockstepWatch arms the parking-contract watch for one test, and a
// watchdog: a test still running after 10 s has its session killed, so every
// goroutine unwinds and the test fails instead of hanging.
func lockstepWatch(t *testing.T, m *Monitor) {
	t.Helper()
	prev := ring.SetDebugStopWatch(50 * time.Millisecond)
	var fired atomic.Bool
	dog := time.AfterFunc(10*time.Second, func() {
		fired.Store(true)
		m.Kill(nil)
	})
	t.Cleanup(func() {
		dog.Stop()
		ring.SetDebugStopWatch(prev)
		if fired.Load() {
			t.Error("watchdog: the interleaving never completed; the session was killed to unwind it")
		}
	})
}

// waitUntil polls cond; the watchdog's kill ends a wait that never succeeds.
func waitUntil(t *testing.T, m *Monitor, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		if m.Killed() {
			t.Fatalf("session killed while waiting until %s", what)
		}
		runtime.Gosched()
	}
}

// outcome is how one Invoke ended: with a result, or unwinding.
type outcome struct {
	ret      kernel.Ret
	panicked any
}

// invokeAsync runs variant v's thread 0 call on its own goroutine.
func invokeAsync(m *Monitor, v int, call kernel.Call) <-chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			o.panicked = recover()
			ch <- o
		}()
		o.ret = m.Invoke(v, 0, call)
	}()
	return ch
}

// inBoth makes the same call in the slave and the master of a 2-variant
// session and returns the master's result.
func inBoth(t *testing.T, m *Monitor, call kernel.Call) kernel.Ret {
	t.Helper()
	slave := invokeAsync(m, 1, call)
	master := <-invokeAsync(m, 0, call)
	if s := <-slave; master.panicked != nil || s.panicked != nil {
		t.Fatalf("%v: master %v, slave %v", call.Nr, master.panicked, s.panicked)
	}
	return master.ret
}

func preadCall(fd, off uint64) kernel.Call {
	return kernel.Call{Nr: kernel.SysPread, Args: [6]uint64{fd, 4, off}}
}

// A pure call executes, and passes its turn, before the slave has called;
// the file rewritten in between proves it: both variants get the bytes of
// the master's one execution, and the master's guest gets them only once the
// slave's digest arrived.
func TestPureCallRunsWhileSlavesArrive(t *testing.T) {
	m, k := newTestMonitor(t, 2)
	lockstepWatch(t, m)
	k.WriteFile("/f", []byte("old!"))
	fd := inBoth(t, m, openCall("/f", kernel.ORdonly)).Val
	served := m.clocks[0].Now()

	since := ring.ReadMetrics().Parks
	master := invokeAsync(m, 0, preadCall(fd, 0))
	waitUntil(t, m, "the master has executed its pread and passed the turn",
		func() bool { return m.clocks[0].Now() > served })
	awaitParked(t, m.inbox(0, 0).Parker(), since)
	if len(master) != 0 {
		t.Fatal("the master's pread returned before the slave's digest arrived")
	}
	k.WriteFile("/f", []byte("new!"))
	slave := invokeAsync(m, 1, preadCall(fd, 0))

	mo, so := <-master, <-slave
	if mo.panicked != nil || so.panicked != nil {
		t.Fatalf("master %v, slave %v, divergence %v", mo.panicked, so.panicked, m.Divergence())
	}
	if string(mo.ret.Data) != "old!" || string(so.ret.Data) != "old!" {
		t.Fatalf("master read %q, slave %q: want the bytes of the one execution, %q", mo.ret.Data, so.ret.Data, "old!")
	}
}

// An effectful call keeps validate → execute: the master waits in the
// rendezvous with the file untouched and its turn not yet taken.
func TestEffectfulCallWaitsForEveryDigest(t *testing.T) {
	m, k := newTestMonitor(t, 2)
	lockstepWatch(t, m)
	k.WriteFile("/f", []byte("old!"))
	fd := inBoth(t, m, openCall("/f", kernel.ORdwr)).Val
	served := m.clocks[0].Now()
	pwrite := kernel.Call{Nr: kernel.SysPwrite, Args: [6]uint64{fd, 0}, Data: []byte("new!")}

	since := ring.ReadMetrics().Parks
	master := invokeAsync(m, 0, pwrite)
	awaitParked(t, m.inbox(0, 0).Parker(), since)
	if got, _ := k.ReadFile("/f"); string(got) != "old!" || m.clocks[0].Now() != served {
		t.Fatalf("before the slave arrived: file %q, clock %d (was %d); want the pwrite not yet executed",
			got, m.clocks[0].Now(), served)
	}
	slave := invokeAsync(m, 1, pwrite)
	if mo, so := <-master, <-slave; mo.panicked != nil || so.panicked != nil {
		t.Fatalf("master %v, slave %v, divergence %v", mo.panicked, so.panicked, m.Divergence())
	}
	if got, _ := k.ReadFile("/f"); string(got) != "new!" {
		t.Fatalf("after both arrived: file %q, want %q", got, "new!")
	}
}

// The premise of the §5.4 timestamp channel, pinned without timing: the
// master reads the clock only after every variant has arrived, so time that
// passes while a slave is late shows in the reading both variants get.
func TestClockReadsWaitForEveryVariant(t *testing.T) {
	k := kernel.New()
	vc := kernel.NewVirtualClock()
	k.SetClock(vc)
	procs := []*kernel.Proc{k.NewProc(0x1000_0000, 0x7000_0000), k.NewProc(0x2000_0000, 0x7100_0000)}
	m := New(k, procs, Config{MaxThreads: 8, RingCap: 32})
	lockstepWatch(t, m)
	gettime := kernel.Call{Nr: kernel.SysGettimeofday}

	since := ring.ReadMetrics().Parks
	master := invokeAsync(m, 0, gettime)
	awaitParked(t, m.inbox(0, 0).Parker(), since)
	vc.Advance(time.Second)
	slave := invokeAsync(m, 1, gettime)

	mo, so := <-master, <-slave
	if mo.panicked != nil || so.panicked != nil {
		t.Fatalf("master %v, slave %v, divergence %v", mo.panicked, so.panicked, m.Divergence())
	}
	if mo.ret.Val < uint64(time.Second) || so.ret.Val != mo.ret.Val {
		t.Fatalf("master read %d ns, slave %d ns: want both at least 1 s, the time the slave was late",
			mo.ret.Val, so.ret.Val)
	}
}

// A pure call executed ahead of its validation releases nothing when the
// validation fails: the master's guest unwinds without the result, no record
// is committed, and both flight tails end before the call.
func TestPureCallDivergenceReleasesNothing(t *testing.T) {
	m, k := newTelemetryMonitor(t, 2)
	lockstepWatch(t, m)
	k.WriteFile("/f", []byte("secret"))
	fd := inBoth(t, m, openCall("/f", kernel.ORdonly)).Val
	served := m.clocks[0].Now()

	master := invokeAsync(m, 0, preadCall(fd, 0))
	waitUntil(t, m, "the master has executed its pread",
		func() bool { return m.clocks[0].Now() > served })
	slave := invokeAsync(m, 1, preadCall(fd, 2))

	mo, so := <-master, <-slave
	if mo.panicked != ErrKilled || mo.ret.Data != nil {
		t.Fatalf("master ended with %+v / %v, want an ErrKilled unwind and no result", mo.ret, mo.panicked)
	}
	if so.panicked != ErrKilled {
		t.Fatalf("slave recovered %v, want ErrKilled", so.panicked)
	}
	d := m.Divergence()
	if d == nil || d.Reason != "argument 2 mismatch" || d.Variant != 1 {
		t.Fatalf("divergence = %v, want variant 1's argument 2 mismatch", d)
	}
	if r := m.ring(0); r.Produced() != 1 || r.Ready(1) {
		t.Fatalf("%d records reserved, pread's ready %v: want only the open's", r.Produced(), r.Ready(1))
	}
	for v, tail := range m.FlightTail() {
		if n := len(tail); n == 0 || tail[n-1].Sysno != kernel.SysOpen {
			t.Fatalf("variant %d frozen tail = %v, want it to end at the open", v, tail)
		}
	}
}

// Under the relaxed policy a non-sensitive call is not lockstepped, so the
// slave's compare is its only check — and still catches a different call.
func TestRelaxedSlaveStillCatchesNrMismatch(t *testing.T) {
	k := kernel.New()
	procs := []*kernel.Proc{k.NewProc(0x1000_0000, 0x7000_0000), k.NewProc(0x2000_0000, 0x7100_0000)}
	m := New(k, procs, Config{MaxThreads: 8, RingCap: 32, Policy: PolicySecuritySensitive})
	lockstepWatch(t, m)
	if mo := <-invokeAsync(m, 0, kernel.Call{Nr: kernel.SysGetpid}); mo.panicked != nil {
		t.Fatalf("master getpid: %v", mo.panicked)
	}
	so := <-invokeAsync(m, 1, kernel.Call{Nr: kernel.SysStat, Data: []byte("/")})
	if so.panicked != ErrKilled {
		t.Fatalf("slave recovered %v, want ErrKilled", so.panicked)
	}
	if d := m.Divergence(); d == nil || d.Reason != "system call number mismatch" || d.Variant != 1 {
		t.Fatalf("divergence = %v, want variant 1's system call number mismatch", d)
	}
}

// pwriteTape captures a 2-variant session of pwrites with an inline, a
// full-inline and a spilled payload, and returns thread 0's tape and the
// program that made it.
func pwriteTape(t *testing.T) ([]Record, [][]byte, func(m *Monitor, v int)) {
	t.Helper()
	payloads := [][]byte{[]byte("small"), bytes.Repeat([]byte{'i'}, InlinePayload), bytes.Repeat([]byte("spill"), 50)}
	prog := func(m *Monitor, v int) {
		fd := m.Invoke(v, 0, openCall("/tape", kernel.OCreat|kernel.ORdwr)).Val
		for _, p := range payloads {
			m.Invoke(v, 0, kernel.Call{Nr: kernel.SysPwrite, Args: [6]uint64{fd, 0}, Data: p})
		}
	}
	k := kernel.New()
	procs := []*kernel.Proc{k.NewProc(0x1000_0000, 0x7000_0000), k.NewProc(0x2000_0000, 0x7100_0000)}
	m := New(k, procs, Config{MaxThreads: 8, RingCap: 32, Capture: true})
	lockstepWatch(t, m)
	done := make(chan struct{})
	go func() {
		defer close(done)
		prog(m, 1)
	}()
	prog(m, 0)
	<-done
	if d := m.Divergence(); d != nil {
		t.Fatalf("capture diverged: %v", d)
	}
	tape := m.StopCapture()
	if len(tape) == 0 || len(tape[0]) != 1+len(payloads) {
		t.Fatalf("captured %d streams, want thread 0's open and %d pwrites", len(tape), len(payloads))
	}
	return tape[0], payloads, prog
}

// Live records carry no input payload, but a tape's records still do: the
// tape is the one reader of a record's input.
func TestCapturedTapeCarriesPayloads(t *testing.T) {
	tape, payloads, _ := pwriteTape(t)
	if got := tape[0].Payload(); string(got) != "/tape" {
		t.Fatalf("open record payload = %q, want the path", got)
	}
	for i, want := range payloads {
		if got := tape[1+i].Payload(); !bytes.Equal(got, want) {
			t.Fatalf("pwrite %d record payload = %q, want %q", i, got, want)
		}
	}
}

// Replay is where a record's payload is checked: a tape whose pwrite payload
// was altered diverges, and the same tape unaltered does not.
func TestReplayedAlteredPayloadDiverges(t *testing.T) {
	tape, payloads, prog := pwriteTape(t)
	replay := func(tape []Record) *Divergence {
		k := kernel.New()
		m := New(k, []*kernel.Proc{k.NewProc(0x1000_0000, 0x7000_0000)},
			Config{MaxThreads: 8, Replay: [][]Record{tape}})
		lockstepWatch(t, m)
		func() {
			defer func() {
				if r := recover(); r != nil && r != ErrKilled {
					panic(r)
				}
			}()
			prog(m, 0)
		}()
		return m.Divergence()
	}
	if d := replay(tape); d != nil {
		t.Fatalf("the unaltered tape diverged on replay: %v", d)
	}
	for i := range payloads {
		altered := append([]Record(nil), tape...)
		p := append([]byte(nil), payloads[i]...)
		p[len(p)-1] ^= 1
		altered[1+i].SetPayload(p)
		d := replay(altered)
		if d == nil || d.Reason != "payload mismatch" || !strings.Contains(d.Master, "bytes") {
			t.Fatalf("pwrite %d with an altered payload replayed to %v, want a payload mismatch", i, d)
		}
	}
}
