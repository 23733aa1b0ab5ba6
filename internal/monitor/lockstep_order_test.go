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
// master, and its record reaches the slaves, while they are still arriving,
// and each variant's guest takes the result only once its own call was
// checked against the master's; every other call is validated first. Each
// test below pins one interleaving at a small bound, by waiting on
// conditions — the master's ordering clock, its park on a digest inbox, a
// slave's return — never on time.

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

// inAll makes the same call in every variant of the session and returns the
// master's result.
func inAll(t *testing.T, m *Monitor, call kernel.Call) kernel.Ret {
	t.Helper()
	slaves := make([]<-chan outcome, m.Variants()-1)
	for i := range slaves {
		slaves[i] = invokeAsync(m, i+1, call)
	}
	master := <-invokeAsync(m, 0, call)
	for i, s := range slaves {
		if so := <-s; master.panicked != nil || so.panicked != nil {
			t.Fatalf("%v: master %v, slave %d %v", call.Nr, master.panicked, i+1, so.panicked)
		}
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
	fd := inAll(t, m, openCall("/f", kernel.ORdonly)).Val
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

// A pure call's record reaches the slaves when the master executes it: with
// the slave not yet called, the master waits for its digest with the pread's
// record already committed, and its own guest still without the result.
func TestPureCallRecordReachesSlavesBeforeValidation(t *testing.T) {
	m, k := newTestMonitor(t, 2)
	lockstepWatch(t, m)
	k.WriteFile("/f", []byte("data"))
	fd := inAll(t, m, openCall("/f", kernel.ORdonly)).Val
	r := m.ring(0)
	seq := r.Produced()

	since := ring.ReadMetrics().Parks
	master := invokeAsync(m, 0, preadCall(fd, 0))
	awaitParked(t, m.inbox(0, 0).Parker(), since)
	if !r.Ready(seq) {
		t.Fatal("the master waits for the slave's digest with the pread's record not yet committed")
	}
	if rec := r.Slot(seq); rec.Nr != kernel.SysPread || string(rec.Ret.Data) != "data" {
		t.Fatalf("committed record = %s with %q, want the pread's with %q", renderRecord(rec), rec.Ret.Data, "data")
	}
	if len(master) != 0 {
		t.Fatal("the master's pread returned before the slave's digest arrived")
	}
	slave := invokeAsync(m, 1, preadCall(fd, 0))
	mo, so := <-master, <-slave
	if mo.panicked != nil || so.panicked != nil {
		t.Fatalf("master %v, slave %v, divergence %v", mo.panicked, so.panicked, m.Divergence())
	}
	if string(mo.ret.Data) != "data" || string(so.ret.Data) != "data" {
		t.Fatalf("master read %q, slave %q, want %q", mo.ret.Data, so.ret.Data, "data")
	}
}

// An effectful call keeps validate → execute: the master waits in the
// rendezvous with the file untouched and its turn not yet taken.
func TestEffectfulCallWaitsForEveryDigest(t *testing.T) {
	m, k := newTestMonitor(t, 2)
	lockstepWatch(t, m)
	k.WriteFile("/f", []byte("old!"))
	fd := inAll(t, m, openCall("/f", kernel.ORdwr)).Val
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

// A pure call whose check fails releases its result to no guest whose call
// differs. The master places the record before it has seen the digests, so
// the record is committed (a tape of the session ends with it), but the
// master's guest unwinds without the result and a diverging slave unwinds
// through its own check of the record. With three variants, a slave that
// matched takes the result before its sibling arrives; it cannot cause an
// effect with it, because every effectful call waits for all slaves and the
// sibling's divergence kills the session first. Every row starts with a
// matching stat of a path longer than InlinePayload, so the slave's check of
// a spilled path passes where it should, too.
func TestPureCallDivergenceReleasesNothing(t *testing.T) {
	long := "/" + strings.Repeat("l", 2*InlinePayload)
	stat := func(path string) func(uint64) kernel.Call {
		return func(uint64) kernel.Call { return kernel.Call{Nr: kernel.SysStat, Data: []byte(path)} }
	}
	pread := func(off uint64) func(uint64) kernel.Call {
		return func(fd uint64) kernel.Call { return preadCall(fd, off) }
	}
	type call = func(fd uint64) kernel.Call
	rows := []struct {
		name   string
		master call
		slaves []call // slave v makes slaves[v-1]; the last one diverges
		reason string
	}{
		{"pread-offset", pread(0), []call{pread(2)}, "argument 2 mismatch"},
		{"stat-inline-path", stat("/f"), []call{stat("/g")}, "payload mismatch"},
		{"stat-spilled-path", stat(long), []call{stat(long[:len(long)-1] + "m")}, "payload mismatch"},
		{"3-variants", pread(0), []call{pread(0), pread(2)}, "argument 2 mismatch"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m, k := newTelemetryMonitor(t, 1+len(row.slaves))
			lockstepWatch(t, m)
			k.WriteFile("/f", []byte("secret"))
			k.WriteFile(long, []byte("secret"))
			inAll(t, m, stat(long)(0))
			fd := inAll(t, m, openCall("/f", kernel.ORdonly)).Val
			r := m.ring(0)
			seq := r.Produced()

			since := ring.ReadMetrics().Parks
			master := invokeAsync(m, 0, row.master(fd))
			awaitParked(t, m.inbox(0, 0).Parker(), since)
			diverger := len(row.slaves)
			for v := 1; v < diverger; v++ {
				// Only the 3-variant row has a matching slave; it preads.
				if so := <-invokeAsync(m, v, row.slaves[v-1](fd)); so.panicked != nil || string(so.ret.Data) != "secr" {
					t.Fatalf("matching slave %d ended with %q / %v, want the master's bytes", v, so.ret.Data, so.panicked)
				}
				if len(master) != 0 {
					t.Fatalf("the master's guest got its result with slave %d still to arrive", v+1)
				}
			}
			so := <-invokeAsync(m, diverger, row.slaves[diverger-1](fd))
			mo := <-master

			if mo.panicked != ErrKilled || mo.ret.Data != nil || mo.ret.Val != 0 {
				t.Fatalf("master ended with %+v / %v, want an ErrKilled unwind and no result", mo.ret, mo.panicked)
			}
			if so.panicked != ErrKilled {
				t.Fatalf("diverging slave recovered %v, want ErrKilled", so.panicked)
			}
			if d := m.Divergence(); d == nil || d.Reason != row.reason || d.Variant != diverger {
				t.Fatalf("divergence = %v, want variant %d's %s", d, diverger, row.reason)
			}
			if r.Produced() != seq+1 || !r.Ready(seq) {
				t.Fatalf("%d records reserved, the pure call's ready %v: want it committed", r.Produced(), r.Ready(seq))
			}
			for v, tail := range m.FlightTail() {
				want := kernel.SysOpen
				if v != 0 && v != diverger {
					want = kernel.SysPread // a matching slave took the result
				}
				if n := len(tail); n == 0 || tail[n-1].Sysno != want {
					t.Fatalf("variant %d frozen tail = %v, want it to end at the %v", v, tail, want)
				}
			}
		})
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
