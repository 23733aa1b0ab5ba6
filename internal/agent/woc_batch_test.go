package agent

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/ring"
)

// Tests for the batch wait of a dry WoC slave thread (woc.go, wocRefill;
// DESIGN §4, "Tickets travel by the batch"). The master is scripted: one
// thread, one variable, so ticket times are 0, 1, 2, … and "every ticket
// exactly once, in order" is a comparison with a counter.

// wocPair is one master thread and the slave thread replaying it.
type wocPair struct {
	ex   *wocExchange
	m    Agent
	s    *wocSlave
	t    *wocSlaveThread
	next uint64 // the ticket the slave must replay next
}

func newWoCPair(bufCap int) *wocPair {
	ex := newWoCExchange(Config{Slaves: 1, MaxThreads: 1, BufCap: bufCap, WallSize: 64})
	s := ex.SlaveAgent(0).(*wocSlave)
	return &wocPair{ex: ex, m: ex.MasterAgent(), s: s, t: &s.threads[0]}
}

func (p *wocPair) record(n int) {
	for ; n > 0; n-- {
		p.m.Before(0, 0x1000)
		p.m.After(0, 0x1000)
	}
}

// replay runs n slave sync ops and checks each took the next ticket.
func (p *wocPair) replay(n int) error {
	for ; n > 0; n-- {
		p.s.Before(0, 0x9000)
		if got := p.t.pre[p.t.bi].Time; got != p.next {
			return fmt.Errorf("slave op %d replayed ticket %d", p.next, got)
		}
		p.s.After(0, 0x9000)
		p.next++
	}
	return nil
}

// unwindStopped lets a goroutine blocked in an agent call end with the test.
func unwindStopped() {
	if r := recover(); r != nil && r != ErrStopped {
		panic(r)
	}
}

// Trap 1: never park wanting more than one. The master records 3 tickets and
// stops for good while the thread wants 16: the wait for the 16th runs out,
// the thread takes the 3, and its next Before goes to sleep on the buffer's
// wait set waiting for ONE ticket — so a 4th append wakes it, and it takes
// that one. A refill whose predicate were still "want tickets" inside Await's
// Prepare window would sleep through the 4th append (and through a 3-ticket
// burst followed by a rendezvous, for ever); this test hangs on it.
func TestWoCBatchWaitNeverParksWantingMore(t *testing.T) {
	fired := withStopWatch(t, 50*time.Millisecond)
	p := newWoCPair(64)
	defer p.ex.Stop()
	p.t.want = wocBatch
	p.record(3)
	pk := p.ex.buf(0).Parker()
	since := ring.ReadMetrics().Parks
	step := make(chan error)
	go func() {
		defer unwindStopped()
		step <- p.replay(3)
		step <- p.replay(1)
	}()
	await := func(what string) {
		t.Helper()
		select {
		case err := <-step:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: slave thread stuck (want %d, %d waiters)", what, p.t.want, pk.Waiters())
		}
	}
	await("3 tickets recorded, 16 wanted")
	if p.t.expired != 1 || p.t.want != 3 {
		t.Fatalf("after the wait ran out: expired %d, want %d; expected 1 and 3 (what was found)", p.t.expired, p.t.want)
	}
	awaitParked(t, pk, since) // dry again, wanting 3: out of patience, then asleep waiting for one
	p.record(1)
	await("a 4th ticket recorded while the thread slept")
	if fired.Load() != 0 {
		t.Fatal("parking-contract watch fired")
	}
}

// Stop reaches a thread in the middle of its patience, exactly: the poll
// seam sets the flag on the fifth poll of a wait for 8 tickets.
func TestStopDuringBatchWaitPatience(t *testing.T) {
	p := newWoCPair(64)
	p.t.want = 8
	p.record(2)
	pk := p.ex.buf(0).Parker()
	defer func() {
		if r := recover(); r != ErrStopped {
			t.Fatalf("recovered %v, want ErrStopped", r)
		}
		if pk.Waiters() != 0 {
			t.Fatalf("%d waiters left announced", pk.Waiters())
		}
		if p.t.bn != 0 {
			t.Fatal("the stopped wait consumed tickets")
		}
	}()
	polls, r := 0, p.s.refill(0)
	p.ex.stop.await(pk, func() bool {
		if polls++; polls == 5 {
			p.ex.Stop()
		}
		return r.poll()
	})
	t.Fatal("wait returned on a stopped exchange")
}

// Trap 2: a request never exceeds the buffer. BufCap 2, 4 and 8 (wocBatch is
// 16) under a master that lags — one ticket, then nothing until the slave is
// seen waiting — and one that bursts past the ring and is back-pressured:
// every ticket is replayed exactly once, in order. CI runs this under -race.
func TestWoCBatchWaitSmallBuffers(t *testing.T) {
	const total = 20000
	for _, bufCap := range []int{2, 4, 8} {
		for _, master := range []string{"lagging", "bursty"} {
			t.Run(fmt.Sprintf("cap%d/%s", bufCap, master), func(t *testing.T) {
				fired := withStopWatch(t, time.Second)
				p := newWoCPair(bufCap)
				defer p.ex.Stop()
				pk := p.ex.buf(0).Parker()
				go func() {
					defer unwindStopped()
					rng := rand.New(rand.NewSource(int64(bufCap)))
					for sent := 0; sent < total; {
						n := 1
						if master == "bursty" {
							n = min(1+rng.Intn(3*bufCap), total-sent)
						} else {
							for spins := 0; pk.Waiters() == 0 && spins < 200; spins++ {
								runtime.Gosched()
							}
						}
						p.record(n)
						sent += n
					}
				}()
				errc := make(chan error, 1)
				go func() {
					defer unwindStopped()
					errc <- p.replay(total)
				}()
				select {
				case err := <-errc:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(60 * time.Second):
					t.Fatalf("wedged at ticket %d (want %d)", p.next, p.t.want)
				}
				if int(p.t.want) > bufCap {
					t.Fatalf("want grew to %d on a %d-slot buffer", p.t.want, bufCap)
				}
				if fired.Load() != 0 {
					t.Fatal("parking-contract watch fired")
				}
			})
		}
	}
}

// The learning rule, counted. k tickets, then the master waits until they
// are replayed — every thread-pool request, seen from one thread: a wait for
// more than the burst holds is paid for in full, so the rule must stop
// asking. One goroutine plays both sides, so the counts are exact: each
// expiry doubles the hold-off before the next probe (2, 4, … 1024 refills),
// which bounds the expired waits of 1000 rounds by log2(1000)+2 = 12 when k
// is constant, and — a burst one short of what the last one taught costs one
// more expiry on the way down — by 40 when k varies by ±1.
func TestWoCBatchWaitStopsPayingOnBursts(t *testing.T) {
	const rounds = 1000
	for _, k := range []int{1, 2, 4, 8} {
		for _, jitter := range []int{0, 1} {
			p := newWoCPair(1024)
			rng := rand.New(rand.NewSource(int64(k)))
			tickets := 0
			for i := 0; i < rounds; i++ {
				n := k
				if jitter > 0 {
					n = max(1, k-1+rng.Intn(3))
				}
				p.record(n)
				if err := p.replay(n); err != nil {
					t.Fatal(err)
				}
				tickets += n
			}
			limit := uint32(12)
			if jitter > 0 {
				limit = 40
			}
			t.Logf("k=%d±%d: %d expired waits in %d rounds (%d tickets), want ends at %d", k, jitter, p.t.expired, rounds, tickets, p.t.want)
			if p.t.expired > limit {
				t.Errorf("k=%d±%d: %d expired waits in %d rounds, want <= %d", k, jitter, p.t.expired, rounds, limit)
			}
			if p.s.Stalls() != 0 {
				t.Errorf("k=%d±%d: %d stalls, but every Before found a ticket", k, jitter, p.s.Stalls())
			}
			p.ex.Stop()
		}
	}
}

// Dense streams converge, and an expired wait is not proof of a sparse one.
// While the master stays ahead the request doubles on every refill: wocBatch
// within 100 tickets (four refills). Then the master pauses mid-batch — five
// tickets, and nothing until the slave thread is asleep — which costs one
// expired wait and one that found nothing; once the stream is back, so is the
// request, again within 100 tickets.
func TestWoCBatchWaitConvergesOnDenseStreams(t *testing.T) {
	p := newWoCPair(1024)
	defer p.ex.Stop()
	reached := func(from uint64) {
		t.Helper()
		for p.t.want != wocBatch {
			if p.next-from > 100 {
				t.Fatalf("want is %d after %d tickets of a dense stream (hold %d, strikes %d)", p.t.want, p.next-from, p.t.hold, p.t.strikes)
			}
			if err := p.replay(1); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("%d tickets a refill after %d tickets", wocBatch, p.next-from)
	}
	const dense = 13 * wocBatch
	p.record(dense)
	reached(0)
	if err := p.replay(dense - int(p.next)); err != nil {
		t.Fatal(err)
	}

	p.record(5)
	pk := p.ex.buf(0).Parker()
	since := ring.ReadMetrics().Parks
	errc := make(chan error, 1)
	go func() {
		defer unwindStopped()
		errc <- p.replay(6)
	}()
	awaitParked(t, pk, since)
	if p.t.expired != 1 || p.t.want != 5 {
		t.Fatalf("after the pause: expired %d, want %d; expected 1 and 5", p.t.expired, p.t.want)
	}
	p.record(dense)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slave thread still asleep after the stream resumed")
	}
	reached(dense + 5)
	if p.t.expired != 1 {
		t.Errorf("%d expired waits, expected the one of the pause", p.t.expired)
	}
}

// Layout guard, beside ring's, clock's and the monitor's: what a thread
// writes on every sync op shares no line with what its siblings write. The
// per-thread structs are whole lines and their arrays start on one (Go's
// allocator aligns a block of this size class to 64 bytes; checked here so a
// change of element size that lands in an unaligned class is seen).
func TestWoCThreadStateDoesNotShareLines(t *testing.T) {
	ex := newWoCExchange(Config{Slaves: 1, MaxThreads: 64, BufCap: 8, WallSize: 64})
	m, s := ex.MasterAgent().(*wocMaster), ex.SlaveAgent(0).(*wocSlave)
	for name, size := range map[string]uintptr{
		"wocMasterThread": unsafe.Sizeof(wocMasterThread{}),
		"wocSlaveThread":  unsafe.Sizeof(wocSlaveThread{}),
	} {
		if size%cacheLine != 0 {
			t.Errorf("%s is %d bytes: adjacent threads share a line", name, size)
		}
	}
	var st wocSlaveThread
	if off := unsafe.Offsetof(st.pre); off != cacheLine {
		t.Errorf("the prefetched batch starts at offset %d: it shares a line with the words before it, or wastes one", off)
	}
	for tid := 1; tid < 64; tid++ {
		for name, d := range map[string]uintptr{
			"wocMasterThread": uintptr(unsafe.Pointer(&m.threads[tid])) - uintptr(unsafe.Pointer(&m.threads[tid-1])),
			"wocSlaveThread":  uintptr(unsafe.Pointer(&s.threads[tid])) - uintptr(unsafe.Pointer(&s.threads[tid-1])),
		} {
			if d < cacheLine {
				t.Fatalf("%s of threads %d and %d are %d bytes apart", name, tid-1, tid, d)
			}
		}
	}
	for name, base := range map[string]uintptr{
		"wocMaster.threads": uintptr(unsafe.Pointer(&m.threads[0])),
		"wocSlave.threads":  uintptr(unsafe.Pointer(&s.threads[0])),
	} {
		if base%cacheLine != 0 {
			t.Errorf("%s starts at %#x, not on a line: every element straddles two", name, base)
		}
	}
}

// §3.3: agents may not allocate — neither a refill that waits for its batch
// and gets it, nor one whose wait runs out.
func TestWoCBatchWaitDoesNotAllocate(t *testing.T) {
	p := newWoCPair(1024)
	defer p.ex.Stop()
	pk := p.ex.buf(0).Parker()
	waits := func() {
		p.t.want = 8
		polls, r := 0, p.s.refill(0)
		p.ex.stop.await(pk, func() bool {
			if polls++; polls == 10 {
				p.record(8) // the batch lands while the thread waits for its last slot
			}
			return r.poll()
		})
		if p.t.bn != 8 {
			t.Fatalf("the wait took %d tickets, want 8", p.t.bn)
		}
		for p.t.bi < p.t.bn { // replay them: expires() checks the order
			p.s.After(0, 0x9000)
			p.next++
		}
	}
	expires := func() {
		p.t.want = 8
		p.record(3)
		if err := p.replay(3); err != nil {
			t.Fatal(err)
		}
	}
	waits()
	expires()
	if n := testing.AllocsPerRun(100, waits); n != 0 {
		t.Errorf("a refill that waits for its batch allocates %v/run", n)
	}
	before := p.t.expired
	if n := testing.AllocsPerRun(100, expires); n != 0 {
		t.Errorf("a refill whose wait runs out allocates %v/run", n)
	}
	if got := p.t.expired - before; got != 101 {
		t.Errorf("%d of 101 short refills expired", got)
	}
}
