package fleet_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/synclib"
	"repro/internal/variant"
	"repro/internal/webserver"
)

const testSeed = 77

// sessOpts is the per-session MVEE template every fleet test uses: two
// diversified variants under the wall-of-clocks agent.
func sessOpts() core.Options {
	return core.Options{Variants: 2, Agent: agent.WallOfClocks, ASLR: true, DCL: true,
		Seed: testSeed, MaxThreads: 64}
}

func newTestFleet(t *testing.T, cfg webserver.Config, size int, tune func(*fleet.Config)) *fleet.Fleet {
	t.Helper()
	fc := webserver.FleetConfig(cfg, sessOpts(), size)
	if tune != nil {
		tune(&fc)
	}
	f, err := fleet.New(fc)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

// attackGadget is the code address an attacker with a layout leak for one
// variant of a seed-`seed` session would target (webserver_test does the
// same against a single session).
func attackGadget(targetVariant int, seed int64) uint64 {
	sp := variant.NewSpace(targetVariant, variant.Options{ASLR: true, DCL: true, Seed: seed})
	return sp.AllocCode(64)
}

// waitHealthy polls until n members accept dispatch (respawn warm-up).
func waitHealthy(t *testing.T, f *fleet.Fleet, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if f.Stats().Healthy >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("pool never returned to %d healthy members: %+v", n, f.Members())
}

// TestFleetServes100RequestsAcross4Sessions is the core serving
// acceptance: a pool of 4 MVEE sessions answers at least 100 concurrent
// requests through the gateway with zero failures, and the dispatcher
// spreads them over every member.
func TestFleetServes100RequestsAcross4Sessions(t *testing.T) {
	cfg := webserver.Config{Port: 8080, PoolThreads: 4, InstrumentCustomSync: true, PageSize: 1024}
	f := newTestFleet(t, cfg, 4, nil)

	const clients, perClient = 10, 12 // 120 requests
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				resp, err := f.Do([]byte("GET /"))
				if err != nil {
					errs <- err
				} else if !strings.Contains(string(resp), "200 OK") {
					errs <- fmt.Errorf("bad response: %.60q", resp)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("request failed: %v", err)
	}
	s := f.Stats()
	if s.Served < clients*perClient {
		t.Fatalf("served %d < %d", s.Served, clients*perClient)
	}
	if s.Divergences != 0 || s.Errors != 0 {
		t.Fatalf("unexpected trouble: %+v", s)
	}
	if s.Latency.Count() < clients*perClient || s.Latency.Quantile(0.5) == 0 {
		t.Fatalf("latency histogram not populated: %v", s.Latency.String())
	}
	for _, m := range f.Members() {
		if m.Served == 0 {
			t.Fatalf("member %d served nothing: %+v", m.Slot, f.Members())
		}
	}
}

// TestFleetQuarantinesInjectedDivergence is the divergence acceptance: an
// exploit payload injected into a 4-session pool diverges exactly one
// session; that session is quarantined and hot-replaced while concurrent
// requests on the other sessions all succeed, and the pool keeps serving
// afterwards.
func TestFleetQuarantinesInjectedDivergence(t *testing.T) {
	cfg := webserver.Config{Port: 8080, PoolThreads: 4, InstrumentCustomSync: true,
		Vulnerable: true, PageSize: 1024}
	f := newTestFleet(t, cfg, 4, nil)

	// Concurrent benign traffic, running across the attack window.
	var wg sync.WaitGroup
	type reqErr struct{ err error }
	errs := make(chan reqErr, 400)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 25; r++ {
				if _, err := f.Do([]byte("GET /")); err != nil {
					errs <- reqErr{err}
				}
			}
		}()
	}

	// The injected divergence: a gadget address tailored to variant 0's
	// layout, sent mid-traffic. The monitor kills the serving session at
	// the divergent send, so the attacker must NOT see the leak.
	time.Sleep(2 * time.Millisecond)
	resp, err := f.Do([]byte(fmt.Sprintf("POST /upload %x", attackGadget(0, testSeed))))
	if err == nil && strings.Contains(string(resp), "PWNED") {
		t.Fatalf("leak escaped the fleet: %q", resp)
	}
	wg.Wait()
	close(errs)

	// Exactly one session burned; its quarantine record is complete.
	quars := f.Quarantined()
	if len(quars) != 1 {
		t.Fatalf("want exactly 1 quarantined session, got %d: %+v", len(quars), quars)
	}
	q := quars[0]
	if q.Divergence == nil || q.Divergence.Reason != "payload mismatch" {
		t.Fatalf("quarantine lacks the divergence verdict: %+v", q)
	}
	if q.Gen != 0 || q.Seed != testSeed {
		t.Fatalf("unexpected quarantined session identity: %+v", q)
	}
	// The flight-recorder tail rode along: the monitor froze each
	// variant's last replicated records at kill time, and they must show
	// the serving activity that led up to the divergent send.
	if len(q.Flight) != 2 {
		t.Fatalf("quarantine flight tails for %d variants, want 2", len(q.Flight))
	}
	for v, tail := range q.Flight {
		if len(tail) == 0 {
			t.Fatalf("variant %d quarantine flight tail is empty", v)
		}
	}

	// No in-flight request on the other three sessions may have failed:
	// any benign failure must implicate the quarantined session.
	tag := fmt.Sprintf("slot %d (gen %d)", q.Slot, q.Gen)
	for e := range errs {
		if !strings.Contains(e.err.Error(), tag) {
			t.Errorf("request failed on a healthy session: %v", e.err)
		}
	}

	// The slot is hot-replaced and the pool keeps serving.
	waitHealthy(t, f, 4)
	var gen1 bool
	for _, m := range f.Members() {
		if m.Slot == q.Slot && m.Gen == q.Gen+1 {
			gen1 = true
		}
	}
	if !gen1 {
		t.Fatalf("quarantined slot not respawned: %+v", f.Members())
	}
	for r := 0; r < 20; r++ {
		if _, err := f.Do([]byte("GET /")); err != nil {
			t.Fatalf("post-recycle request %d failed: %v", r, err)
		}
	}
	if s := f.Stats(); s.Recycled != 1 || s.Divergences != 1 {
		t.Fatalf("stats after recycle: %+v", s)
	}
}

// TestFleetRecyclesBenignDivergence reproduces the paper's §5.5 negative
// result inside the fleet: with the nginx-style custom spinlock left
// uninstrumented, traffic causes a benign divergence; the pool must
// quarantine the diverged session (with a forensic trace, since its
// sessions record), record the divergence, respawn, and continue serving.
func TestFleetRecyclesBenignDivergence(t *testing.T) {
	cfg := webserver.Config{Port: 8080, PoolThreads: 4, InstrumentCustomSync: false}
	f := newTestFleet(t, cfg, 2, func(fc *fleet.Config) { fc.Session.Record = true })

	// Hammer the endpoint that exposes the custom-lock-protected counter
	// until some session's variants drift apart.
	deadline := time.Now().Add(60 * time.Second)
	for f.Stats().Divergences == 0 && time.Now().Before(deadline) {
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.Do([]byte("GET /count")) // divergence-window errors expected
			}()
		}
		wg.Wait()
	}
	quars := f.Quarantined()
	if len(quars) == 0 {
		t.Fatal("uninstrumented custom sync never diverged under fleet traffic (§5.5)")
	}
	q := quars[0]
	if q.Divergence == nil {
		t.Fatalf("quarantine without divergence verdict: %+v", q)
	}
	if q.Trace == nil {
		t.Fatalf("recording fleet did not capture the execution trace: %+v", q)
	}
	if q.Trace.Program != "nginx-sim" {
		t.Fatalf("trace names %q", q.Trace.Program)
	}

	// The pool respawns and keeps serving the static page (which does not
	// depend on the drifting counter value).
	waitHealthy(t, f, 2)
	ok := 0
	for r := 0; r < 50; r++ {
		if resp, err := f.Do([]byte("GET /")); err == nil && strings.Contains(string(resp), "200 OK") {
			ok++
		}
	}
	// Under continuing /-count-free load, only a request caught by a
	// fresh benign divergence may fail; the pool itself must keep going.
	if ok < 40 {
		t.Fatalf("pool stopped serving after recycle: %d/50 ok", ok)
	}
}

// TestFleetRerandomizesRecycledSession: the replacement session gets a
// fresh diversity seed, so the layout leak that burned its predecessor is
// dead — the same exploit payload now misses EVERY variant, which is a
// benign (identical) 500 response instead of a divergence.
func TestFleetRerandomizesRecycledSession(t *testing.T) {
	cfg := webserver.Config{Port: 8080, PoolThreads: 2, InstrumentCustomSync: true, Vulnerable: true}
	f := newTestFleet(t, cfg, 1, nil)

	gadget := attackGadget(0, testSeed)
	payload := []byte(fmt.Sprintf("POST /upload %x", gadget))
	if resp, err := f.Do(payload); err == nil && strings.Contains(string(resp), "PWNED") {
		t.Fatalf("leak escaped: %q", resp)
	}
	waitHealthy(t, f, 1)
	m := f.Members()[0]
	if m.Gen != 1 || m.Seed == testSeed {
		t.Fatalf("replacement not rerandomized: %+v", m)
	}

	// Same leak, fresh layouts: all variants agree the gadget is garbage.
	resp, err := f.Do(payload)
	if err != nil {
		t.Fatalf("replayed attack errored (should be benign now): %v", err)
	}
	if !strings.Contains(string(resp), "500 internal error") {
		t.Fatalf("replayed attack response: %q", resp)
	}
	if s := f.Stats(); s.Divergences != 1 {
		t.Fatalf("replayed attack burned another session: %+v", s)
	}
}

// slowEchoProgram is a minimal non-webserver server: the fleet is generic
// over any program that listens on a port. Each request burns some
// monitored syscalls so requests take long enough to saturate a
// single-worker gateway deterministically.
func slowEchoProgram(port uint16, work int) core.Program {
	return core.Program{Name: "slow-echo", Main: func(t *core.Thread) {
		sfd := t.Syscall(kernel.SysSocket, [6]uint64{}, nil).Val
		t.Syscall(kernel.SysBind, [6]uint64{sfd, uint64(port)}, nil)
		if !t.Syscall(kernel.SysListen, [6]uint64{sfd, uint64(port), 64}, nil).Ok() {
			return
		}
		for {
			acc := t.Syscall(kernel.SysAccept, [6]uint64{sfd}, nil)
			if !acc.Ok() {
				return
			}
			r := t.Syscall(kernel.SysRecv, [6]uint64{acc.Val, 4096}, nil)
			if r.Ok() && r.Val > 0 {
				for i := 0; i < work; i++ {
					t.Syscall(kernel.SysGettimeofday, [6]uint64{}, nil)
				}
				t.Syscall(kernel.SysSend, [6]uint64{acc.Val}, r.Data)
			}
			t.Syscall(kernel.SysClose, [6]uint64{acc.Val}, nil)
		}
	}}
}

// crashyEchoProgram echoes requests but panics on the payload "crash" —
// a model of a plain program bug (not a divergence) taking a session
// down mid-service.
func crashyEchoProgram(port uint16) core.Program {
	return core.Program{Name: "crashy-echo", Main: func(t *core.Thread) {
		sfd := t.Syscall(kernel.SysSocket, [6]uint64{}, nil).Val
		t.Syscall(kernel.SysBind, [6]uint64{sfd, uint64(port)}, nil)
		if !t.Syscall(kernel.SysListen, [6]uint64{sfd, uint64(port), 64}, nil).Ok() {
			return
		}
		for {
			acc := t.Syscall(kernel.SysAccept, [6]uint64{sfd}, nil)
			if !acc.Ok() {
				return
			}
			r := t.Syscall(kernel.SysRecv, [6]uint64{acc.Val, 4096}, nil)
			if r.Ok() && r.Val > 0 {
				if string(r.Data) == "crash" {
					panic("request of death")
				}
				t.Syscall(kernel.SysSend, [6]uint64{acc.Val}, r.Data)
			}
			t.Syscall(kernel.SysClose, [6]uint64{acc.Val}, nil)
		}
	}}
}

// TestFleetRecyclesCrashedSession: a session killed by a program panic
// (no divergence) is quarantined — with the panic value recorded — and
// replaced, so the pool does not silently lose capacity.
func TestFleetRecyclesCrashedSession(t *testing.T) {
	f, err := fleet.New(fleet.Config{
		Size:    1,
		Session: core.Options{Variants: 2, Agent: agent.WallOfClocks, ASLR: true, Seed: 9},
		Program: crashyEchoProgram(9100),
		Port:    9100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if resp, err := f.Do([]byte("hi")); err != nil || string(resp) != "hi" {
		t.Fatalf("echo: %q, %v", resp, err)
	}
	if _, err := f.Do([]byte("crash")); err == nil {
		t.Fatal("request of death was answered")
	}
	// The quarantine lands only after the crashed session finishes
	// unwinding; wait for the record, then for the replacement.
	deadline := time.Now().Add(30 * time.Second)
	for len(f.Quarantined()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	waitHealthy(t, f, 1)
	quars := f.Quarantined()
	if len(quars) != 1 || quars[0].Divergence != nil || quars[0].Panic != "request of death" {
		t.Fatalf("crash quarantine: %+v", quars)
	}
	if m := f.Members()[0]; m.Gen != 1 {
		t.Fatalf("crashed slot not respawned: %+v", m)
	}
	if resp, err := f.Do([]byte("again")); err != nil || string(resp) != "again" {
		t.Fatalf("post-crash echo: %q, %v", resp, err)
	}
	if s := f.Stats(); s.Crashes != 1 || s.Divergences != 0 || s.Recycled != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// wedgyEchoProgram echoes requests but self-deadlocks on the payload
// "wedge" — re-acquiring a non-recursive mutex on the only guest thread,
// the fleet-serving analogue of bugbench's double-lock entry.
func wedgyEchoProgram(port uint16) core.Program {
	return core.Program{Name: "wedgy-echo", Main: func(t *core.Thread) {
		mu := synclib.NewMutex(t)
		sfd := t.Syscall(kernel.SysSocket, [6]uint64{}, nil).Val
		t.Syscall(kernel.SysBind, [6]uint64{sfd, uint64(port)}, nil)
		if !t.Syscall(kernel.SysListen, [6]uint64{sfd, uint64(port), 64}, nil).Ok() {
			return
		}
		for {
			acc := t.Syscall(kernel.SysAccept, [6]uint64{sfd}, nil)
			if !acc.Ok() {
				return
			}
			r := t.Syscall(kernel.SysRecv, [6]uint64{acc.Val, 4096}, nil)
			if r.Ok() && r.Val > 0 {
				if string(r.Data) == "wedge" {
					mu.Lock(t)
					mu.Lock(t) // waits on itself forever
				}
				t.Syscall(kernel.SysSend, [6]uint64{acc.Val}, r.Data)
			}
			t.Syscall(kernel.SysClose, [6]uint64{acc.Val}, nil)
		}
	}}
}

// TestFleetRecyclesDeadlockedSession: a session wedged on a guest-level
// deadlock (no divergence, no crash) is proven dead by the armed detector,
// quarantined with the DeadlockReport recorded, and hot-replaced — instead
// of pinning a gateway worker until the request watchdog fires.
func TestFleetRecyclesDeadlockedSession(t *testing.T) {
	opts := core.Options{Variants: 2, Agent: agent.WallOfClocks, ASLR: true, Seed: 11,
		DetectDeadlocks: true}
	f, err := fleet.New(fleet.Config{
		Size:    1,
		Session: opts,
		Program: wedgyEchoProgram(9150),
		Port:    9150,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if resp, err := f.Do([]byte("hi")); err != nil || string(resp) != "hi" {
		t.Fatalf("echo: %q, %v", resp, err)
	}
	if _, err := f.Do([]byte("wedge")); err == nil {
		t.Fatal("wedging request was answered")
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(f.Quarantined()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	waitHealthy(t, f, 1)
	quars := f.Quarantined()
	if len(quars) != 1 || quars[0].Deadlock == nil || quars[0].Divergence != nil || quars[0].Panic != nil {
		t.Fatalf("deadlock quarantine: %+v", quars)
	}
	if got := quars[0].Deadlock.Cycle; len(got) != 1 || got[0] != 0 {
		t.Fatalf("deadlock cycle: %v, want [0]", got)
	}
	if m := f.Members()[0]; m.Gen != 1 {
		t.Fatalf("wedged slot not respawned: %+v", m)
	}
	if resp, err := f.Do([]byte("again")); err != nil || string(resp) != "again" {
		t.Fatalf("post-deadlock echo: %q, %v", resp, err)
	}
	if s := f.Stats(); s.Deadlocks != 1 || s.Crashes != 0 || s.Divergences != 0 || s.Recycled != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestFleetBackpressure: with one worker and a one-slot queue, a burst of
// TryDo submissions must observe ErrOverloaded instead of queueing
// without bound, while blocking Do still completes.
func TestFleetBackpressure(t *testing.T) {
	f, err := fleet.New(fleet.Config{
		Size:     1,
		Session:  core.Options{Variants: 2, Agent: agent.WallOfClocks, ASLR: true, Seed: 3},
		Program:  slowEchoProgram(9000, 400),
		Port:     9000,
		QueueCap: 1,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const burst = 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	overloaded, served := 0, 0
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := f.TryDo([]byte("ping"))
			mu.Lock()
			defer mu.Unlock()
			switch err {
			case nil:
				served++
			case fleet.ErrOverloaded:
				overloaded++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if overloaded == 0 {
		t.Fatalf("no backpressure in a %d-deep burst (served=%d)", burst, served)
	}
	if served == 0 {
		t.Fatal("gateway served nothing")
	}
	if resp, err := f.Do([]byte("hello")); err != nil || string(resp) != "hello" {
		t.Fatalf("echo through blocking Do: %q, %v", resp, err)
	}
	if got := f.Stats().Rejected; got != uint64(overloaded) {
		t.Fatalf("Rejected stat %d != observed %d", got, overloaded)
	}
}

// TestFleetRequestTimeoutUnwedgesHungMember: a member that accepts a
// request and then hangs WITHOUT diverging must not pin a gateway worker
// (or wedge Close) forever — the per-request watchdog closes the
// connection after RequestTimeout.
func TestFleetRequestTimeoutUnwedgesHungMember(t *testing.T) {
	hang := core.Program{Name: "hang", Main: func(th *core.Thread) {
		sfd := th.Syscall(kernel.SysSocket, [6]uint64{}, nil).Val
		th.Syscall(kernel.SysBind, [6]uint64{sfd, 9200}, nil)
		if !th.Syscall(kernel.SysListen, [6]uint64{sfd, 9200, 64}, nil).Ok() {
			return
		}
		for {
			acc := th.Syscall(kernel.SysAccept, [6]uint64{sfd}, nil)
			if !acc.Ok() {
				return
			}
			th.Syscall(kernel.SysRecv, [6]uint64{acc.Val, 4096}, nil)
			// Never respond: block on a second read the client will not
			// satisfy until the watchdog closes the connection.
			th.Syscall(kernel.SysRecv, [6]uint64{acc.Val, 4096}, nil)
			th.Syscall(kernel.SysClose, [6]uint64{acc.Val}, nil)
		}
	}}
	f, err := fleet.New(fleet.Config{
		Size:           1,
		Session:        core.Options{Variants: 2, Agent: agent.WallOfClocks, ASLR: true, Seed: 4},
		Program:        hang,
		Port:           9200,
		RequestTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	if _, err := f.Do([]byte("hello?")); err == nil {
		t.Fatal("hung member answered")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("watchdog did not fire: request took %v", el)
	}
}

// TestFleetClosedRejects: requests after Close fail with ErrClosed; Close
// is idempotent.
func TestFleetClosedRejects(t *testing.T) {
	cfg := webserver.Config{Port: 8080, PoolThreads: 2, InstrumentCustomSync: true}
	f := newTestFleet(t, cfg, 1, nil)
	if _, err := f.Do([]byte("GET /")); err != nil {
		t.Fatalf("pre-close request: %v", err)
	}
	f.Close()
	f.Close()
	if _, err := f.Do([]byte("GET /")); err != fleet.ErrClosed {
		t.Fatalf("Do after Close: %v", err)
	}
	if _, err := f.TryDo([]byte("GET /")); err != fleet.ErrClosed {
		t.Fatalf("TryDo after Close: %v", err)
	}
}

// TestGatewayBatchedDispatchStress floods a deliberately narrow gateway
// (one worker, so every batch fills) with concurrent submitters and
// verifies batched dequeuing loses nothing: every request is answered
// exactly once with the right payload, in the presence of Do and TryDo
// mixed. Run under -race in CI (the satellite's gateway stress test).
func TestGatewayBatchedDispatchStress(t *testing.T) {
	f, err := fleet.New(fleet.Config{
		Size:     1,
		Session:  sessOpts(),
		Program:  slowEchoProgram(9100, 0),
		Port:     9100,
		Workers:  1, // force deep batches: one worker drains everything
		QueueCap: 512,
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	defer f.Close()

	const clients, perClient = 16, 25
	var wg sync.WaitGroup
	var rejected atomic.Uint64
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				req := []byte(fmt.Sprintf("batch-%d-%d", c, r))
				var resp []byte
				var err error
				if r%5 == 4 {
					resp, err = f.TryDo(req)
					if err == fleet.ErrOverloaded {
						rejected.Add(1)
						continue // backpressure is a valid outcome for TryDo
					}
				} else {
					resp, err = f.Do(req)
				}
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %v", c, r, err)
					return
				}
				if string(resp) != string(req) {
					errs <- fmt.Errorf("client %d req %d: echoed %q, want %q", c, r, resp, req)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := f.Stats()
	want := uint64(clients*perClient) - rejected.Load()
	if s.Served != want {
		t.Fatalf("served %d, want %d (rejected %d)", s.Served, want, rejected.Load())
	}
	if s.Errors != 0 {
		t.Fatalf("gateway reported %d errors under pure load", s.Errors)
	}
}
