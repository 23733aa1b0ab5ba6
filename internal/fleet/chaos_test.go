package fleet_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/webserver"
)

// TestChaosSoak is the fleet-level chaos acceptance (DESIGN.md §8): the
// prefork webserver pool serves a concurrent load while a worker-kill
// storm (/quit exits and /killme SIGTERMs) churns the worker processes
// AND a seeded fault plan injects connection resets, short transfers, and
// listener latency — all on 10× accelerated kernel time. The MVEE
// contract under all of that:
//
//   - zero divergences and zero program crashes (every injected fault is a
//     master decision replicated to the slaves, so lockstep cannot break);
//   - no leaked processes: every killed worker is reaped and re-forked,
//     and each member settles back to variants × (parent + Workers)
//     running procs with no zombies;
//   - no leaked descriptors: at quiescence every process holds exactly its
//     share of the listener, nothing else.
//
// CI runs this ×3 under -race as part of the stress job.
func TestChaosSoak(t *testing.T) {
	const (
		pool     = 2
		workers  = 3
		clients  = 6
		requests = 30
		kills    = 12
	)
	cfg := webserver.Config{
		Port: 8300, PageSize: 1024, InstrumentCustomSync: true,
		Prefork: true, Workers: workers,
	}
	// Listener errors are deliberately absent from the plan: a failed
	// accept is how a worker learns its listener closed (it exits without
	// replacement), so accept faults would legitimately drain the worker
	// pool rather than expose a bug.
	plan, err := chaos.Parse(
		"target=listener latency=+200us; " +
			"target=socket error=2% errno=ECONNRESET timeout=2% short-reads short-writes seed=7")
	if err != nil {
		t.Fatal(err)
	}
	injector := chaos.New(plan)

	sess := sessOpts()
	sess.Telemetry = true
	sess.Inject = injector
	// One accelerated clock drives the session kernels and the gateway's
	// request watchdog.
	sess.Clock = kernel.NewScaledClock(10)
	f, err := fleet.New(webserver.FleetConfig(cfg, sess, pool))
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	defer f.Close()

	storm(f, clients, requests, kills, nil)
	s := f.Stats()
	checkNoQuarantines(t, f, "chaos soak")
	if s.Served == 0 {
		t.Fatal("nothing was served — the storm killed the fleet outright")
	}
	if injector.Injected() == 0 {
		t.Fatal("the fault plan injected nothing — the soak exercised no chaos")
	}

	// Quiescence: after the load drains, every member must settle back to
	// exactly variants × (parent + workers) running processes, zero
	// zombies, and at most one descriptor — the shared listener — per
	// process (slave-variant procs hold zero: replicated descriptor calls
	// execute only in the master's process). Anything above that is a
	// leaked proc or fd from the kill/re-fork churn.
	awaitLeakFree(t, f, sessOpts().Variants*(1+workers))
}

// storm runs, concurrently, clients × requests gateway requests (every
// 8th probes /count), a kill storm of kills requests that take down the
// serving worker after it responds (/quit exits, /killme SIGTERMs; the
// parent's waitpid loop re-forks a replacement while the surviving
// workers keep serving), and extra when it is not nil, and waits for all
// of them. Chaos makes individual request failures legitimate (an
// injected reset mid-response surfaces as a gateway error); the counters
// are what must stay clean.
func storm(f *fleet.Fleet, clients, requests, kills int, extra func()) {
	var wg sync.WaitGroup
	run := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	for c := 0; c < clients; c++ {
		run(func() {
			for r := 0; r < requests; r++ {
				req := []byte("GET /")
				if r%8 == 7 {
					req = []byte("GET /count")
				}
				f.Do(req)
			}
		})
	}
	run(func() {
		for k := 0; k < kills; k++ {
			req := []byte("GET /quit")
			if k%2 == 1 {
				req = []byte("GET /killme")
			}
			f.Do(req)
		}
	})
	if extra != nil {
		run(extra)
	}
	wg.Wait()
}

// checkNoQuarantines fails the test, with the fleet's report, when any
// session diverged or crashed.
func checkNoQuarantines(t *testing.T, f *fleet.Fleet, what string) {
	t.Helper()
	if s := f.Stats(); s.Divergences != 0 || s.Crashes != 0 {
		t.Fatalf("%s: %d divergences, %d crashes\n%s", what, s.Divergences, s.Crashes, admin.Report(f.Snapshot()))
	}
}

// awaitLeakFree polls until leakReport finds nothing — the last re-fork
// may still be in flight — and fails with the fleet's report after 30 s.
func awaitLeakFree(t *testing.T, f *fleet.Fleet, wantProcs int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		last := leakReport(f.Snapshot(), wantProcs)
		if last == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never quiesced leak-free: %s\n%s", last, admin.Report(f.Snapshot()))
		}
		time.Sleep(time.Millisecond)
	}
}

// leakReport returns "" when every member shows exactly wantProcs running
// processes, no zombies, and at most two open fds per process — the
// listener share plus the resident read-only page file the webserver's
// sendfile path serves from; otherwise a description of the first
// discrepancy.
func leakReport(snap fleet.Snapshot, wantProcs int) string {
	for _, m := range snap.Members {
		running := 0
		for _, p := range m.Procs {
			switch p.State {
			case "running":
				running++
				if p.OpenFDs > 2 {
					return fmt.Sprintf("slot %d: pid %d holds %d fds, want <= 2 (leaked descriptor)", m.Slot, p.Pid, p.OpenFDs)
				}
			case "zombie":
				return fmt.Sprintf("slot %d: pid %d is an unreaped zombie", m.Slot, p.Pid)
			}
		}
		if running != wantProcs {
			return fmt.Sprintf("slot %d: %d running procs, want %d", m.Slot, running, wantProcs)
		}
	}
	return ""
}

// TestReloadUnderChaos drives hot restarts THROUGH the storm: while the
// prefork pool serves a concurrent load, absorbs a worker kill-storm, and
// eats injected socket faults, the fleet sweeps SIGHUP reloads across the
// members — epoch swaps, drains, and diversity refreshes interleaved with
// worker deaths and re-forks. The contract is the soak's (zero divergence,
// zero crashes, leak-free quiescence) plus: every member actually advanced
// its worker generation. CI runs this ×3 under -race as part of the stress
// job.
func TestReloadUnderChaos(t *testing.T) {
	const (
		pool     = 2
		workers  = 3
		clients  = 6
		requests = 30
		kills    = 8
		reloads  = 3
	)
	cfg := webserver.Config{
		Port: 8301, PageSize: 1024, InstrumentCustomSync: true,
		Prefork: true, Workers: workers, WorkerThreads: 2,
	}
	plan, err := chaos.Parse(
		"target=socket error=2% errno=ECONNRESET short-reads short-writes seed=11")
	if err != nil {
		t.Fatal(err)
	}
	injector := chaos.New(plan)

	sess := sessOpts()
	sess.Inject = injector
	sess.Clock = kernel.NewScaledClock(10)
	f, err := fleet.New(webserver.FleetConfig(cfg, sess, pool))
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	defer f.Close()

	// The reload sweeps, fired while the load and the kill storm are both
	// in full swing: each one lands at the parents' next waitpid boundary
	// and starts an epoch swap mid-churn.
	storm(f, clients, requests, kills, func() {
		for r := 0; r < reloads; r++ {
			time.Sleep(2 * time.Millisecond)
			f.Reload()
		}
	})
	s := f.Stats()
	checkNoQuarantines(t, f, "reload under chaos")
	if s.Served == 0 {
		t.Fatal("nothing was served through the reload storm")
	}
	if s.Reloads != reloads {
		t.Fatalf("reload sweeps recorded = %d, want %d", s.Reloads, reloads)
	}

	// Same leak-free quiescence bar as the plain soak: the displaced
	// generations must drain completely even though they died mid-churn.
	awaitLeakFree(t, f, sessOpts().Variants*(1+workers))
	// Every member advanced its worker generation (back-to-back SIGHUPs
	// may coalesce while a parent is mid-swap, so >= 1 is the guarantee;
	// the sweep counter above pins the exact number of sweeps).
	for _, m := range f.Snapshot().Members {
		if m.Epoch < 1 {
			t.Fatalf("slot %d never advanced past epoch %d (seed %d)", m.Slot, m.Epoch, m.EpochSeed)
		}
	}
}
