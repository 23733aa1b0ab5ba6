package webserver

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
	"repro/internal/variant"
)

// The prefork mode must pass the same serving/divergence/leak suite the
// thread-pool and evented modes do: the change is the concurrency model
// (worker PROCESSES sharing the listener via forked descriptor tables,
// reaped and re-forked by the parent's waitpid loop).

func preforkCfg(port uint16) Config {
	return Config{Port: port, PageSize: 4096, Prefork: true, Workers: 3, InstrumentCustomSync: true}
}

func TestPreforkServesStaticPageUnderMVEE(t *testing.T) {
	checkServesLoad(t, preforkCfg(8200), 25)
}

func TestPreforkCountEndpointIsConsistent(t *testing.T) {
	// Worker-local counters: which worker serves which connection is part
	// of the replicated accept stream, so /count responses are identical
	// across variants with no locks at all.
	checkCountConsistent(t, preforkCfg(8201))
}

func TestPreforkAttackDetectedWithTwoVariants(t *testing.T) {
	// The §5.5 security result holds in worker processes: the divergent
	// send is caught before the leak escapes, and the fact that the
	// vulnerable handler runs in a forked child changes nothing — the
	// child's syscalls are monitored exactly like the root's.
	checkAttackDetected(t, preforkCfg(8202))
}

func TestPreforkBenignTrafficWithVulnerableEndpointDoesNotDiverge(t *testing.T) {
	cfg := preforkCfg(8210)
	cfg.Vulnerable = true
	checkServesLoad(t, cfg, 20)
}

func TestPreforkWorkerReapAndRefork(t *testing.T) {
	// Worker death is survivable: /quit makes the serving worker exit
	// (status 1), the parent's waitpid reaps it and forks a replacement,
	// and the pool keeps serving — with zero divergence, because the
	// whole reap/re-fork cycle is replicated kernel state.
	cfg := preforkCfg(8211)
	cfg.Workers = 2
	s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)
	for round := 0; round < 3; round++ {
		if resp, err := Request(s.Kernel(), cfg.Port, "GET /quit"); err != nil || resp != "bye" {
			t.Fatalf("round %d: /quit: %q %v", round, resp, err)
		}
		// The replacement (and the surviving sibling) keep serving.
		for i := 0; i < 6; i++ {
			resp, err := Request(s.Kernel(), cfg.Port, "GET /")
			if err != nil || !strings.Contains(resp, "200 OK") {
				t.Fatalf("round %d, request %d after refork: %q %v", round, i, resp, err)
			}
		}
	}
	res := shutdown()
	if res.Divergence != nil {
		t.Fatalf("reap/refork diverged: %v", res.Divergence)
	}
}

func TestPreforkKilledWorkerIsReforked(t *testing.T) {
	// The signal path of worker death: /killme SIGTERMs the serving
	// worker; the unhandled terminating signal is delivered at the kill's
	// own syscall boundary, the process exits 128+SIGTERM, the parent
	// reaps and re-forks. Every variant replays the same delivery point.
	cfg := preforkCfg(8212)
	cfg.Workers = 2
	s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)
	for round := 0; round < 3; round++ {
		if resp, err := Request(s.Kernel(), cfg.Port, "GET /killme"); err != nil || resp != "bye" {
			t.Fatalf("round %d: /killme: %q %v", round, resp, err)
		}
		for i := 0; i < 6; i++ {
			resp, err := Request(s.Kernel(), cfg.Port, "GET /")
			if err != nil || !strings.Contains(resp, "200 OK") {
				t.Fatalf("round %d, request %d after kill: %q %v", round, i, resp, err)
			}
		}
	}
	res := shutdown()
	if res.Divergence != nil {
		t.Fatalf("kill/refork diverged: %v", res.Divergence)
	}
}

func TestPreforkLeavesNoZombies(t *testing.T) {
	// Every dead worker must be reaped: after a few /quit cycles and the
	// shutdown drain, no zombie processes may remain in any variant.
	cfg := preforkCfg(8213)
	cfg.Workers = 2
	s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)
	for round := 0; round < 4; round++ {
		Request(s.Kernel(), cfg.Port, "GET /quit")
		Request(s.Kernel(), cfg.Port, "GET /")
	}
	res := shutdown()
	if res.Divergence != nil {
		t.Fatalf("diverged: %v", res.Divergence)
	}
	// Only the two root processes (one per variant) survive a clean run:
	// every worker — including the /quit casualties and their
	// replacements — was reaped in every variant's tree.
	if n := s.Kernel().ProcCount(); n != 2 {
		t.Fatalf("%d processes left after shutdown, want 2 roots", n)
	}
}

func TestPreforkFleetServes(t *testing.T) {
	// The fleet gateway drives the prefork mode like every other: warm
	// spawn probes, watchdog closes, and divergence quarantine ride the
	// same ClientConn surface, and a layout-targeted exploit burns one
	// member which is hot-replaced.
	cfg := Config{Port: 8214, PageSize: 512, Prefork: true, Workers: 2,
		Vulnerable: true, InstrumentCustomSync: true}
	f, err := fleet.New(FleetConfig(cfg, core.Options{
		Variants: 2, Agent: agent.WallOfClocks, ASLR: true, DCL: true, Seed: 11, MaxThreads: 64,
	}, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 32; i++ {
		resp, err := f.Do([]byte("GET /"))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !strings.Contains(string(resp), "200 OK") {
			t.Fatalf("request %d: %q", i, resp)
		}
	}
	f.Do([]byte(fmt.Sprintf("POST /upload %x", attackGadget(0, 11))))
	for i := 0; i < 16; i++ {
		if _, err := f.Do([]byte("GET /")); err != nil {
			t.Fatalf("post-attack request %d: %v", i, err)
		}
	}
	awaitBurnAndReplace(t, f)
}

// awaitBurnAndReplace waits until the fleet has quarantined a diverged
// member and hot-replaced it. Both happen on the fleet's own goroutines,
// not on the Do that tripped them, so reading Stats once right after the
// last request races them.
func awaitBurnAndReplace(t *testing.T, f *fleet.Fleet) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := f.Stats()
		if st.Divergences > 0 && st.Recycled > 0 {
			return
		}
		if time.Now().After(deadline) {
			if st.Divergences == 0 {
				t.Fatal("exploit did not burn a session")
			}
			t.Fatal("burned session was not hot-replaced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPreforkStress(t *testing.T) {
	// CI race-job stress cell: heavy concurrent load over a small worker
	// pool with mid-run worker churn.
	cfg := preforkCfg(8215)
	cfg.Workers = 3
	s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			Request(s.Kernel(), cfg.Port, "GET /quit")
		}
	}()
	res := GenerateLoad(s.Kernel(), cfg.Port, 8, 15)
	<-done
	if res.Errors > 0 {
		t.Fatalf("stress load errored: %+v", res)
	}
	final := shutdown()
	if final.Divergence != nil {
		t.Fatalf("stress diverged: %v", final.Divergence)
	}
}

// --- Hot restart (DESIGN.md §9) --------------------------------------------

// reloadCfg is the multi-threaded prefork shape the hot-restart acceptance
// runs against: 2 worker processes × 3 accept threads each.
func reloadCfg(port uint16) Config {
	return Config{Port: port, PageSize: 1024, Prefork: true, Workers: 2,
		WorkerThreads: 3, InstrumentCustomSync: true}
}

// awaitEpoch polls the kernel's EpochFile until the parent publishes
// generation `want` (readiness included: the file is written only after
// every new-epoch worker signalled on the readiness pipe).
func awaitEpoch(t *testing.T, k *kernel.Kernel, want int) (seed int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, ok := k.ReadFile(fleet.EpochFile); ok {
			if e, s, _, valid := fleet.ParseEpochState(b); valid && e >= want {
				if e != want {
					t.Fatalf("epoch overshot: published %d, want %d", e, want)
				}
				return s
			}
		}
		if time.Now().After(deadline) {
			b, _ := k.ReadFile(fleet.EpochFile)
			t.Fatalf("epoch %d never published (file: %q)", want, b)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitQuiescence polls the kernel process table until exactly
// variants × (parent + workers) running processes remain, with no zombies
// and at most maxFDs+1 descriptors per process — maxFDs is 1 (the
// listener share) for an idle server, 2 while load runs (an in-flight
// connection is legitimate), and every process additionally holds the
// read-only page file its sendfile path serves from (the nginx
// `sendfile on` open-file residency). Anything above that is a leak from
// the epoch churn.
func awaitQuiescence(t *testing.T, k *kernel.Kernel, wantRunning, maxFDs int) {
	t.Helper()
	maxFDs++ // the resident page-file descriptor
	deadline := time.Now().Add(30 * time.Second)
	for {
		running, bad := 0, ""
		for _, p := range k.Snapshot() {
			switch p.State {
			case "running":
				running++
				if p.OpenFDs > maxFDs {
					bad = fmt.Sprintf("pid %d holds %d fds, want <= %d", p.Pid, p.OpenFDs, maxFDs)
				}
			case "zombie":
				bad = fmt.Sprintf("pid %d is an unreaped zombie", p.Pid)
			}
		}
		if bad == "" && running == wantRunning {
			return
		}
		if time.Now().After(deadline) {
			if bad == "" {
				bad = fmt.Sprintf("%d running procs, want %d", running, wantRunning)
			}
			t.Fatalf("old generation never drained: %s\nprocs: %+v", bad, k.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPreforkHotRestartZeroDowntime(t *testing.T) {
	// The tentpole acceptance: a multi-threaded prefork server under
	// CONTINUOUS load survives 3 consecutive hot restarts with zero
	// dropped or errored requests and zero divergence; each generation
	// publishes a distinct epoch and diversity seed, and after every drain
	// the kernel settles back to exactly the live generation's processes
	// with no leaked descriptors.
	cfg := reloadCfg(8216)
	s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)

	var stop atomic.Bool
	var served, failed atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				req := "GET /"
				if i%8 == 7 {
					req = "GET /count"
				}
				resp, err := Request(s.Kernel(), cfg.Port, req)
				if err != nil || (!strings.Contains(resp, "200 OK") && !strings.Contains(resp, "count=")) {
					failed.Add(1)
					t.Errorf("client %d request %d failed across reload: %q %v", c, i, resp, err)
					return
				}
				served.Add(1)
			}
		}(c)
	}

	seeds := map[int64]bool{}
	wantRunning := 2 * (1 + cfg.Workers) // variants × (parent + workers)
	for gen := 1; gen <= 3; gen++ {
		if !s.Signal(kernel.SIGHUP) {
			t.Fatalf("reload %d: SIGHUP not accepted", gen)
		}
		seed := awaitEpoch(t, s.Kernel(), gen)
		if seed == 0 || seeds[seed] {
			t.Fatalf("reload %d: seed %d not distinct (%v)", gen, seed, seeds)
		}
		seeds[seed] = true
		awaitQuiescence(t, s.Kernel(), wantRunning, 2)
	}

	stop.Store(true)
	wg.Wait()
	// With the load stopped, everything settles to exactly one descriptor
	// — the listener share — per process: nothing from any of the three
	// displaced generations leaked.
	awaitQuiescence(t, s.Kernel(), wantRunning, 1)
	res := shutdown()
	if res.Divergence != nil {
		t.Fatalf("hot restarts diverged: %v", res.Divergence)
	}
	if failed.Load() != 0 {
		t.Fatalf("%d of %d requests failed across 3 hot restarts, want 0", failed.Load(), failed.Load()+served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("the load never served anything — the clients raced straight past the run")
	}
	t.Logf("%d requests served across 3 hot restarts, 0 dropped", served.Load())
}

func TestPreforkHotRestartSurvivesWorkerKillStorm(t *testing.T) {
	// Chaos DURING the reload: /quit and /killme storms fire while the
	// epochs are mid-swap. Dead current-epoch workers are re-forked, dead
	// old-epoch workers just finish their drain, and the whole braid stays
	// divergence-free.
	cfg := reloadCfg(8217)
	s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)
	for gen := 1; gen <= 2; gen++ {
		if !s.Signal(kernel.SIGHUP) {
			t.Fatalf("reload %d: SIGHUP not accepted", gen)
		}
		for k := 0; k < 4; k++ {
			req := "GET /quit"
			if k%2 == 1 {
				req = "GET /killme"
			}
			Request(s.Kernel(), cfg.Port, req)
			// A request racing a process death may legitimately drop (the
			// exit-group tears down sibling threads mid-request — exactly
			// what exit(2) does to a multi-threaded process), so retry; the
			// pool must RECOVER, and the reload must still complete.
			ok := false
			for attempt := 0; attempt < 20 && !ok; attempt++ {
				resp, err := Request(s.Kernel(), cfg.Port, "GET /")
				ok = err == nil && strings.Contains(resp, "200 OK")
			}
			if !ok {
				t.Fatalf("reload %d: pool never recovered from kill %d", gen, k)
			}
		}
		awaitEpoch(t, s.Kernel(), gen)
		awaitQuiescence(t, s.Kernel(), 2*(1+cfg.Workers), 1)
	}
	res := shutdown()
	if res.Divergence != nil {
		t.Fatalf("kill storm across reloads diverged: %v", res.Divergence)
	}
}

func TestPreforkHotRestartRefreshesDiversity(t *testing.T) {
	// The diversity refresh is real, both ways:
	//
	//   - a layout leak harvested BEFORE the reload is dead afterwards: the
	//     stale gadget matches NO variant's refreshed layout, so the attack
	//     fizzles benignly (identical rejection everywhere, no divergence);
	//   - an attacker who re-harvests the NEW generation's layout for one
	//     variant is still caught the classic way — the fresh gadget
	//     matches only that variant and the cross-variant comparison trips.
	cfg := reloadCfg(8218)
	cfg.Vulnerable = true
	s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)
	stale := attackGadget(0, 77) // pre-reload leak of variant 0's layout
	if !s.Signal(kernel.SIGHUP) {
		t.Fatal("SIGHUP not accepted")
	}
	awaitEpoch(t, s.Kernel(), 1)
	awaitQuiescence(t, s.Kernel(), 2*(1+cfg.Workers), 1)
	resp, err := Request(s.Kernel(), cfg.Port, fmt.Sprintf("POST /upload %x", stale))
	if err == nil && strings.Contains(resp, "PWNED") {
		t.Fatalf("stale layout leak still works after diversity refresh: %q", resp)
	}
	if resp, err := Request(s.Kernel(), cfg.Port, "GET /"); err != nil || !strings.Contains(resp, "200 OK") {
		t.Fatalf("stale gadget burned the refreshed server: %q %v", resp, err)
	}

	// Mirror the new generation's allocation history for variant 0: the
	// epoch-0 handler alloc, the epoch-1 diversity shift, the epoch-1
	// handler alloc. This is exactly the leak an attacker would have to
	// RE-harvest after the restart.
	sp := variant.NewSpace(0, variant.Options{ASLR: true, DCL: true, Seed: 77})
	sp.AllocCode(64)
	sp.EpochShift(epochSeed(1))
	fresh := sp.AllocCode(64)
	if fresh == stale {
		t.Fatal("diversity refresh did not move the handler address")
	}
	if resp, err := Request(s.Kernel(), cfg.Port, fmt.Sprintf("POST /upload %x", fresh)); err == nil && strings.Contains(resp, "PWNED") {
		t.Fatalf("re-harvested leak escaped the MVEE: %q", resp)
	}
	res := shutdown()
	if res.Divergence == nil {
		t.Fatal("re-harvested attack on the new generation was not detected")
	}
	if res.Divergence.Reason != "payload mismatch" {
		t.Fatalf("unexpected reason: %v", res.Divergence)
	}
}
