// Command mvee-serve runs the §5.5 nginx-model server as a FLEET: a pool
// of concurrent MVEE sessions behind a request gateway, with divergence
// quarantine and hot replacement. It drives a configurable client load
// through the gateway (the simulated kernels have no real network, so the
// load generator is built in), optionally injects layout-targeted exploit
// payloads mid-run, and prints the fleet's report (admin.Report, the
// /statusz page) at the end. With -attacks and two or more variants it
// exits 1 unless every attack was quarantined and none leaked.
//
// Usage:
//
//	mvee-serve -pool 4 -variants 2 -agent woc -conns 16 -requests 50
//	mvee-serve -pool 4 -attacks 2                    # inject 2 exploits mid-run
//	mvee-serve -pool 2 -no-instrument -forensics     # §5.5 benign-divergence churn
//	mvee-serve -pool 8 -policy sensitive
//	mvee-serve -pool 4 -evented -attacks 1           # event-driven (poll) serving mode
//	mvee-serve -pool 2 -prefork -worker-procs 4      # multi-process (fork) serving mode
//	mvee-serve -prefork -worker-threads 4 -reloads 3 # multi-threaded workers, 3 hot restarts under load
//	mvee-serve -pool 4 -admin 127.0.0.1:9090         # live /metrics, /statusz, pprof
//	mvee-serve -admin :9090 -linger 60s              # stay up after the load for scraping
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admin"
	"repro/internal/agent"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/monitor"
	"repro/internal/variant"
	"repro/internal/webserver"
)

func main() {
	pool := flag.Int("pool", 4, "number of concurrent MVEE sessions in the pool")
	variants := flag.Int("variants", 2, "variants per session")
	agentName := flag.String("agent", "woc", "sync agent per session: to | po | woc | none")
	policyName := flag.String("policy", "strict", "monitor policy: strict | sensitive")
	conns := flag.Int("conns", 16, "concurrent gateway clients")
	requests := flag.Int("requests", 50, "requests per client")
	queueCap := flag.Int("queue", 256, "gateway queue bound (backpressure)")
	workers := flag.Int("workers", 0, "gateway workers (0 = 2*pool)")
	poolThreads := flag.Int("threads", 8, "server worker threads per session (thread-pool mode)")
	evented := flag.Bool("evented", false, "event-driven serving: one thread per session multiplexing connections via poll")
	prefork := flag.Bool("prefork", false, "multi-process serving: the parent forks worker processes sharing the listener, reaping and re-forking them on death")
	workerProcs := flag.Int("worker-procs", 4, "prefork worker processes per session")
	workerThreads := flag.Int("worker-threads", 1, "accept threads per prefork worker process")
	reloads := flag.Int("reloads", 0, "zero-downtime hot restarts (SIGHUP sweeps) spaced through the load (prefork mode)")
	pageSize := flag.Int("page", 4096, "static page size served")
	seed := flag.Int64("seed", 2028, "base diversity seed")
	attacks := flag.Int("attacks", 0, "exploit payloads injected mid-run (forces -vulnerable)")
	noInstrument := flag.Bool("no-instrument", false, "leave the custom spinlock uninstrumented (§5.5 benign-divergence churn)")
	forensics := flag.Bool("forensics", false, "record sessions (Session.Record) so quarantines carry a replayable trace")
	adminAddr := flag.String("admin", "", "serve the admin plane (/metrics, /statusz, /api/snapshot, /debug/pprof) on this host:port")
	linger := flag.Duration("linger", 0, "keep the fleet (and admin plane) up this long after the load completes")
	inject := flag.String("inject", "", `chaos fault plan, e.g. "target=listener latency=+2ms error=3% short-reads seed=7" (';' separates rules)`)
	timeScale := flag.Float64("time-scale", 1, "run the session clock N x faster than wall time (scales injected latencies, kernel timeouts and the request watchdog)")
	flag.Parse()

	if *pool < 1 {
		*pool = 1
	}
	if *evented && *prefork {
		fmt.Fprintln(os.Stderr, "mvee-serve: -evented and -prefork are mutually exclusive serving modes")
		os.Exit(2)
	}
	kind, err := parseAgent(*agentName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	policy := monitor.PolicyStrictLockstep
	if strings.HasPrefix(*policyName, "sens") {
		policy = monitor.PolicySecuritySensitive
	}

	wcfg := webserver.Config{
		Port: 8080, PoolThreads: *poolThreads, PageSize: *pageSize,
		InstrumentCustomSync: !*noInstrument,
		Vulnerable:           *attacks > 0,
		Evented:              *evented,
		Prefork:              *prefork,
		Workers:              *workerProcs,
		WorkerThreads:        *workerThreads,
	}
	// Tids are never recycled, so a prefork session must budget for every
	// generation it will ever fork: each hot restart spends another
	// worker-procs x worker-threads tids (plus the readiness plumbing).
	maxThreads := 64
	if *prefork {
		if need := (*reloads + 2) * (*workerProcs) * (*workerThreads) * 2; need > maxThreads {
			maxThreads = need
		}
	}
	sess := core.Options{
		Variants: *variants, Agent: kind, Policy: policy,
		ASLR: true, DCL: true, Seed: *seed, MaxThreads: maxThreads,
		Clock: kernel.NewScaledClock(*timeScale), Record: *forensics,
	}
	plan, err := chaos.Parse(*inject)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvee-serve:", err)
		os.Exit(2)
	}
	injector := chaos.New(plan)
	if injector != nil {
		// One injector shared by the whole pool: the fault decisions stay
		// seeded and reproducible per total call order, and the admin
		// counters aggregate naturally.
		sess.Inject = injector
	}
	fcfg := webserver.FleetConfig(wcfg, sess, *pool)
	fcfg.QueueCap = *queueCap
	fcfg.Workers = *workers

	fmt.Printf("warming %d sessions x %d variants (%s agent, %s policy)...\n",
		*pool, *variants, *agentName, *policyName)
	if injector != nil {
		fmt.Printf("chaos plan: %s\n", plan)
	}
	f, err := fleet.New(fcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()

	if *adminAddr != "" {
		srv := admin.New(f)
		bound, err := srv.Start(*adminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("admin plane on http://%s (/metrics /statusz /api/snapshot /debug/pprof)\n", bound)
	}

	// The load: conns clients, each issuing `requests` gateway requests.
	// Every 8th request probes /count, the endpoint that exposes the
	// custom-lock-protected counter — under -no-instrument this is what
	// surfaces the §5.5 benign divergence once traffic flows.
	var wg sync.WaitGroup
	for c := 0; c < *conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < *requests; r++ {
				req := []byte("GET /")
				if r%8 == 7 {
					req = []byte("GET /count")
				}
				f.Do(req)
			}
		}()
	}

	// The adversary: layout-targeted exploit payloads (the CVE-2013-2028
	// model), spaced through the run. Each one burns at most one session;
	// the fleet quarantines and hot-replaces it.
	var leaked atomic.Bool
	if *attacks > 0 {
		gadget := variant.NewSpace(0, variant.Options{ASLR: true, DCL: true, Seed: *seed}).AllocCode(64)
		payload := []byte(fmt.Sprintf("POST /upload %x", gadget))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := 0; a < *attacks; a++ {
				time.Sleep(5 * time.Millisecond)
				if resp, err := f.Do(payload); err == nil && strings.Contains(string(resp), "PWNED") {
					// Expected with -variants 1 (nothing to cross-check);
					// a real detection failure with >= 2 variants.
					fmt.Println("!! leak escaped the MVEE:", string(resp))
					leaked.Store(true)
				}
			}
		}()
	}
	// Hot restarts, spaced through the run: each sweep SIGHUPs every healthy
	// member, whose prefork parent drains the old worker generation into a
	// freshly re-randomized one without dropping a request.
	if *reloads > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < *reloads; i++ {
				time.Sleep(10 * time.Millisecond)
				n := f.Reload()
				fmt.Printf("hot restart %d/%d signalled to %d member(s)\n", i+1, *reloads, n)
			}
		}()
	}
	wg.Wait()

	// The verdict on the attacks. A quarantine is counted when the member's
	// divergence hook runs, which can trail the failed request it answered,
	// so wait (bounded) for every attack to be counted before rendering.
	failed := false
	if *attacks > 0 && *variants >= 2 {
		deadline := time.Now().Add(attackVerdictWait)
		for f.Stats().Divergences < uint64(*attacks) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		failed = leaked.Load() || f.Stats().Divergences < uint64(*attacks)
	}

	fmt.Println()
	fmt.Print(admin.Report(f.Snapshot()))
	if failed {
		fmt.Printf("\n!! FAIL: %d attacks, %d divergences quarantined within %v, leak escaped: %v\n",
			*attacks, f.Stats().Divergences, attackVerdictWait, leaked.Load())
	}

	if *linger > 0 {
		fmt.Printf("\nlingering %v for admin scrapes...\n", *linger)
		time.Sleep(*linger)
	}
	if failed {
		os.Exit(1)
	}
}

// attackVerdictWait bounds how long the run waits for its attacks'
// quarantines to be counted.
const attackVerdictWait = 10 * time.Second

func parseAgent(s string) (agent.Kind, error) {
	switch strings.ToLower(s) {
	case "to", "totalorder":
		return agent.TotalOrder, nil
	case "po", "partialorder":
		return agent.PartialOrder, nil
	case "woc", "wallofclocks":
		return agent.WallOfClocks, nil
	case "none":
		return agent.None, nil
	}
	return agent.None, fmt.Errorf("unknown agent %q (want to | po | woc | none)", s)
}
