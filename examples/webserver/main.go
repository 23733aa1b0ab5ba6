// Webserver reproduces the paper's §5.5 use case end to end:
//
//  1. Serve load through a thread-pooled server running as two diversified
//     variants (ASLR + disjoint code layouts) and measure throughput
//     against a single native variant.
//  2. Launch the CVE-2013-2028-style attack tailored to one variant's
//     layout: against a single variant it succeeds; against two variants
//     the monitor detects divergence and shuts the server down before the
//     leaked data escapes.
//  3. Scale out: serve the same workload from a FLEET of MVEE sessions
//     behind a gateway, fire the attack mid-traffic, and watch the fleet
//     quarantine the one diverged session, hot-replace it with a
//     re-randomized one, and keep serving — the same payload is then
//     harmless against the replacement.
package main

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	mvee "repro"
	"repro/internal/fleet"
	"repro/internal/variant"
	"repro/internal/webserver"
)

const seed = 2028

func startServer(cfg webserver.Config, variants int, kind mvee.AgentKind) (*mvee.Session, func() *mvee.Result) {
	s, stop, err := webserver.Start(mvee.Options{
		Variants: variants, Agent: kind, ASLR: true, DCL: true, Seed: seed, MaxThreads: 64,
	}, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return s, stop
}

func main() {
	// Throughput: native vs 2 variants (the paper measures 48% loopback
	// overhead; shape, not absolute numbers, is what we reproduce).
	fmt.Println("== throughput (loopback, 4 KiB page, 8 pool threads) ==")
	tput := func(variants int, kind mvee.AgentKind, port uint16) float64 {
		cfg := webserver.Config{Port: port, PoolThreads: 8, InstrumentCustomSync: true}
		s, stop := startServer(cfg, variants, kind)
		res := webserver.GenerateLoad(s.Kernel(), port, 10, 30)
		stop()
		return res.Throughput()
	}
	native := tput(1, mvee.NoAgent, 8080)
	protected := tput(2, mvee.WallOfClocks, 8081)
	fmt.Printf("native    : %8.0f req/s\n", native)
	fmt.Printf("2 variants: %8.0f req/s  (%.1f%% overhead; paper: 48%% on loopback)\n\n",
		protected, (1-protected/native)*100)

	// The attack: gadget address computed for variant 0's layout, exactly
	// what a one-variant info leak would give the adversary.
	gadget := variant.NewSpace(0, variant.Options{ASLR: true, DCL: true, Seed: seed}).AllocCode(64)
	attack := fmt.Sprintf("POST /upload %x", gadget)

	fmt.Println("== attack against a single (unprotected) variant ==")
	cfg := webserver.Config{Port: 8082, PoolThreads: 4, InstrumentCustomSync: true, Vulnerable: true}
	s, stop := startServer(cfg, 1, mvee.NoAgent)
	resp, err := webserver.Request(s.Kernel(), cfg.Port, attack)
	fmt.Printf("response: %q err=%v\n", resp, err)
	if strings.Contains(resp, "PWNED") {
		fmt.Println("=> exploit succeeded: code pointer leaked")
		fmt.Println()
	}
	stop()

	fmt.Println("== the same attack against two variants under the MVEE ==")
	cfg.Port = 8083
	s, stop = startServer(cfg, 2, mvee.WallOfClocks)
	resp, err = webserver.Request(s.Kernel(), cfg.Port, attack)
	fmt.Printf("response: %q err=%v\n", resp, err)
	res := stop()
	if res.Divergence != nil {
		fmt.Printf("=> attack DETECTED, variants terminated before output escaped:\n   %v\n", res.Divergence)
	} else {
		fmt.Println("=> attack was not detected (unexpected)")
	}

	// 3. The fleet: a pool of 4 MVEE sessions behind a gateway, attacked
	// mid-traffic. One session burns; the pool keeps serving.
	fmt.Println("\n== the attack against a FLEET of 4 MVEE sessions ==")
	pool, err := mvee.NewFleet(webserver.FleetConfig(
		webserver.Config{Port: 8084, PoolThreads: 4, InstrumentCustomSync: true, Vulnerable: true},
		mvee.Options{Variants: 2, Agent: mvee.WallOfClocks, ASLR: true, DCL: true, Seed: seed, MaxThreads: 64},
		4,
	))
	if err != nil {
		fmt.Println("fleet failed to start:", err)
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 25; r++ {
				pool.Do([]byte("GET /"))
			}
		}()
	}
	payload := []byte(attack)
	fresp, ferr := pool.Do(payload)
	fmt.Printf("attack response: %q err=%v\n", fresp, ferr)
	wg.Wait()
	for _, q := range pool.Quarantined() {
		fmt.Printf("=> QUARANTINED slot %d (served %d requests before divergence):\n   %v\n",
			q.Slot, q.Served, q.Divergence)
	}

	// Each exploit burns at most one session, and every replacement is
	// re-randomized. Keep replaying the same payload until every
	// original-layout session has been recycled (a replay that lands on
	// a replacement is already benign); then the leaked address is
	// garbage in EVERY variant — an error page, never a divergence.
	waitHealthy := func() {
		deadline := time.Now().Add(10 * time.Second)
		for pool.Stats().Healthy < 4 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	originals := func() (n int) {
		for _, m := range pool.Members() {
			if m.Gen == 0 {
				n++
			}
		}
		return n
	}
	for round := 2; originals() > 0; round++ {
		waitHealthy()
		fresp, ferr = pool.Do(payload)
		switch {
		case errors.Is(ferr, fleet.ErrNoHealthyMember) || errors.Is(ferr, fleet.ErrClosed):
			fmt.Printf("replay %d: pool busy recycling, retrying\n", round)
		case ferr != nil:
			// The member died mid-request: this payload burned it. (The
			// slot swap lands asynchronously, so don't quote a
			// remaining-originals count here — it would lag by one.)
			fmt.Printf("replay %d: burned one more original-layout session\n", round)
		default:
			fmt.Printf("replay %d: landed on a re-randomized session — benign %q\n", round, fresp)
		}
	}
	waitHealthy()
	fresp, ferr = pool.Do(payload)
	fmt.Printf("all original layouts recycled; the same payload is now harmless: %q err=%v\n", fresp, ferr)
	stats := pool.Stats()
	fmt.Printf("fleet served %d requests, %d divergence(s) quarantined, %d session(s) recycled, %d healthy\n",
		stats.Served, stats.Divergences, stats.Recycled, stats.Healthy)
	pool.Close()
}
