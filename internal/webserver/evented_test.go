package webserver

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fleet"
)

// The evented mode must pass the same serving/divergence/leak suite the
// thread-pool mode does: the only change is the concurrency model (one
// thread multiplexing connections through replicated SysPoll).

func TestEventedServesStaticPageUnderMVEE(t *testing.T) {
	cfg := Config{Port: 8180, PageSize: 4096, Evented: true, InstrumentCustomSync: true}
	s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)
	res := GenerateLoad(s.Kernel(), cfg.Port, 4, 25)
	if res.Errors > 0 || res.Responses != res.Requests {
		t.Fatalf("load: %+v", res)
	}
	if res.Bytes < res.Responses*4096 {
		t.Fatalf("short responses: %d bytes over %d responses", res.Bytes, res.Responses)
	}
	final := shutdown()
	if final.Divergence != nil {
		t.Fatalf("evented server diverged under benign load: %v", final.Divergence)
	}
}

func TestEventedCountEndpointIsConsistent(t *testing.T) {
	// The event loop is single-threaded, so the /count endpoint is
	// deterministic by construction — across variants it must never
	// diverge, with no custom lock involved at all.
	cfg := Config{Port: 8181, Evented: true}
	s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)
	for round := 0; round < 25; round++ {
		if _, err := CountProbe(s.Kernel(), cfg.Port); err != nil {
			t.Fatalf("count probe %d: %v", round, err)
		}
	}
	res := shutdown()
	if res.Divergence != nil {
		t.Fatalf("evented /count diverged: %v", res.Divergence)
	}
}

func TestEventedAttackDetectedWithTwoVariants(t *testing.T) {
	// The §5.5 security result holds unchanged in the evented mode: the
	// divergent send is caught before the leak escapes, whichever
	// concurrency model produced it.
	for _, target := range []int{0, 1} {
		cfg := Config{Port: uint16(8182 + target), Evented: true, Vulnerable: true}
		s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)
		resp, err := Attack(s.Kernel(), cfg.Port, attackGadget(target, 77))
		if err == nil && strings.Contains(resp, "PWNED") {
			t.Fatalf("target=%d: leak escaped the MVEE: %q", target, resp)
		}
		res := shutdown()
		if res.Divergence == nil {
			t.Fatalf("target=%d: attack not detected", target)
		}
		if res.Divergence.Reason != "payload mismatch" {
			t.Fatalf("target=%d: unexpected reason %q", target, res.Divergence.Reason)
		}
	}
}

func TestEventedBenignTrafficWithVulnerableEndpointDoesNotDiverge(t *testing.T) {
	cfg := Config{Port: 8190, Evented: true, Vulnerable: true, InstrumentCustomSync: true}
	s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)
	res := GenerateLoad(s.Kernel(), cfg.Port, 4, 20)
	if res.Errors > 0 {
		t.Fatalf("benign load errored: %+v", res)
	}
	final := shutdown()
	if final.Divergence != nil {
		t.Fatalf("false positive: %v", final.Divergence)
	}
}

func TestEventedFleetServes(t *testing.T) {
	// The fleet gateway drives the evented mode exactly like the threaded
	// one: warm spawn probes, watchdog closes, and divergence quarantine
	// all ride the same ClientConn surface.
	cfg := Config{Port: 8191, PageSize: 512, Evented: true, Vulnerable: true, InstrumentCustomSync: true}
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
	// Burn one member with a layout-targeted exploit; the fleet must
	// quarantine and keep serving through the evented pool.
	f.Do([]byte(fmt.Sprintf("POST /upload %x", attackGadget(0, 11))))
	for i := 0; i < 16; i++ {
		if _, err := f.Do([]byte("GET /")); err != nil {
			t.Fatalf("post-attack request %d: %v", i, err)
		}
	}
	awaitBurnAndReplace(t, f)
}
