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
	checkServesLoad(t, Config{Port: 8180, PageSize: 4096, Evented: true, InstrumentCustomSync: true}, 25)
}

func TestEventedCountEndpointIsConsistent(t *testing.T) {
	// The event loop is single-threaded, so the /count endpoint is
	// deterministic by construction — across variants it must never
	// diverge, with no custom lock involved at all.
	checkCountConsistent(t, Config{Port: 8181, Evented: true})
}

func TestEventedAttackDetectedWithTwoVariants(t *testing.T) {
	// The §5.5 security result holds unchanged in the evented mode: the
	// divergent send is caught before the leak escapes, whichever
	// concurrency model produced it.
	checkAttackDetected(t, Config{Port: 8182, Evented: true})
}

func TestEventedBenignTrafficWithVulnerableEndpointDoesNotDiverge(t *testing.T) {
	checkServesLoad(t, Config{Port: 8190, Evented: true, Vulnerable: true, InstrumentCustomSync: true}, 20)
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
