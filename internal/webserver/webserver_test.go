package webserver

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/variant"
)

// startServer launches the server under the MVEE and returns the session
// plus Start's shutdown function.
func startServer(t *testing.T, cfg Config, variants int, kind agent.Kind) (*core.Session, func() *core.Result) {
	t.Helper()
	s, stop, err := Start(core.Options{
		Variants: variants, Agent: kind, ASLR: true, DCL: true, Seed: 77, MaxThreads: 64,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, stop
}

// The three serving modes pass one suite: each mode's tests run these
// checks against its own Config.

// checkServesLoad drives 4 keep-alive clients × requests GET / at two
// variants: every request is answered with the whole page and nothing
// diverges.
func checkServesLoad(t *testing.T, cfg Config, requests int) {
	t.Helper()
	cfg.fill()
	s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)
	res := GenerateLoad(s.Kernel(), cfg.Port, 4, requests)
	final := shutdown()
	if res.Errors > 0 || res.Responses != res.Requests {
		t.Fatalf("load: %+v", res)
	}
	if res.Bytes < res.Responses*cfg.PageSize {
		t.Fatalf("short responses: %d bytes over %d responses", res.Bytes, res.Responses)
	}
	if final.Divergence != nil {
		t.Fatalf("diverged under benign load: %v", final.Divergence)
	}
}

// checkAttackDetected aims the layout-targeted exploit at each of two
// variants in turn, on cfg.Port and the port after it. The attack
// connection must NOT receive the leak: the monitor kills the variants at
// the divergent send, so the client sees an error or EOF.
func checkAttackDetected(t *testing.T, cfg Config) {
	t.Helper()
	cfg.Vulnerable = true
	for target := 0; target < 2; target++ {
		s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)
		resp, err := Request(s.Kernel(), cfg.Port, fmt.Sprintf("POST /upload %x", attackGadget(target, 77)))
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
		cfg.Port++
	}
}

// checkCountConsistent asks for /count 25 times in turn: a mode whose
// counter is deterministic across variants never diverges on it.
func checkCountConsistent(t *testing.T, cfg Config) {
	t.Helper()
	s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)
	for round := 0; round < 25; round++ {
		if _, err := Request(s.Kernel(), cfg.Port, "GET /count"); err != nil {
			t.Fatalf("count probe %d: %v", round, err)
		}
	}
	if res := shutdown(); res.Divergence != nil {
		t.Fatalf("/count diverged: %v", res.Divergence)
	}
}

func TestServesStaticPageUnderMVEE(t *testing.T) {
	checkServesLoad(t, Config{Port: 8080, PoolThreads: 4, InstrumentCustomSync: true, PageSize: 4096}, 25)
}

func TestUninstrumentedCustomSyncDiverges(t *testing.T) {
	// §5.5: "if we do not instrument these custom synchronization
	// primitives, nginx does not function correctly ... starts up
	// normally, but quickly triggers a divergence when network traffic
	// starts flowing in." The /count endpoint exposes the custom-lock-
	// protected counter, so unordered increments surface as divergent
	// response payloads.
	cfg := Config{Port: 8081, PoolThreads: 4, InstrumentCustomSync: false}
	s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)
	// Hammer /count from several connections until divergence (bounded).
	diverged := false
	for round := 0; round < 200 && !diverged; round++ {
		done := make(chan struct{}, 8)
		for c := 0; c < 8; c++ {
			go func() {
				Request(s.Kernel(), cfg.Port, "GET /count")
				done <- struct{}{}
			}()
		}
		for c := 0; c < 8; c++ {
			<-done
		}
		diverged = s.Monitor().Killed()
	}
	res := shutdown()
	if res.Divergence == nil {
		t.Fatal("uninstrumented custom sync did not cause divergence (the §5.5 negative result)")
	}
}

func TestInstrumentedCountEndpointIsConsistent(t *testing.T) {
	cfg := Config{Port: 8082, PoolThreads: 4, InstrumentCustomSync: true}
	s, shutdown := startServer(t, cfg, 2, agent.WallOfClocks)
	for round := 0; round < 50; round++ {
		done := make(chan struct{}, 4)
		for c := 0; c < 4; c++ {
			go func() {
				Request(s.Kernel(), cfg.Port, "GET /count")
				done <- struct{}{}
			}()
		}
		for c := 0; c < 4; c++ {
			<-done
		}
	}
	res := shutdown()
	if res.Divergence != nil {
		t.Fatalf("instrumented /count diverged: %v", res.Divergence)
	}
}

// attackGadget computes the code address the attacker would use, i.e. the
// handler address in the targeted variant's layout — exactly what a
// per-variant information leak would give a real adversary.
func attackGadget(targetVariant int, seed int64) uint64 {
	space := variant.NewSpace(targetVariant, variant.Options{ASLR: true, DCL: true, Seed: seed})
	return space.AllocCode(64)
}

func TestAttackSucceedsAgainstSingleVariant(t *testing.T) {
	// Baseline (§5.5): "our attack could successfully compromise nginx
	// running ... as a single variant inside our MVEE."
	cfg := Config{Port: 8083, PoolThreads: 2, InstrumentCustomSync: true, Vulnerable: true}
	s, shutdown := startServer(t, cfg, 1, agent.None)
	resp, err := Request(s.Kernel(), cfg.Port, fmt.Sprintf("POST /upload %x", attackGadget(0, 77)))
	if err != nil {
		t.Fatalf("attack request failed: %v", err)
	}
	if !strings.Contains(resp, "PWNED") {
		t.Fatalf("attack against single variant failed: %q", resp)
	}
	if res := shutdown(); res.Divergence != nil {
		t.Fatalf("single variant cannot diverge: %v", res.Divergence)
	}
}

func TestAttackDetectedWithTwoVariants(t *testing.T) {
	// The headline security result: with >= 2 variants the MVEE detects
	// divergence and shuts down before the compromised output escapes.
	checkAttackDetected(t, Config{Port: 8084, PoolThreads: 2, InstrumentCustomSync: true})
}

func TestBenignTrafficWithVulnerableEndpointDoesNotDiverge(t *testing.T) {
	// The vulnerable build behaves identically across variants as long as
	// nobody exploits it: no false positives.
	checkServesLoad(t, Config{Port: 8090, PoolThreads: 4, InstrumentCustomSync: true, Vulnerable: true}, 20)
}

func TestThroughputMeasurable(t *testing.T) {
	// Sanity for the §5.5 performance experiment: the load generator
	// reports a plausible throughput.
	cfg := Config{Port: 8091, PoolThreads: 4, InstrumentCustomSync: true}
	s, shutdown := startServer(t, cfg, 1, agent.None)
	res := GenerateLoad(s.Kernel(), cfg.Port, 2, 30)
	if res.Throughput() <= 0 {
		t.Fatalf("throughput = %v", res.Throughput())
	}
	shutdown()
}
