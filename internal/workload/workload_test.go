package workload

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/monitor"
)

// tinyParams shrinks every benchmark to test scale.
func tinyParams() Params { return Params{Workers: 4, Units: 400, WorkPerUnit: 20} }

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 25 {
		t.Fatalf("registry has %d benchmarks, want 25 (PARSEC 12 + SPLASH 13)", len(all))
	}
	parsec, splash := 0, 0
	for _, b := range all {
		switch b.Suite {
		case "parsec":
			parsec++
		case "splash":
			splash++
		default:
			t.Errorf("%s: unknown suite %q", b.Name, b.Suite)
		}
		if b.PaperRunSec <= 0 {
			t.Errorf("%s: missing paper run time", b.Name)
		}
		if b.shape == nil || b.cfg.kernel == nil {
			t.Errorf("%s: no shape or no kernel", b.Name)
		}
	}
	if parsec != 12 || splash != 13 {
		t.Fatalf("parsec=%d splash=%d, want 12/13", parsec, splash)
	}
	for _, excluded := range []string{"canneal", "cholesky"} {
		if _, err := ByName(excluded); err == nil {
			t.Errorf("%s must be excluded (§5.1)", excluded)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("dedup")
	if err != nil || b.Name != "dedup" || b.Shape != "pipeline" {
		t.Fatalf("ByName(dedup) = %+v, %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
}

func TestNamesMatchRegistryOrder(t *testing.T) {
	names := Names()
	all := All()
	for i := range all {
		if names[i] != all[i].Name {
			t.Fatalf("Names()[%d] = %s, registry %s", i, names[i], all[i].Name)
		}
	}
}

// TestEveryBenchmarkRunsNatively runs each model single-variant at tiny
// scale: no divergence machinery, just sanity of the program structure.
func TestEveryBenchmarkRunsNatively(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			res := runOne(t, b, 1, agent.None)
			if res.Divergence != nil {
				t.Fatalf("single-variant run diverged: %v", res.Divergence)
			}
		})
	}
}

// TestEveryBenchmarkLockstepsUnderWoC is the §5.1 correctness result at
// test scale: every benchmark, 2 variants with ASLR, wall-of-clocks, no
// divergence.
func TestEveryBenchmarkLockstepsUnderWoC(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			res := runOne(t, b, 2, agent.WallOfClocks)
			if res.Divergence != nil {
				t.Fatalf("diverged under WoC: %v", res.Divergence)
			}
		})
	}
}

// TestRepresentativesUnderAllAgents runs one benchmark per shape under all
// three agents and three variants.
func TestRepresentativesUnderAllAgents(t *testing.T) {
	reps := []string{"blackscholes", "dedup", "streamcluster", "radiosity", "fluidanimate", "water_spatial"}
	for _, name := range reps {
		for _, k := range []agent.Kind{agent.TotalOrder, agent.PartialOrder, agent.WallOfClocks} {
			name, k := name, k
			t.Run(fmt.Sprintf("%s/%s", name, k), func(t *testing.T) {
				t.Parallel()
				b, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				res := runOne(t, b, 3, k)
				if res.Divergence != nil {
					t.Fatalf("diverged: %v", res.Divergence)
				}
			})
		}
	}
}

func runOne(t *testing.T, b Benchmark, variants int, kind agent.Kind) *core.Result {
	t.Helper()
	s := core.NewSession(core.Options{
		Variants: variants, Agent: kind, ASLR: true, Seed: 21, MaxThreads: 32,
	}, b.Build(tinyParams()))
	done := make(chan *core.Result, 1)
	go func() { done <- s.Run() }()
	select {
	case res := <-done:
		return res
	case <-time.After(120 * time.Second):
		s.Kill()
		t.Fatalf("%s deadlocked", b.Name)
		return nil
	}
}

func TestChecksumIdenticalAcrossRunsOfSameSeedLayout(t *testing.T) {
	// The computed checksum is a function of the input alone (not the
	// schedule): two independent native runs must agree.
	b, _ := ByName("fluidanimate")
	read := func() string {
		s := core.NewSession(core.Options{Variants: 1}, b.Build(tinyParams()))
		if res := s.Run(); res.Divergence != nil {
			t.Fatalf("diverged: %v", res.Divergence)
		}
		got, ok := s.Kernel().ReadFile("/checksum")
		if !ok {
			t.Fatal("no checksum written")
		}
		return string(got)
	}
	if a, b := read(), read(); a != b {
		t.Fatalf("checksums differ across runs: %s vs %s", a, b)
	}
}

func TestSyncRateOrderingMatchesPaper(t *testing.T) {
	// The models must preserve Table 2's gross ordering: radiosity and
	// fluidanimate are sync-op-dominated; blackscholes/fft/radix are
	// nearly sync-free. Every model runs the same Params, so the ordering is
	// asserted on sync-op counts: a rate would divide by a session of a few
	// milliseconds, whose wall-clock length a busy host stretches at will.
	ops := func(name string) uint64 {
		b, _ := ByName(name)
		s := core.NewSession(core.Options{Variants: 1}, b.Build(Params{Workers: 4, Units: 2000, WorkPerUnit: 30}))
		res := s.Run()
		if res.Divergence != nil {
			t.Fatalf("%s diverged", name)
		}
		return res.SyncOps
	}
	hi := []string{"radiosity", "fluidanimate"}
	lo := []string{"blackscholes", "fft", "radix"}
	count := map[string]uint64{}
	for _, name := range append(hi, lo...) {
		count[name] = ops(name)
	}
	for _, h := range hi {
		for _, l := range lo {
			if count[h] <= 10*count[l] {
				t.Errorf("sync ops of %s (%d) not ≫ %s (%d)", h, count[h], l, count[l])
			}
		}
	}
}

// TestCorrectnessSweepDiversityAndPolicies is the §5.1 correctness
// experiment at test scale: representative benchmarks under full diversity
// (ASLR + DCL) and both monitoring policies; no divergence anywhere.
func TestCorrectnessSweepDiversityAndPolicies(t *testing.T) {
	reps := []string{"dedup", "fluidanimate", "barnes", "water_spatial"}
	for _, name := range reps {
		for _, policy := range []monitor.Policy{
			monitor.PolicyStrictLockstep, monitor.PolicySecuritySensitive,
		} {
			name, policy := name, policy
			t.Run(fmt.Sprintf("%s/%v", name, policy), func(t *testing.T) {
				t.Parallel()
				b, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				s := core.NewSession(core.Options{
					Variants: 2, Agent: agent.WallOfClocks,
					ASLR: true, DCL: true, Policy: policy,
					Seed: 31, MaxThreads: 32,
				}, b.Build(tinyParams()))
				done := make(chan *core.Result, 1)
				go func() { done <- s.Run() }()
				select {
				case res := <-done:
					if res.Divergence != nil {
						t.Fatalf("diverged: %v", res.Divergence)
					}
				case <-time.After(120 * time.Second):
					s.Kill()
					t.Fatal("deadlock")
				}
			})
		}
	}
}
