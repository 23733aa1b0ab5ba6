package bench

import (
	"math"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/analysis"
	"repro/internal/workload"
)

// tiny keeps harness tests fast.
var tiny = Config{Scale: 0.05, Workers: 4, Reps: 1, Seed: 11}

func TestMeasureNative(t *testing.T) {
	b, _ := workload.ByName("blackscholes")
	r := Measure(b, tiny, agent.None, 1)
	if r.Diverged {
		t.Fatal("native run diverged")
	}
	if r.Duration <= 0 {
		t.Fatal("no duration measured")
	}
	if r.Benchmark != "blackscholes" {
		t.Fatalf("benchmark name = %q", r.Benchmark)
	}
}

func TestSlowdownIsPositive(t *testing.T) {
	b, _ := workload.ByName("swaptions")
	native := Measure(b, tiny, agent.None, 1)
	mvee := Measure(b, tiny, agent.WallOfClocks, 2)
	if native.Diverged || mvee.Diverged {
		t.Fatal("diverged")
	}
	if sd := float64(mvee.Duration) / float64(native.Duration); sd <= 0 {
		t.Fatalf("slowdown = %v", sd)
	}
	if mvee.SyncOps == 0 {
		t.Fatal("no sync ops under the MVEE")
	}
}

func TestTable3AgainstPaper(t *testing.T) {
	tbl, reps := Table3()
	if len(reps) != 8 {
		t.Fatalf("%d units, want 8", len(reps))
	}
	// Every row must match the paper's counts exactly (the corpora are
	// generated to plant them; the analysis must recover them).
	for i, spec := range analysis.Table3Specs() {
		r := reps[i]
		if r.CountI != spec.I || r.CountII != spec.II || r.CountIII != spec.III {
			t.Errorf("%s: %d/%d/%d, paper %d/%d/%d",
				spec.Name, r.CountI, r.CountII, r.CountIII, spec.I, spec.II, spec.III)
		}
	}
	if out := tbl.String(); !strings.Contains(out, "libc-2.19.so") || !strings.Contains(out, "steensgaard") {
		t.Fatalf("table missing the libc row or the Steensgaard column:\n%s", out)
	}
}

// -scale multiplies each benchmark's own default units, so a scaled run
// keeps the registry's per-benchmark proportions (floor: 64 units).
func TestScaleScalesEachBenchmarksDefaultUnits(t *testing.T) {
	for _, scale := range []float64{0.05, 0.35, 2} {
		c := Config{Scale: scale}
		for _, b := range workload.All() {
			want := max(int(math.Round(scale*float64(b.DefaultUnits()))), 64)
			if got := c.params(b).Units; got != want {
				t.Errorf("%s at -scale %v: %d units, want %d (default %d)",
					b.Name, scale, got, want, b.DefaultUnits())
			}
		}
	}
}

func TestRatesComputed(t *testing.T) {
	b, _ := workload.ByName("dedup")
	r := Measure(b, tiny, agent.None, 1)
	if r.SyscallRate() <= 0 || r.SyncRate() <= 0 {
		t.Fatalf("rates = %v, %v", r.SyscallRate(), r.SyncRate())
	}
}

// The §5.5 cell in both serving modes. The evented row is the replication
// bill's gate: one wakeup's ready connections replicate as one batch, so a
// keep-alive static-page request costs fewer than 4 records (recv +
// sendfile + amortized poll).
func TestNginxHarness(t *testing.T) {
	for _, tc := range []struct {
		name       string
		evented    bool
		maxRecsReq float64
	}{
		{"thread-pool", false, 0},
		{"evented", true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			native, mvee, overhead, recs, err := Nginx(2, 8, 100, tc.evented)
			if err != nil {
				t.Fatal(err)
			}
			if native <= 0 || mvee <= 0 {
				t.Fatalf("throughputs = %v, %v", native, mvee)
			}
			if overhead >= 1 {
				t.Fatalf("overhead = %v (MVEE produced no throughput)", overhead)
			}
			t.Logf("%.2f records/req", recs)
			if recs <= 0 {
				t.Fatalf("replication bill: %.2f records/req, want > 0", recs)
			}
			if tc.maxRecsReq > 0 && recs >= tc.maxRecsReq {
				t.Fatalf("replication bill: %.2f records/req, want < %v", recs, tc.maxRecsReq)
			}
		})
	}
}
