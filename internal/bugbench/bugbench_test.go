package bugbench

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/workload"
)

// seeds is the determinism sweep: every entry must reach its annotated
// verdict under each of these seeds (different layouts, same schedule
// forcing), per the acceptance criteria.
var seeds = []int64{1, 2, 3, 4, 5}

func TestAnnotationRoundTrip(t *testing.T) {
	for _, e := range Corpus() {
		a, err := ParseAnnotation(e.Annot)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if got := a.String(); got != e.Annot {
			t.Errorf("%s: annotation not canonical: stored %q, canonical %q", e.Name, e.Annot, got)
		}
		b, err := ParseAnnotation(a.String())
		if err != nil {
			t.Fatalf("%s: reparse: %v", e.Name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: round trip changed the annotation: %+v vs %+v", e.Name, a, b)
		}
	}
}

func TestAnnotationRejects(t *testing.T) {
	for _, bad := range []string{
		"",                          // no expect
		"expect=wedged",             // unknown verdict
		"expect deadlock",           // not key=value
		"expect=deadlock cycle=1,2", // missing t prefix
		"expect=deadlock cycle=tx",  // non-numeric tid
		"expect=deadlock expect-divergence=maybe", // unknown divergence mode
		"expect=clean color=red",                  // unknown key
	} {
		if _, err := ParseAnnotation(bad); err == nil {
			t.Errorf("ParseAnnotation(%q) accepted", bad)
		}
	}
}

// TestCorpusShape pins the corpus composition the acceptance criteria name:
// at least 12 deadlock reproductions, plus clean and divergence controls,
// under unique names.
func TestCorpusShape(t *testing.T) {
	counts := map[string]int{}
	names := map[string]bool{}
	for _, e := range Corpus() {
		if names[e.Name] {
			t.Fatalf("duplicate entry name %q", e.Name)
		}
		names[e.Name] = true
		a, err := ParseAnnotation(e.Annot)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		counts[a.Expect]++
	}
	if counts["deadlock"] < 12 {
		t.Errorf("corpus has %d deadlock entries, want >= 12", counts["deadlock"])
	}
	if counts["clean"] < 1 || counts["divergence"] < 1 {
		t.Errorf("corpus lacks controls: %v", counts)
	}
}

// TestCorpusVerdicts runs every entry under every seed and asserts the
// session's verdict — outcome, cycle, and divergence channel — matches the
// entry's annotation.
func TestCorpusVerdicts(t *testing.T) {
	for _, e := range Corpus() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				if err := Check(e, seed); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestAbbaInversionRepeats is the regression for the detector's one known
// false positive: vthreads used to register on the BlockBoard from inside
// their own goroutine, so between `go` and that registration the board
// undercounted live threads. In abba-inversion t0 exits and t1 parks on the
// barrier before t2 has registered — live == blocked == 1, and the board
// reported "deadlock: 1 blocked" with an empty cycle about one run in five.
// With liveness registered by the launcher the verdict must be the
// annotated cycle every time.
func TestAbbaInversionRepeats(t *testing.T) {
	for _, e := range Corpus() {
		if e.Name != "abba-inversion" {
			continue
		}
		for i := 0; i < 200; i++ {
			if err := Check(e, seeds[i%len(seeds)]); err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
		}
		return
	}
	t.Fatal("abba-inversion is not in the corpus")
}

// TestWriteFullHoldingLockRepeats: the entry whose verdict used to be a race
// (it ended `hang` about once in 150 runs, while a third thread's exit
// queued behind the sleeping writer's turn) reaches its annotated deadlock
// every time, each run under a 2 s watchdog.
func TestWriteFullHoldingLockRepeats(t *testing.T) {
	for _, e := range Corpus() {
		if e.Name != "write-full-holding-lock" {
			continue
		}
		for i := 0; i < 200; i++ {
			if v := Run(e, seeds[i%len(seeds)], 2*time.Second); v.Outcome != "deadlock" {
				t.Fatalf("run %d: verdict %q, want deadlock (%v)", i, v.Outcome, v.Result.Deadlock)
			}
		}
		return
	}
	t.Fatal("write-full-holding-lock is not in the corpus")
}

// TestArmedDetectorNoFalsePositiveOnWorkloads runs real (live, terminating)
// workload shapes with the detector armed: none may be reported as
// deadlocked or diverged. This is the corpus's negative space — the
// guarantee that arming the detector in production costs no spurious kills.
func TestArmedDetectorNoFalsePositiveOnWorkloads(t *testing.T) {
	for _, name := range []string{"dedup", "facesim", "radiosity", "water_nsquared"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog := b.Build(workload.Params{Workers: 4, Units: 400, WorkPerUnit: 30})
			res := core.Run(core.Options{
				Variants:        2,
				Agent:           agent.WallOfClocks,
				ASLR:            true,
				DCL:             true,
				Seed:            7,
				DetectDeadlocks: true,
			}, prog)
			if res.Deadlock != nil {
				t.Fatalf("false positive: %v", res.Deadlock)
			}
			if res.Divergence != nil {
				t.Fatalf("unexpected divergence: %v", res.Divergence)
			}
			if res.Panic != nil {
				t.Fatalf("panic: %v", res.Panic)
			}
		})
	}
}
