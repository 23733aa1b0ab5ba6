package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	mvee "repro"
	"repro/internal/core"
)

func TestSummarize(t *testing.T) {
	cases := []struct {
		in             []float64
		q1, median, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		s := summarize(c.in)
		if s.Q1 != c.q1 || s.Median != c.median || s.Q3 != c.q3 || s.N != len(c.in) {
			t.Errorf("summarize(%v) = %+v, want q1=%v median=%v q3=%v", c.in, s, c.q1, c.median, c.q3)
		}
	}
	if s := summarize(nil); !math.IsNaN(s.Median) || s.N != 0 {
		t.Errorf("summarize(nil) = %+v, want NaN median and n=0", s)
	}
	in := []float64{3, 1, 2}
	if summarize(in); in[0] != 3 {
		t.Error("summarize sorted its argument in place")
	}
}

func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{50, 0, false},
		{100, 0.90, true},
		{200, 0.95, true},
		{900, 0.95, true},
		{1000, 0.99, true}, // index int(0.99*999) = 989 leaves exactly 10 beyond
		{10_000, 0.999, true},
		{100_000, 0.9999, true},
	}
	for _, c := range cases {
		if p, ok := highestPercentile(c.n); p != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestLatencyQuantiles(t *testing.T) {
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(1000-i) * 1000 // 1000us down to 1us, unsorted
	}
	p50, p99 := latencyQuantiles(ns, 0.99)
	if p50 != 500 || p99 != 990 {
		t.Errorf("latencyQuantiles = %v, %v; want 500, 990 (10 samples beyond the tail)", p50, p99)
	}
	if p50, p99 := latencyQuantiles(nil, 0.99); !math.IsNaN(p50) || !math.IsNaN(p99) {
		t.Errorf("latencyQuantiles(nil) = %v, %v; want NaN", p50, p99)
	}
}

func TestSlowestMeanUs(t *testing.T) {
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(i+1) * 1000 // 1us up to 1000us
	}
	cases := []struct {
		sample []int64
		share  float64
		want   float64
	}{
		{ns, 0.01, 995.5},      // the 10 samples beyond the p99
		{ns[:100], 0.10, 95.5}, // a job workload: the slowest tenth of 100 jobs
		{ns[:20], 0.10, 19.5},
		{ns[:1], 0.10, 1}, // never fewer than one sample
	}
	for _, c := range cases {
		if got := slowestMeanUs(c.sample, c.share); got != c.want {
			t.Errorf("slowestMeanUs(%d samples, %v) = %v, want %v", len(c.sample), c.share, got, c.want)
		}
	}
	if got := slowestMeanUs(nil, 0.01); !math.IsNaN(got) {
		t.Errorf("slowestMeanUs(nil) = %v, want NaN", got)
	}
}

func TestInterquartileMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 1000}, 4.5},              // middle four of eight; the outlier is cut
		{[]float64{250, 150, 250, 150, 250, 150, 250, 150}, 200}, // two modes of equal weight
		{[]float64{3, 1, 2}, 2},                                  // fewer than four: all of them
		{[]float64{7}, 7},
	}
	for _, c := range cases {
		if got := interquartileMean(c.in); got != c.want {
			t.Errorf("interquartileMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := interquartileMean(nil); !math.IsNaN(got) {
		t.Errorf("interquartileMean(nil) = %v, want NaN", got)
	}
}

func TestPairRatios(t *testing.T) {
	// One slow pair (host drift hit both sides) must not move the ratio.
	native := []float64{200, 100, 220, 180, 999}
	mveeOps := []float64{100, 50, 100, 0}
	got := pairRatios(native, mveeOps)
	want := []float64{2, 2, 2.2} // the 0 sample and the unpaired native one are dropped
	if len(got) != len(want) {
		t.Fatalf("pairRatios = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("pairRatios = %v, want %v", got, want)
		}
	}
	if m := summarize(got).Median; m != 2 {
		t.Errorf("median of pair ratios = %v, want 2", m)
	}
}

// A guest that blocks forever is killed at the deadline and reported as one
// wedged round with every planned operation failed.
func TestWatchdogReportsWedgedRound(t *testing.T) {
	w := &workload{name: "wedge", unit: "ops", planned: 1000}
	w.round = func(mv bool, pair int, wd *watchdog, tr *tracer) (out roundOut) {
		s := core.NewSession(sessionOpts(mv, 1), core.Program{Name: "double-lock", Main: func(t *core.Thread) {
			mu := mvee.NewMutex(t)
			mu.Lock(t)
			mu.Lock(t) // never returns
		}})
		runSession(s, wd, nil)
		out.attempted = w.planned // what a round that returned normally would claim
		return out
	}
	const deadline = 300 * time.Millisecond
	t0 := time.Now()
	out := guarded(w, true, 1, deadline, nil)
	if el := time.Since(t0); el > 2*deadline+time.Second {
		t.Errorf("wedged round took %v to report, deadline %v", el, deadline)
	}
	res := &wlResult{}
	var side sideSamples
	side.add(w, out, res)
	if !out.wedged || side.wedged != 1 {
		t.Errorf("wedged = %v, wedged_rounds = %d; want true, 1", out.wedged, side.wedged)
	}
	if res.failedFrac() != 1 || res.Attempted != w.planned {
		t.Errorf("failed %d of %d attempted, want all %d", res.Failed, res.Attempted, w.planned)
	}
	if len(side.opsPerS) != 0 {
		t.Error("a wedged round contributed a timing sample")
	}
	if len(res.Checks) == 0 {
		t.Error("a wedged round left no check failure")
	}
}

// smokeEnv is the recorded load shape at a fraction of the recorded size:
// the smallest at which every round still has the 1000 latency samples a p99
// needs.
func smokeEnv(t *testing.T) *env {
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark needs 2 CPUs")
	}
	return &env{nproc: 2, seed: 7, scale: 0.15}
}

// All four workloads build, run both sides and pass their output checks.
func TestSmokeWorkloads(t *testing.T) {
	e := smokeEnv(t)
	for _, entry := range workloadTable {
		res := measure(func() *workload { return entry.build(e) }, 0, nil)
		if len(res.Checks) > 0 || res.Failed > 0 {
			t.Errorf("%s: %d failed of %d, checks %v", entry.name, res.Failed, res.Attempted, res.Checks)
		}
		for name, m := range res.EndToEnd {
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v, want a positive number", entry.name, name, m.Value)
			}
		}
	}
}

// The workloads stress different layers, and the counts show it.
func TestSmokeLayerSeparation(t *testing.T) {
	e := smokeEnv(t)
	counts := map[string]map[string]metric{}
	for _, entry := range workloadTable {
		res := measure(func() *workload { return entry.build(e) }, 0, newTracer())
		if len(res.Checks) > 0 {
			t.Errorf("%s (traced): checks %v", entry.name, res.Checks)
		}
		counts[entry.name] = res.Layer
	}
	at := func(w, m string) float64 { return counts[w]["workload."+m].Value }
	if v := at("sync_fine", "records_per_op"); !(v < 0.001) {
		t.Errorf("sync_fine.records_per_op = %v, want < 0.001 (monitor nearly idle)", v)
	}
	if v := at("sync_fine", "syncops_per_op"); !(v >= 1) {
		t.Errorf("sync_fine.syncops_per_op = %v, want >= 1", v)
	}
	if v := at("syscall_mix", "syncops_per_op"); v != 0 {
		t.Errorf("syscall_mix.syncops_per_op = %v, want 0 (agent idle)", v)
	}
	ka, co := at("serve_keepalive", "records_per_op"), at("serve_connect", "records_per_op")
	if !(ka < 4 && co > ka) {
		t.Errorf("records_per_op: serve_keepalive %v, serve_connect %v; want keepalive < 4 and connect above it", ka, co)
	}
}

// BENCHMARK.json and the command agree on every metric name, so a metric
// cannot be renamed on one side only.
func TestBenchmarkJSONNamesMatch(t *testing.T) {
	e := smokeEnv(t)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside benchmark/:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadTable) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloadTable))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadTable) && w.Name != workloadTable[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloadTable[i].name)
		}
	}
	build := func() *workload { return workloadTable[1].build(e) }
	untraced := measure(build, 0, nil)
	traced := measure(build, 0, newTracer())
	layers := layerCells(cellTimer{rep: time.Millisecond, reps: 1}, e.nproc, e.seed)
	for n, m := range traced.Layer {
		layers[n] = m
	}
	same := func(kind string, want []struct{ Name, Unit string }, got map[string]metric) {
		var names []string
		for _, m := range want {
			names = append(names, m.Name)
			if g, ok := got[m.Name]; !ok {
				t.Errorf("%s: BENCHMARK.json names %q, the command does not print it", kind, m.Name)
			} else if g.Unit != m.Unit {
				t.Errorf("%s: %q has unit %q in BENCHMARK.json, %q in the command", kind, m.Name, m.Unit, g.Unit)
			}
		}
		sort.Strings(names)
		for n := range got {
			if i := sort.SearchStrings(names, n); i == len(names) || names[i] != n {
				t.Errorf("%s: the command prints %q, BENCHMARK.json does not name it", kind, n)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, untraced.EndToEnd)
	same("per_layer", spec.PerLayer, layers)
}
