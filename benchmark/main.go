// Command benchmark is the repository's one steady-state benchmark: four
// fixed workloads, the end-to-end metrics every later change is judged by,
// and a per-layer cost ledger measured from outside the layers. See
// README.md for what each workload and metric is for; run it through
// run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// options are the command's arguments.
type options struct {
	workload  string // "" = the whole suite
	seed      int64
	seconds   float64 // measuring time per workload
	trace     bool
	selfcheck bool
	clients   int // client goroutines and guest worker threads; 0 = nproc
	outDir    string
}

// parseArgs reads the flags. --trace is a boolean for `run.sh --trace` and
// takes a value in the driver's `--trace 0|1`; the flag package would stop
// at that bare 0 or 1, so it is joined to the flag first.
func parseArgs(args []string) (options, error) {
	var o options
	joined := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "--trace" || a == "-trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			i++
			a += "=" + args[i]
		}
		joined = append(joined, a)
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError) // a bad flag: usage, exit 2
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: the whole suite)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs and the variants' layouts")
	fs.Float64Var(&o.seconds, "seconds", 20, "measuring time per workload")
	fs.BoolVar(&o.trace, "trace", false, "traced run: layer cells, per-workload counts, spans")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced suite twice and compare against BENCHMARK.json's bounds")
	fs.IntVar(&o.clients, "clients", 0, "client goroutines and guest worker threads (default: nproc)")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for result.json, trace.json, selfcheck.json")
	fs.Parse(joined)
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

// hostFacts identify what produced a result file.
type hostFacts struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Seed       int64  `json:"seed"`
}

// resultFile is benchmark/out/result.json.
type resultFile struct {
	Host      hostFacts         `json:"host"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"seconds_per_workload"`
	Workloads []*wlResult       `json:"workloads"`
	Layers    map[string]metric `json:"layers,omitempty"`
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	// The load shape: GOMAXPROCS = nproc, and never more clients than CPUs —
	// an oversubscribed closed loop measures the Go scheduler, and a single
	// CPU cannot run a master and a slave side by side at all.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if nproc < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: needs GOMAXPROCS >= 2 (a master and a slave must run side by side); this host has 1 CPU")
		os.Exit(2)
	}
	if o.clients == 0 {
		o.clients = nproc
	}
	if o.clients < 1 || o.clients > nproc {
		fmt.Fprintf(os.Stderr, "benchmark: --clients %d: must be 1..nproc (%d)\n", o.clients, nproc)
		os.Exit(2)
	}
	// GC pacing is part of the load shape. At the default pacing the
	// collector runs every 4 MB of a heap this small — sixty cycles in one
	// syscall_mix round, each taking a CPU from a guest thread at a moment of
	// its own choosing — and was the largest single source of run-to-run
	// noise. So the pacer is off, guarded() collects between rounds, and the
	// memory limit is only a backstop no round reaches. What a change
	// allocates still shows: as alloc_bytes_per_op, and as the time
	// allocating itself takes.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(1 << 30)
	// The command never hangs: every round runs under its own watchdog, and
	// this is the backstop for anything else (a layer cell, a teardown).
	limit := 170 * time.Second
	if o.workload == "" {
		limit = time.Duration(o.seconds*12)*time.Second + 10*time.Minute
	}
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: still running after %v; giving up\n", limit)
		os.Exit(3)
	})

	host := hostFacts{Commit: os.Getenv("BENCH_COMMIT"), GoVersion: runtime.Version(),
		NumCPU: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: o.clients, Seed: o.seed}
	if host.Commit == "" {
		host.Commit = "unknown"
	}
	fmt.Printf("# host: commit=%s go=%s nproc=%d GOMAXPROCS=%d clients=%d seed=%d\n",
		host.Commit, host.GoVersion, host.NumCPU, host.GOMAXPROCS, host.Clients, host.Seed)

	if o.selfcheck {
		os.Exit(selfcheck(o, host))
	}
	rf, ok := runSuite(o, host)
	if err := writeJSON(filepath.Join(o.outDir, "result.json"), rf); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if o.workload != "" {
		printDriverLine(rf, o.trace)
	}
	if !ok {
		os.Exit(1)
	}
}

// runSuite runs the selected workloads (untraced: end-to-end metrics;
// traced: layer cells, per-workload counts and the span file) and prints
// every metric by name. ok is false when an output check failed or more
// than 1% of operations failed.
func runSuite(o options, host hostFacts) (*resultFile, bool) {
	e := &env{nproc: o.clients, seed: o.seed, scale: 1}
	rf := &resultFile{Host: host, Traced: o.trace, Seconds: o.seconds}
	var tr *tracer
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		tr = newTracer()
		// The whole suite measures the layer cells once, at 200 ms a
		// repetition. A traced run of one workload (the driver's) has to fit
		// them in its own time: 60% for the cells (about 45 of them, 5
		// repetitions each and about 3 more spent calibrating and setting
		// up), 40% for the workload's traced pairs.
		cells := cellTimer{reps: 5, rep: 200 * time.Millisecond}
		if o.workload != "" {
			cells.rep = max(10*time.Millisecond, budget*6/10/(45*8))
			budget = budget * 4 / 10
		}
		// The cells run under the default pacer, as bench_test.go's do.
		// Several allocate per operation (a session, a 4 KiB read); with
		// the pacer off and nothing collecting inside a repetition, they
		// would be timed faulting in fresh pages all the way to the limit.
		debug.SetGCPercent(100)
		rf.Layers = layerCells(cells, e.nproc, e.seed)
		debug.SetGCPercent(-1)
		printMetrics("layers", rf.Layers)
	}
	ok, found := true, false
	for _, entry := range workloadTable {
		if o.workload != "" && o.workload != entry.name {
			continue
		}
		found = true
		res := measure(func() *workload { return entry.build(e) }, budget, tr)
		rf.Workloads = append(rf.Workloads, res)
		fmt.Printf("# %s: %d %s/round, %d pairs, %.1fs — %s\n", res.Name, res.OpsRound, res.OpUnit, res.Pairs, res.WallS, res.Why)
		printMetrics(res.Name, res.EndToEnd)
		printMetrics(res.Name, res.Reported)
		printMetrics(res.Name, res.Layer)
		fmt.Printf("%-16s %-28s %12.6g frac   (%d failed of %d attempted)\n",
			res.Name, "failed_frac", res.failedFrac(), res.Failed, res.Attempted)
		for _, c := range res.Checks {
			fmt.Printf("%-16s CHECK FAILED: %s\n", res.Name, c)
		}
		if len(res.Checks) > 0 || res.failedFrac() > 0.01 {
			ok = false
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if o.trace {
		stats := tr.stats()
		tf := map[string]any{"span_stats": stats, "spans_sample": tr.sample(4000), "layers": rf.Layers}
		if err := writeJSON(filepath.Join(o.outDir, "trace.json"), tf); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			ok = false
		}
		for _, s := range stats {
			fmt.Printf("%-16s %-28s count=%d total=%.1fms self=%.1fms\n", "span", s.Name, s.Count, s.TotalMs, s.SelfMs)
		}
	}
	return rf, ok
}

func printMetrics(scope string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Printf("%-16s %-28s %12.6g %-6s q1=%.6g q3=%.6g n=%d\n",
			scope, strings.Replace(n, "workload.", scope+".", 1), m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
}

// printDriverLine prints the one-line JSON result the driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func printDriverLine(rf *resultFile, traced bool) {
	res := rf.Workloads[0]
	metrics := map[string]map[string]any{}
	put := func(ms map[string]metric) {
		for n, m := range ms {
			v := m.Value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // JSON has no NaN; correct=false already says the run is bad
			}
			metrics[n] = map[string]any{"value": v, "unit": m.Unit}
		}
	}
	if traced {
		put(rf.Layers)
		put(res.Layer)
	} else {
		put(res.EndToEnd)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   len(res.Checks) == 0,
		"attempted": max(res.Attempted, 1),
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// benchmarkSpec is the part of BENCHMARK.json selfcheck needs: each
// end-to-end metric's bound and direction.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfcheck runs the untraced suite twice on the same commit and compares
// every end-to-end median against the benchmark's own bound: the check
// that the yardstick is steadier than the changes it is meant to judge.
func selfcheck(o options, host hostFacts) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	var spec benchmarkSpec
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: selfcheck needs BENCHMARK.json in the working directory:", err)
		return 2
	}
	o.trace = false
	var runs [2]*resultFile
	code := 0
	for i := range runs {
		fmt.Printf("# selfcheck: run %d of 2\n", i+1)
		var ok bool
		if runs[i], ok = runSuite(o, host); !ok {
			code = 1
		}
	}
	fmt.Printf("# selfcheck: %-16s %-20s %12s %12s %8s %6s\n", "workload", "metric", "run1", "run2", "worse", "bound")
	for wi, w1 := range runs[0].Workloads {
		w2 := runs[1].Workloads[wi]
		for _, m := range spec.EndToEnd {
			a, b := w1.EndToEnd[m.Name].Value, w2.EndToEnd[m.Name].Value
			// worse: by what share of run 1 did run 2 get worse (negative = better).
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if !(worse <= m.Bound) {
				verdict, code = "EXCEEDS", 1
			}
			fmt.Printf("# selfcheck: %-16s %-20s %12.6g %12.6g %+7.1f%% %5.0f%% %s\n",
				w1.Name, m.Name, a, b, worse*100, m.Bound*100, verdict)
		}
		if w1.Failed+w2.Failed > 0 {
			fmt.Printf("# selfcheck: %-16s failed operations: %d and %d\n", w1.Name, w1.Failed, w2.Failed)
			code = 1
		}
	}
	if err := writeJSON(filepath.Join(o.outDir, "selfcheck.json"), map[string]any{"run1": runs[0], "run2": runs[1]}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return code
}
