package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
)

// env is the load shape every workload shares: a single process,
// GOMAXPROCS = nproc, closed loop, at most nproc clients and nproc guest
// worker threads per variant — so the numbers measure the MVEE and not the
// Go scheduler.
type env struct {
	nproc int
	seed  int64
	// scale multiplies every workload's per-round operation count; 1 is the
	// recorded size (see the constants in workloads.go), the smoke test runs
	// a fraction.
	scale float64
}

func (e *env) ops(base int) int { return max(int(float64(base)*e.scale), 64) }

// layoutSeed is Options.Seed (the variants' ASLR/DCL layouts) for one pair of
// rounds. Layouts move the numbers by several percent (which sync variables
// share a clock, which buffers share a cache set), so a run does not measure
// the one layout its seed happens to draw: every pair draws its own, both
// sides of a pair the same, and the medians are over a hundred of them.
func (e *env) layoutSeed(pair int) int64 { return e.seed*1_000_003 + int64(pair) }

// roundOut is what one round (one fresh session or fleet, set up, driven
// for a fixed operation count, torn down) hands back to the harness.
type roundOut struct {
	attempted, failed int
	setup             time.Duration // round begin to first timed operation
	elapsed           time.Duration // the timed operations only
	allocBytes        uint64        // runtime TotalAlloc delta over the timed operations
	lat               []int64       // per-operation latencies, ns (every request, or a sample)
	// Exact counts read from core.Result / fleet.Snapshot after the round.
	records, syncops, stalls uint64
	served                   int // operations the session answered over its life (warm-up included)
	reconnects               int
	check                    error // first output-check failure
	wedged                   bool
}

func (r *roundOut) fail(format string, a ...any) {
	if r.check == nil {
		r.check = fmt.Errorf(format, a...)
	}
}

// workload is one fixed set of inputs. round builds a fresh system, drives
// planned operations through it and checks the outputs; mvee selects the
// 2-variant WoC ASLR+DCL side or the 1-variant native side.
type workload struct {
	name, unit, why string
	// requestLatency: operations are requests that fail one by one, lat
	// holds one sample per request, and the p99 must qualify (>= tailBeyond
	// samples beyond it) in every round. Otherwise the round is a compute
	// job that passes or fails whole, weighted by its operations.
	requestLatency bool
	// jobLatency: the operation a caller waits for is the whole job, so
	// the latency samples are the rounds' own durations.
	jobLatency bool
	planned    int // operations per round, known before the round runs
	round      func(mvee bool, pair int, wd *watchdog, tr *tracer) roundOut
}

// watchdog collects the kill switches of the round in flight (Session.Kill,
// conn closes, Fleet.Close) so the harness can pull them when the deadline
// passes.
type watchdog struct {
	mu    sync.Mutex
	kills []func()
	fired bool
}

// onExpire registers f to run if the round's deadline passes; registered
// after the fact, f runs at once.
func (w *watchdog) onExpire(f func()) {
	w.mu.Lock()
	fired := w.fired
	if !fired {
		w.kills = append(w.kills, f)
	}
	w.mu.Unlock()
	if fired {
		f()
	}
}

func (w *watchdog) fire() {
	w.mu.Lock()
	w.fired = true
	kills := w.kills
	w.kills = nil
	w.mu.Unlock()
	for _, f := range kills {
		f()
	}
}

// guarded runs one round under the deadline. On expiry it pulls the
// round's kill switches and gives the round the same time again to unwind;
// a round that does not even unwind is abandoned (its goroutines leak, the
// command moves on). Either way every planned operation the round did not
// finish counts as failed.
func guarded(w *workload, mvee bool, pair int, deadline time.Duration, tr *tracer) roundOut {
	// main turns the GC pacer off, so this is where garbage goes: every
	// round starts from a collected heap and none pays for its predecessor's.
	runtime.GC()
	wd := &watchdog{}
	done := make(chan roundOut, 1) // buffered: an abandoned round must not block on its send
	go func() { done <- w.round(mvee, pair, wd, tr) }()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case out := <-done:
		return out
	case <-timer.C:
	}
	wd.fire()
	grace := time.NewTimer(deadline)
	defer grace.Stop()
	var out roundOut
	select {
	case out = <-done:
	case <-grace.C:
	}
	out.wedged = true
	finished := out.attempted - out.failed
	out.attempted = max(out.attempted, w.planned)
	out.failed = out.attempted - max(finished, 0)
	if !w.requestLatency {
		out.failed = out.attempted // a compute job that wedged finished nothing
	}
	out.fail("round wedged: deadline %v passed", deadline)
	return out
}

// metric is one reported value with its spread.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	summary
}

// MarshalJSON writes a value that has no samples (NaN) as null: JSON has no
// NaN, and a missing measurement must not read as a number.
func (m metric) MarshalJSON() ([]byte, error) {
	num := func(v float64) any {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		return v
	}
	return json.Marshal(map[string]any{"value": num(m.Value), "unit": m.Unit,
		"median": num(m.Median), "q1": num(m.Q1), "q3": num(m.Q3), "n": m.N})
}

// single is a value that is not a median of samples: a count, a quantile of
// a pooled sample, a difference of two medians. n says how many samples
// stand behind it.
func single(unit string, v float64, n int) metric {
	return metric{Value: v, Unit: unit, summary: summary{Median: v, Q1: v, Q3: v, N: n}}
}

func newMetric(unit string, samples []float64) metric {
	s := summarize(samples)
	return metric{Value: s.Median, Unit: unit, summary: s}
}

// wlResult is everything one workload run reports.
type wlResult struct {
	Name      string            `json:"name"`
	OpUnit    string            `json:"op_unit"`
	Why       string            `json:"why"`
	OpsRound  int               `json:"ops_per_round"`
	Pairs     int               `json:"pairs"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Reported  map[string]metric `json:"reported_not_gated,omitempty"`
	Layer     map[string]metric `json:"per_layer,omitempty"`
	Checks    []string          `json:"check_failures,omitempty"`
	WallS     float64           `json:"wall_s"`
}

func (r *wlResult) failedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// sideSamples accumulates one side's per-round samples.
type sideSamples struct {
	opsPerS, setupS          []float64
	p50, p99, tail           []float64 // per round (tail and p99 of a job workload: per block of rounds)
	block                    []int64   // a job workload's job times (ns) awaiting a full block
	allocBytes, ops          float64
	records, syncops, stalls float64
	served                   float64
	reconnects, wedged       int
}

func (s *sideSamples) add(w *workload, r roundOut, res *wlResult) {
	res.Attempted += r.attempted
	res.Failed += r.failed
	if r.check != nil && len(res.Checks) < 8 {
		res.Checks = append(res.Checks, r.check.Error())
	}
	if r.wedged {
		s.wedged++
		return // a wedged round has no valid timing
	}
	good := r.attempted - r.failed
	if r.elapsed > 0 {
		s.opsPerS = append(s.opsPerS, float64(good)/r.elapsed.Seconds())
	}
	s.setupS = append(s.setupS, r.setup.Seconds())
	if w.jobLatency {
		// The caller waits for the whole job, so a round is one latency
		// sample. A tail needs several: it is taken over each block of
		// jobBlock consecutive jobs, where the "p99" is the p90 and the
		// slowest 1% the slowest job.
		s.p50 = append(s.p50, float64(r.elapsed.Nanoseconds())/1e3)
		if s.block = append(s.block, r.elapsed.Nanoseconds()); len(s.block) == jobBlock {
			s.addTail(s.block, jobTailQ, 1.0/jobBlock)
			s.block = s.block[:0]
		}
	} else {
		if p, ok := highestPercentile(len(r.lat)); (!ok || p < tailQ) && len(res.Checks) < 8 {
			res.Checks = append(res.Checks, fmt.Sprintf(
				"p%g does not qualify: only %d latency samples in a round", tailQ*100, len(r.lat)))
		}
		p50, _ := latencyQuantiles(r.lat, 0.5)
		s.p50 = append(s.p50, p50)
		s.addTail(r.lat, tailQ, tailShare)
	}
	s.allocBytes += float64(r.allocBytes)
	s.ops += float64(good)
	s.records += float64(r.records)
	s.syncops += float64(r.syncops)
	s.stalls += float64(r.stalls)
	s.served += float64(r.served)
	s.reconnects += r.reconnects
}

// addTail records one group's q-quantile and the mean of its slowest share.
func (s *sideSamples) addTail(lat []int64, q, share float64) {
	_, p := latencyQuantiles(lat, q) // sorts lat
	s.p99 = append(s.p99, p)
	s.tail = append(s.tail, slowestMeanUs(lat, share))
}

const (
	minPairs      = 3
	warmDeadline  = 60 * time.Second
	deadlineFloor = 5 * time.Second
	tailQ         = 0.99
	tailShare     = 0.01
	jobTailQ      = 0.90
	jobBlock      = 10
)

// measure runs one workload: an untimed warm-up round per side, then
// interleaved pairs until the budget is spent (at least minPairs), the two
// sides of a pair taking turns to go first.
//
// Untraced (tr == nil) a pair is (native round, MVEE round) and the result
// carries the end-to-end metrics. Traced, a pair is (MVEE round untraced,
// MVEE round with spans) and the result carries the per-workload layer
// counts and trace_overhead_frac; end-to-end numbers never come from a
// traced run.
func measure(build func() *workload, budget time.Duration, tr *tracer) *wlResult {
	began := time.Now()
	w := build()
	res := &wlResult{Name: w.name, OpUnit: w.unit, Why: w.why, OpsRound: w.planned,
		EndToEnd: map[string]metric{}, Reported: map[string]metric{}, Layer: map[string]metric{}}
	traced := tr != nil
	var a, b sideSamples // a: native (or untraced MVEE), b: MVEE (or traced MVEE)

	// Warm-up: one MVEE round sizes the watchdog for everything after it;
	// the native warm-up only fills caches.
	warmStart := time.Now()
	warm := guarded(w, true, 0, warmDeadline, nil)
	deadline := max(deadlineFloor, 10*time.Since(warmStart))
	var discard sideSamples
	discard.add(w, warm, res)
	if !traced {
		discard.add(w, guarded(w, false, 0, deadline, nil), res)
	}

	start := time.Now()
	for res.Pairs < minPairs ||
		time.Since(start)+time.Since(start)/time.Duration(res.Pairs) <= budget {
		res.Pairs++
		// Generating the inputs from the seed is set-up too. Every pair runs
		// on inputs generated afresh, so set-up is sampled as often, and over
		// the same stretch of time, as everything else.
		t0 := time.Now()
		w = build()
		built := time.Since(t0)
		runA := func() { a.add(w, guarded(w, traced, res.Pairs, deadline, nil), res) }
		runB := func() {
			r := guarded(w, true, res.Pairs, deadline, tr)
			r.setup += built
			b.add(w, r, res)
		}
		if res.Pairs%2 == 1 { // alternate which side goes first: going second has a price or a prize
			runA()
			runB()
		} else {
			runB()
			runA()
		}
	}

	for _, side := range []*sideSamples{&a, &b} {
		if len(side.tail) == 0 && len(side.block) > 0 { // a run too short for one full block
			side.addTail(side.block, jobTailQ, 1.0/jobBlock)
		}
	}
	if traced {
		over := pairRatios(b.opsPerS, a.opsPerS) // traced / untraced
		for i := range over {
			over[i]--
		}
		res.Layer["trace_overhead_frac"] = newMetric("frac", over)
		perOp := func(count, ops float64) metric {
			v := math.NaN()
			if ops > 0 {
				v = count / ops
			}
			return single("count", v, 1)
		}
		// Counts come from both sides of the traced pairs: spans are
		// recorded by the harness only, so they cannot move a count.
		res.Layer["workload.records_per_op"] = perOp(a.records+b.records, a.served+b.served)
		res.Layer["workload.syncops_per_op"] = perOp(a.syncops+b.syncops, a.served+b.served)
		res.Layer["workload.stalls_per_kop"] = perOp(1000*(a.stalls+b.stalls), a.served+b.served)
		res.Layer["workload.wedged_rounds"] = perOp(float64(a.wedged+b.wedged+discard.wedged), 1)
		res.Layer["workload.reconnects"] = perOp(float64(a.reconnects+b.reconnects), 1)
		// The ungated p99, from the untraced side of the traced pairs.
		res.Layer["workload.latency_p99_us"] = newMetric("us", a.p99)
	} else {
		res.EndToEnd["ops_per_s"] = newMetric("1/s", b.opsPerS)
		res.EndToEnd["slowdown_x"] = newMetric("x", pairRatios(a.opsPerS, b.opsPerS))
		// Each is the median over rounds of the round's own figure: its
		// median, its p99, the mean of its slowest 1%. The p99 is reported
		// but not gated: it sits at the knee of the latency distribution —
		// 1-2% of operations wait tens to thousands of microseconds for a
		// CPU — so a round's p99 is 10 or 300 us by which side of 1% its
		// slow share fell. The mean of the slowest 1% moves smoothly with
		// that share and is the gated tail.
		res.EndToEnd["latency_p50_us"] = newMetric("us", b.p50)
		res.EndToEnd["latency_tail_us"] = newMetric("us", b.tail)
		res.Reported["latency_p99_us"] = newMetric("us", b.p99)
		alloc := math.NaN()
		if b.ops > 0 {
			alloc = b.allocBytes / b.ops
		}
		res.EndToEnd["alloc_bytes_per_op"] = single("B", alloc, len(b.opsPerS))
		// Set-up, once per pair: generating the inputs plus what the MVEE
		// round paid before its first timed operation (kernel population,
		// session/fleet start, listener wait, warm-up operations). An MVEE
		// round that follows an MVEE round sets up faster than one that
		// follows a native round (it reuses the heap spans just freed), and
		// pairs alternate their order, so the samples have two modes and
		// their median would sit in the gap between them: the value is the
		// mean of the middle half instead.
		setup := newMetric("s", b.setupS)
		setup.Value = interquartileMean(b.setupS)
		res.EndToEnd["setup_s"] = setup
	}
	if n := a.wedged + b.wedged + discard.wedged; n > 0 && len(res.Checks) < 8 {
		res.Checks = append(res.Checks, fmt.Sprintf("%d wedged round(s)", n))
	}
	res.WallS = time.Since(began).Seconds()
	return res
}

// allocMark reads the runtime's cumulative allocation counter. It stops
// the world, so rounds call it only just outside their timed operations.
func allocMark() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
