// Benchmarks regenerating the paper's evaluation (§5). One benchmark per
// table/figure; see DESIGN.md's experiment index for what each one
// regenerates and which substitutions apply. cmd/mvee-bench prints the
// same data as formatted tables.
//
// Custom metrics:
//
//	slowdown      relative run time vs native (the Figure 5 / Table 1 quantity)
//	syscalls/s    monitored system calls per second (Table 2)
//	syncops/s     synchronization operations per second (Table 2)
//	stalls/op     slave stalls per sync op (agent efficiency)
package mvee

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dmt"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/monitor"
	"repro/internal/ring"
	"repro/internal/telemetry"
	"repro/internal/variant"
	"repro/internal/webserver"
	"repro/internal/workload"
)

// benchCfg keeps bench runtime moderate; raise Scale for longer runs.
var benchCfg = bench.Config{Scale: 1, Workers: 4, Reps: 1, Seed: 7}

// fig5Agents and fig5Variants are the Figure 5 axes.
var fig5Agents = []agent.Kind{agent.TotalOrder, agent.PartialOrder, agent.WallOfClocks}

func agentTag(k agent.Kind) string {
	switch k {
	case agent.TotalOrder:
		return "TO"
	case agent.PartialOrder:
		return "PO"
	case agent.WallOfClocks:
		return "WoC"
	}
	return "none"
}

// BenchmarkTable2Native regenerates Table 2: native run time, syscall rate
// and sync-op rate for every benchmark (single variant, no MVEE).
func BenchmarkTable2Native(b *testing.B) {
	for _, w := range workload.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			var last bench.Run
			for i := 0; i < b.N; i++ {
				last = bench.Measure(w, benchCfg, agent.None, 1)
			}
			b.ReportMetric(last.SyscallRate(), "syscalls/s")
			b.ReportMetric(last.SyncRate(), "syncops/s")
			b.ReportMetric(last.Duration.Seconds()*1000, "ms/run")
		})
	}
}

// BenchmarkFigure5 regenerates the Figure 5 series: per benchmark, per
// agent, per variant count, the slowdown relative to native execution.
func BenchmarkFigure5(b *testing.B) {
	for _, w := range workload.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			native := bench.Measure(w, benchCfg, agent.None, 1)
			for _, k := range fig5Agents {
				for _, nv := range []int{2, 3, 4} {
					k, nv := k, nv
					b.Run(fmt.Sprintf("%s/%dv", agentTag(k), nv), func(b *testing.B) {
						b.ReportAllocs()
						var last bench.Run
						for i := 0; i < b.N; i++ {
							last = bench.Measure(w, benchCfg, k, nv)
						}
						if last.Diverged {
							b.Fatalf("%s diverged under %v", w.Name, k)
						}
						sd := float64(last.Duration) / float64(native.Duration)
						b.ReportMetric(sd, "slowdown")
						if last.SyncOps > 0 {
							b.ReportMetric(float64(last.Stalls)/float64(last.SyncOps), "stalls/op")
						}
					})
				}
			}
		})
	}
}

// BenchmarkTable1Aggregated regenerates Table 1: the aggregated average
// slowdown of each agent at 2-4 variants over the full suite.
//
// The sweep runs at reduced work scale: the partial-order agent's window
// scanning is superlinear in backlog, and at full scale its 4-variant
// cells on sync-heavy benchmarks can take minutes on a small host — the
// very scalability pathology §4.5 describes. The aggregate shape is
// unchanged by the scale.
func BenchmarkTable1Aggregated(b *testing.B) {
	table1Cfg := benchCfg
	table1Cfg.Scale = 0.35
	for _, k := range fig5Agents {
		for _, nv := range []int{2, 3, 4} {
			k, nv := k, nv
			b.Run(fmt.Sprintf("%s/%dv", agentTag(k), nv), func(b *testing.B) {
				b.ReportAllocs()
				var avg float64
				for i := 0; i < b.N; i++ {
					var sum float64
					n := 0
					for _, w := range workload.All() {
						native := bench.Measure(w, table1Cfg, agent.None, 1)
						m := bench.Measure(w, table1Cfg, k, nv)
						if m.Diverged {
							b.Fatalf("%s diverged", w.Name)
						}
						sum += float64(m.Duration) / float64(native.Duration)
						n++
					}
					avg = sum / float64(n)
				}
				b.ReportMetric(avg, "slowdown")
			})
		}
	}
}

// BenchmarkTable3Analysis regenerates Table 3: the two-stage sync-op
// identification over the library corpora, for both stage-2 analyses.
func BenchmarkTable3Analysis(b *testing.B) {
	for _, tc := range []struct {
		name string
		kind analysis.PointsToKind
	}{
		{"andersen", analysis.UseAndersen},
		{"steensgaard", analysis.UseSteensgaard},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			total := 0
			for i := 0; i < b.N; i++ {
				total = 0
				for _, spec := range analysis.Table3Specs() {
					rep := analysis.Analyze(analysis.Generate(spec), tc.kind)
					total += len(rep.Ops)
				}
			}
			b.ReportMetric(float64(total), "syncops-found")
		})
	}
}

// BenchmarkNginxThroughput regenerates the §5.5 loopback throughput
// experiment: native vs 2-variant WoC (strict lockstep monitor policy),
// 8 connections x 100 requests per measurement — long enough that the
// sustained serving path, not session warmup, dominates the mvee-req/s
// metric. On shared hosts compare interleaved medians (see BENCH_2.json's
// method note); absolute numbers drift with the box. records/req is the
// master's monitored-record count per served response — the replication
// bill the batching + zero-copy work cuts toward the native line.
func BenchmarkNginxThroughput(b *testing.B) {
	b.ReportAllocs()
	var native, mv, overhead, recs float64
	for i := 0; i < b.N; i++ {
		native, mv, overhead, recs = bench.NginxCell(2, 8, 100, false)
	}
	b.ReportMetric(native, "native-req/s")
	b.ReportMetric(mv, "mvee-req/s")
	b.ReportMetric(overhead*100, "overhead-%")
	b.ReportMetric(recs, "records/req")
}

// BenchmarkEventedKeepAlive is the §5.5 cell closest to production nginx:
// the evented (single-thread poll) serving mode under keep-alive load,
// where one wakeup's worth of ready connections is replicated as ONE
// multi-record batch. records/req must stay below 4 (recv + sendfile +
// amortized poll); that is the acceptance gate for the replication bill.
func BenchmarkEventedKeepAlive(b *testing.B) {
	b.ReportAllocs()
	var native, mv, overhead, recs float64
	for i := 0; i < b.N; i++ {
		native, mv, overhead, recs = bench.NginxCell(2, 8, 100, true)
	}
	b.ReportMetric(native, "native-req/s")
	b.ReportMetric(mv, "mvee-req/s")
	b.ReportMetric(overhead*100, "overhead-%")
	b.ReportMetric(recs, "records/req")
	if recs >= 4 {
		b.Fatalf("replication bill: %.2f records/req on the keep-alive static page, want < 4", recs)
	}
}

// fleetPools are the pool sizes the fleet benchmarks sweep.
var fleetPools = []int{1, 4, 16}

// startBenchFleet builds a warm fleet of `pool` webserver sessions in the
// given serving mode ("" = thread pool, "evented", "prefork",
// "prefork-mt" = 2 worker processes x 4 accept threads each).
func startBenchFleet(b *testing.B, pool int, vulnerable bool, mode string) *fleet.Fleet {
	b.Helper()
	cfg := webserver.Config{Port: 8080, PoolThreads: 4, InstrumentCustomSync: true,
		Vulnerable: vulnerable, PageSize: 1024,
		Evented: mode == "evented",
		Prefork: mode == "prefork" || mode == "prefork-mt", Workers: 4}
	if mode == "prefork-mt" {
		cfg.Workers, cfg.WorkerThreads = 2, 4
	}
	f, err := fleet.New(webserver.FleetConfig(cfg, core.Options{
		Variants: 2, Agent: agent.WallOfClocks, ASLR: true, DCL: true, Seed: 5, MaxThreads: 64,
	}, pool))
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// driveFleet pushes n requests through the gateway with `clients`
// concurrent submitters and returns how many succeeded.
func driveFleet(f *fleet.Fleet, clients, n int) uint64 {
	var wg sync.WaitGroup
	per := n / clients
	if per == 0 {
		per = 1
	}
	issued := 0
	results := make(chan int, clients)
	for c := 0; c < clients && issued < n; c++ {
		take := per
		if c == clients-1 {
			take = n - issued
		}
		issued += take
		wg.Add(1)
		go func(take int) {
			defer wg.Done()
			good := 0
			for r := 0; r < take; r++ {
				if _, err := f.Do([]byte("GET /")); err == nil {
					good++
				}
			}
			results <- good
		}(take)
	}
	wg.Wait()
	close(results)
	total := uint64(0)
	for g := range results {
		total += uint64(g)
	}
	return total
}

// BenchmarkFleetThroughput measures gateway throughput over pool sizes
// 1/4/16 — the scaling curve from one MVEE session to a serving pool.
// Each op is one request through the gateway (16 concurrent clients).
func BenchmarkFleetThroughput(b *testing.B) {
	for _, pool := range fleetPools {
		pool := pool
		b.Run(fmt.Sprintf("pool-%d", pool), func(b *testing.B) {
			b.ReportAllocs()
			f := startBenchFleet(b, pool, false, "")
			defer f.Close()
			b.ResetTimer()
			start := time.Now()
			good := driveFleet(f, 16, b.N)
			el := time.Since(start).Seconds()
			b.StopTimer()
			if el > 0 {
				b.ReportMetric(float64(good)/el, "req/s")
			}
			s := f.Stats()
			b.ReportMetric(float64(s.Latency.Quantile(0.5)), "p50-ns")
			b.ReportMetric(float64(s.Latency.Quantile(0.99)), "p99-ns")
		})
	}
}

// BenchmarkFleetDivergenceChurn measures throughput while an adversary
// keeps burning sessions: a layout-targeted exploit payload is injected
// every 25ms, so the pool continuously quarantines and respawns members
// under load. The interesting metrics are the surviving request rate and
// the recycle volume.
func BenchmarkFleetDivergenceChurn(b *testing.B) {
	for _, pool := range fleetPools {
		pool := pool
		b.Run(fmt.Sprintf("pool-%d", pool), func(b *testing.B) {
			b.ReportAllocs()
			f := startBenchFleet(b, pool, true, "")
			defer f.Close()
			gadget := variant.NewSpace(0, variant.Options{ASLR: true, DCL: true, Seed: 5}).AllocCode(64)
			payload := []byte(fmt.Sprintf("POST /upload %x", gadget))
			stop := make(chan struct{})
			var attackWG sync.WaitGroup
			attackWG.Add(1)
			go func() {
				defer attackWG.Done()
				tick := time.NewTicker(25 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						f.Do(payload)
					}
				}
			}()
			b.ResetTimer()
			start := time.Now()
			good := driveFleet(f, 16, b.N)
			el := time.Since(start).Seconds()
			b.StopTimer()
			close(stop)
			attackWG.Wait()
			if el > 0 {
				b.ReportMetric(float64(good)/el, "req/s")
			}
			s := f.Stats()
			b.ReportMetric(float64(s.Recycled), "recycled")
			b.ReportMetric(float64(s.Divergences), "divergences")
		})
	}
}

// BenchmarkPollServer measures the evented serving mode through the fleet
// gateway: each session multiplexes all of its connections on ONE thread
// via replicated SysPoll (the nginx event-loop model), where
// BenchmarkFleetThroughput's sessions burn a vthread per connection. The
// comparison between the two benchmarks is the evented-vs-threaded serving
// trade-off under the MVEE; req/s and the latency quantiles are directly
// comparable cells.
func BenchmarkPollServer(b *testing.B) {
	for _, pool := range []int{1, 4} {
		b.Run(fmt.Sprintf("pool-%d", pool), func(b *testing.B) {
			b.ReportAllocs()
			f := startBenchFleet(b, pool, false, "evented")
			defer f.Close()
			b.ResetTimer()
			start := time.Now()
			good := driveFleet(f, 16, b.N)
			el := time.Since(start).Seconds()
			b.StopTimer()
			if el > 0 {
				b.ReportMetric(float64(good)/el, "req/s")
			}
			s := f.Stats()
			b.ReportMetric(float64(s.Latency.Quantile(0.5)), "p50-ns")
			b.ReportMetric(float64(s.Latency.Quantile(0.99)), "p99-ns")
		})
	}
}

// BenchmarkPreforkServer measures the multi-process serving mode through
// the fleet gateway: each session's parent forks 4 worker processes that
// accept on the shared listener (the nginx/Apache prefork model), so the
// comparison against BenchmarkFleetThroughput (thread pool) and
// BenchmarkPollServer (evented) completes the concurrency-model triangle —
// same request mix, same gateway, req/s and latency quantiles directly
// comparable. Worker syscalls ride the same replication rings as vthreads;
// the added cost is the fork-time bookkeeping, which is off the serving
// path.
func BenchmarkPreforkServer(b *testing.B) {
	run := func(name, mode string, pool int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			f := startBenchFleet(b, pool, false, mode)
			defer f.Close()
			b.ResetTimer()
			start := time.Now()
			good := driveFleet(f, 16, b.N)
			el := time.Since(start).Seconds()
			b.StopTimer()
			if el > 0 {
				b.ReportMetric(float64(good)/el, "req/s")
			}
			s := f.Stats()
			b.ReportMetric(float64(s.Latency.Quantile(0.5)), "p50-ns")
			b.ReportMetric(float64(s.Latency.Quantile(0.99)), "p99-ns")
		})
	}
	for _, pool := range []int{1, 4} {
		run(fmt.Sprintf("pool-%d", pool), "prefork", pool)
	}
	// The multi-threaded-worker cell: same 8-way accept concurrency as
	// pool-1 (2 processes x 4 threads vs 4 processes x 1), isolating the
	// cost of intra-process thread accounting on the accept path.
	run("pool-1-workers-2x4", "prefork-mt", 1)
}

// BenchmarkHotRestart measures the epoch-based zero-downtime reload: each
// op is one fleet-wide SIGHUP sweep on a loaded prefork session — fork a
// freshly re-randomized worker generation, take over the listener, drain
// the old epoch. ns/op is the signal-to-new-epoch-live latency; the
// "drops" metric counts client requests that failed during the restarts
// and must stay 0 (that is the zero-downtime claim).
func BenchmarkHotRestart(b *testing.B) {
	cfg := webserver.Config{Port: 8080, PageSize: 1024, InstrumentCustomSync: true,
		Prefork: true, Workers: 2, WorkerThreads: 2}
	// Tids are never recycled, so budget every generation this run will
	// ever fork (b.N reloads + the initial epoch, with headroom).
	f, err := fleet.New(webserver.FleetConfig(cfg, core.Options{
		Variants: 2, Agent: agent.WallOfClocks, ASLR: true, DCL: true, Seed: 5,
		MaxThreads: (b.N+2)*cfg.Workers*cfg.WorkerThreads*2 + 16,
	}, 1))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	var drops, good atomic.Uint64
	stop := make(chan struct{})
	var loadWG sync.WaitGroup
	for c := 0; c < 4; c++ {
		loadWG.Add(1)
		go func() {
			defer loadWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := f.Do([]byte("GET /")); err != nil {
					drops.Add(1)
				} else {
					good.Add(1)
				}
			}
		}()
	}
	// Warm: first page served before the clock starts.
	if _, err := f.Do([]byte("GET /")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := f.Reload(); n != 1 {
			b.Fatalf("reload %d accepted by %d members, want 1", i, n)
		}
		for f.Snapshot().Members[0].Epoch < i+1 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	b.StopTimer()
	close(stop)
	loadWG.Wait()
	b.ReportMetric(float64(drops.Load()), "drops")
	b.ReportMetric(float64(good.Load())/float64(b.N), "req-per-reload")
	if drops.Load() != 0 {
		b.Fatalf("%d requests dropped across %d hot restarts, want 0", drops.Load(), b.N)
	}
}

// BenchmarkAgentMicro measures the raw per-op cost of each agent with 1
// master + 1 slave threads hammering a single variable — the ablation for
// the design choices in §4.5 (shared buffer vs per-thread buffers).
func BenchmarkAgentMicro(b *testing.B) {
	for _, k := range fig5Agents {
		k := k
		b.Run(agentTag(k), func(b *testing.B) {
			b.ReportAllocs()
			ex := agent.NewExchange(k, agent.Config{Slaves: 1, MaxThreads: 2, BufCap: 4096, WallSize: 4096})
			defer ex.Stop()
			m := ex.MasterAgent()
			s := ex.SlaveAgent(0)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					s.Before(0, 0x9000)
					s.After(0, 0x9000)
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Before(0, 0x1000)
				m.After(0, 0x1000)
			}
			<-done
		})
	}
}

// BenchmarkWallClockAssignment measures the WoC hash (ClockOf) — it sits on
// the master's critical path for every sync op. A replaying slave drains
// the sync buffer concurrently: without one, any b.N past the buffer
// capacity stalls the master on back-pressure forever (the old Gosched
// tail spun invisibly there; the parked wait turns it into a detected
// deadlock, which is how this benchmark's missing consumer was found).
func BenchmarkWallClockAssignment(b *testing.B) {
	b.ReportAllocs()
	ex := agent.NewExchange(agent.WallOfClocks, agent.Config{Slaves: 1, MaxThreads: 1, BufCap: 64, WallSize: 4096})
	defer ex.Stop()
	m := ex.MasterAgent()
	s := ex.SlaveAgent(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			addr := uint64(0x1000 + i*64)
			s.Before(0, addr)
			s.After(0, addr)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(0x1000 + i*64)
		m.Before(0, addr)
		m.After(0, addr)
	}
	<-done
}

// BenchmarkDMTBaseline measures the token-passing DMT scheduler (§2.1
// comparison point): cost of one Acquire/Charge round-trip between two
// threads.
func BenchmarkDMTBaseline(b *testing.B) {
	// Covered in internal/dmt tests for correctness; here: throughput of
	// the token hand-off under the Go scheduler.
	b.Run("2-threads", func(b *testing.B) {
		b.ReportAllocs()
		benchDMT(b, 2)
	})
	b.Run("4-threads", func(b *testing.B) {
		b.ReportAllocs()
		benchDMT(b, 4)
	})
}

func benchDMT(b *testing.B, threads int) {
	// local import-free micro-harness over internal/dmt
	s := newDMT(threads)
	done := make(chan struct{}, threads)
	for tid := 1; tid < threads; tid++ {
		go func(tid int) {
			for i := 0; i < b.N; i++ {
				s.Acquire(tid)
				s.Charge(tid, 1)
			}
			s.Exit(tid)
			done <- struct{}{}
		}(tid)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Acquire(0)
		s.Charge(0, 1)
	}
	s.Exit(0)
	for tid := 1; tid < threads; tid++ {
		<-done
	}
}

// newDMT adapts internal/dmt for the benchmark above.
func newDMT(threads int) *dmt.Scheduler { return dmt.New(threads, 1) }

// BenchmarkWallSizeAblation sweeps the wall-of-clocks size on a
// fine-grained-locking workload: small walls force hash collisions, i.e.
// unnecessary serialization (§4.5's stated trade-off of static clock
// allocation).
func BenchmarkWallSizeAblation(b *testing.B) {
	w, err := workload.ByName("fluidanimate")
	if err != nil {
		b.Fatal(err)
	}
	for _, wall := range []int{1, 16, 256, 4096} {
		wall := wall
		b.Run(fmt.Sprintf("wall-%d", wall), func(b *testing.B) {
			b.ReportAllocs()
			var last *core.Result
			for i := 0; i < b.N; i++ {
				last = core.Run(core.Options{
					Variants: 2, Agent: agent.WallOfClocks, ASLR: true,
					WallSize: wall, MaxThreads: 64, Seed: 3,
				}, w.Build(workload.Params{Workers: 4, Units: 20000}))
				if last.Divergence != nil {
					b.Fatalf("diverged: %v", last.Divergence)
				}
			}
			b.ReportMetric(float64(last.Stalls), "stalls")
		})
	}
}

// BenchmarkPolicyComparison contrasts strict lockstep with the relaxed
// security-sensitive policy on the syscall-heaviest workload (§5.1 tested
// "a variety of monitoring policies").
func BenchmarkPolicyComparison(b *testing.B) {
	w, err := workload.ByName("dedup")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		policy monitor.Policy
	}{
		{"strict", monitor.PolicyStrictLockstep},
		{"sensitive-only", monitor.PolicySecuritySensitive},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := core.Run(core.Options{
					Variants: 2, Agent: agent.WallOfClocks, ASLR: true,
					Policy: tc.policy, MaxThreads: 64, Seed: 3,
				}, w.Build(workload.Params{Workers: 4}))
				if res.Divergence != nil {
					b.Fatalf("diverged: %v", res.Divergence)
				}
			}
		})
	}
}

// BenchmarkReplicationHotPath isolates the master-publish → slave-validate
// syscall replication path — no workload, no fleet, just one master thread
// and one slave thread driving the monitor as fast as it goes. This is the
// path the PR-2 tentpole makes allocation-free and batched: in steady state
// every cell must report 0 allocs/op for payload-free calls and for
// payloads up to monitor.InlinePayload (64) bytes.
//
//	strict   every call is a full pre-execution lockstep rendezvous
//	relaxed  only security-sensitive calls lockstep; the rest run ahead
//	payload-0    getpid (ordered, replicated, no payload)
//	payload-64   pwrite of 64 bytes at offset 0 (sensitive, inline payload)
//	telemetry=on/off  A-B for the PR-6 matrix + flight recorder: the `on`
//	                  cells must match `off` within ~1 ns/op and stay 0 allocs
func BenchmarkReplicationHotPath(b *testing.B) {
	policies := []struct {
		name   string
		policy monitor.Policy
	}{
		{"strict", monitor.PolicyStrictLockstep},
		{"relaxed", monitor.PolicySecuritySensitive},
	}
	for _, pc := range policies {
		for _, payload := range []int{0, 64} {
			for _, tel := range []bool{false, true} {
				pc, payload, tel := pc, payload, tel
				b.Run(fmt.Sprintf("%s/payload-%d/telemetry=%s", pc.name, payload, onOff(tel)), func(b *testing.B) {
					b.ReportAllocs()
					k := kernel.New()
					procs := []*kernel.Proc{
						k.NewProc(0x1000_0000, 0x7000_0000),
						k.NewProc(0x2000_0000, 0x7100_0000),
					}
					m := monitor.New(k, procs, monitor.Config{
						MaxThreads: 2, RingCap: 1024, Policy: pc.policy, Telemetry: tel,
					})
					data := make([]byte, payload)
					for i := range data {
						data[i] = byte(i)
					}
					// Setup (both variants, like real lockstepped threads):
					// open the target file and pre-size it so the benchmarked
					// pwrites never grow the inode.
					setup := func(v int) uint64 {
						fd := m.Invoke(v, 0, kernel.Call{
							Nr:   kernel.SysOpen,
							Args: [6]uint64{kernel.OCreat | kernel.ORdwr},
							Data: []byte("/bench-hotpath"),
						})
						m.Invoke(v, 0, kernel.Call{
							Nr: kernel.SysPwrite, Args: [6]uint64{fd.Val, 0},
							Data: make([]byte, 64),
						})
						return fd.Val
					}
					loop := func(v int, fd uint64) {
						for i := 0; i < b.N; i++ {
							if payload == 0 {
								m.Invoke(v, 0, kernel.Call{Nr: kernel.SysGetpid})
							} else {
								m.Invoke(v, 0, kernel.Call{
									Nr: kernel.SysPwrite, Args: [6]uint64{fd, 0}, Data: data,
								})
							}
						}
					}
					var slaveFd uint64
					ready := make(chan struct{})
					done := make(chan struct{})
					go func() {
						defer close(done)
						slaveFd = setup(1)
						close(ready)
						loop(1, slaveFd)
					}()
					masterFd := setup(0)
					<-ready
					b.ResetTimer()
					loop(0, masterFd)
					<-done
					b.StopTimer()
					if d := m.Divergence(); d != nil {
						b.Fatalf("diverged: %v", d)
					}
				})
			}
		}
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// BenchmarkDeadlockDetectorOverhead prices core.Options.DetectDeadlocks on
// the replication hot path: the same master+slave Invoke loop as
// BenchmarkReplicationHotPath (strict policy, telemetry off), with the
// master proc armed with a live BlockBoard — registered thread, watcher
// goroutine running — exactly as a DetectDeadlocks session arms it. Armed
// but idle (nothing ever parks, which is the steady state of a healthy
// server), the detector must cost the hot path zero allocations; the
// detector=off cells are the A-B control. CI gates the allocs/op column
// at 0 (make bench-smoke).
func BenchmarkDeadlockDetectorOverhead(b *testing.B) {
	for _, armed := range []bool{false, true} {
		for _, payload := range []int{0, 64} {
			armed, payload := armed, payload
			b.Run(fmt.Sprintf("detector=%s/payload-%d", onOff(armed), payload), func(b *testing.B) {
				b.ReportAllocs()
				k := kernel.New()
				procs := []*kernel.Proc{
					k.NewProc(0x1000_0000, 0x7000_0000),
					k.NewProc(0x2000_0000, 0x7100_0000),
				}
				m := monitor.New(k, procs, monitor.Config{
					MaxThreads: 2, RingCap: 1024, Policy: monitor.PolicyStrictLockstep,
				})
				if armed {
					board := kernel.NewBlockBoard(2, func([]kernel.BlockedSite) {})
					defer board.Close()
					procs[0].SetBlockBoard(board)
					board.ThreadStart(0)
					defer board.ThreadExit(0)
				}
				data := make([]byte, payload)
				for i := range data {
					data[i] = byte(i)
				}
				setup := func(v int) uint64 {
					fd := m.Invoke(v, 0, kernel.Call{
						Nr:   kernel.SysOpen,
						Args: [6]uint64{kernel.OCreat | kernel.ORdwr},
						Data: []byte("/bench-deadlock"),
					})
					m.Invoke(v, 0, kernel.Call{
						Nr: kernel.SysPwrite, Args: [6]uint64{fd.Val, 0},
						Data: make([]byte, 64),
					})
					return fd.Val
				}
				loop := func(v int, fd uint64) {
					for i := 0; i < b.N; i++ {
						if payload == 0 {
							m.Invoke(v, 0, kernel.Call{Nr: kernel.SysGetpid})
						} else {
							m.Invoke(v, 0, kernel.Call{
								Nr: kernel.SysPwrite, Args: [6]uint64{fd, 0}, Data: data,
							})
						}
					}
				}
				var slaveFd uint64
				ready := make(chan struct{})
				done := make(chan struct{})
				go func() {
					defer close(done)
					slaveFd = setup(1)
					close(ready)
					loop(1, slaveFd)
				}()
				masterFd := setup(0)
				<-ready
				b.ResetTimer()
				loop(0, masterFd)
				<-done
				b.StopTimer()
				if d := m.Divergence(); d != nil {
					b.Fatalf("diverged: %v", d)
				}
			})
		}
	}
}

// BenchmarkTelemetryMatrix prices the bare telemetry primitives the
// monitor adds to every replicated call, without the monitor around them:
// the per-call atomic count (Inc into a thread-sharded bank), the same
// with the 1-in-64 latency sample amortized in, and a flight-recorder
// append. All must be allocation-free; Inc alone is the ~1 ns/op figure
// quoted in DESIGN.md.
func BenchmarkTelemetryMatrix(b *testing.B) {
	b.Run("inc", func(b *testing.B) {
		b.ReportAllocs()
		m := telemetry.NewMatrix(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Inc(0, 0, kernel.SysGetpid)
		}
	})
	b.Run("inc-sampled", func(b *testing.B) {
		b.ReportAllocs()
		m := telemetry.NewMatrix(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := m.Inc(0, 0, kernel.SysGetpid)
			if telemetry.SampleDue(c) {
				t0 := time.Now()
				m.Observe(0, kernel.SysGetpid, time.Since(t0))
			}
		}
	})
	b.Run("flight-append", func(b *testing.B) {
		b.ReportAllocs()
		f := telemetry.NewFlight(telemetry.FlightCap)
		args := [6]uint64{1, 2, 3}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Append(kernel.SysGetpid, 0, telemetry.Digest(&args, nil), uint64(i), 0)
		}
	})
}

// BenchmarkLaggingSlaveWait measures what a far-behind waiter costs —
// the PR-3 tentpole's target. A producer/consumer pair streams b.N events
// through a ring at full speed while "lagging slaves" wait for an event
// that is only published after the run (the shape of a slave stuck on a
// record the master has not produced yet). The laggards park on the ring's
// futex wait set — a handful of poll iterations each, then zero CPU until
// woken.
//
// laggard-polls/op is the waste: poll-loop iterations the laggards burned
// per produced event. Parked waits hold it near zero; the yield-forever
// tail they replaced (~0.25 polls/op in BENCH_3.json) scaled it with run
// length, and on a loaded machine those polls are timeslices stolen from
// the variants doing real work — wall-clock ns/op shows that part only
// when cores are contended, so the poll count is the portable signal.
func BenchmarkLaggingSlaveWait(b *testing.B) {
	b.Run("parked", func(b *testing.B) {
		prevProcs := runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prevProcs)
		b.ReportAllocs()

		const laggards = 8
		release := ring.NewLog[int](2, 1)
		var polls atomic.Uint64
		var lagWG sync.WaitGroup
		for g := 0; g < laggards; g++ {
			lagWG.Add(1)
			go func() {
				defer lagWG.Done()
				n := uint64(0)
				ring.Await(release.Parker(), nil, func() bool {
					n++
					return release.Ready(0)
				})
				polls.Add(n)
			}()
		}

		l := ring.NewLog[int](1024, 1)
		var consWG sync.WaitGroup
		consWG.Add(1)
		go func() {
			defer consWG.Done()
			var batch [64]int
			seen := 0
			for spins := 0; seen < b.N; {
				n := l.TryConsumeBatch(0, batch[:])
				if n == 0 {
					ring.Backoff(spins)
					spins++
					continue
				}
				spins = 0
				seen += n
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Append(i)
		}
		consWG.Wait()
		b.StopTimer()
		release.Append(1)
		lagWG.Wait()
		b.ReportMetric(float64(polls.Load())/float64(b.N), "laggard-polls/op")
	})
}

// BenchmarkConnectPath measures the serving path's per-connection kernel
// cost outside the MVEE machinery: connect, one request/response exchange
// against a raw-kernel echo server, close. The pooled connection objects
// (pipes with retained buffers, recycled socket endpoints) and the
// server's reusable recv buffer (Call.Buf: the kernel copies the request
// into caller memory instead of allocating an exact-sized result) are
// what hold this at 0 allocs/op — the CI bench-smoke gate enforces it.
// Before pooling every cycle paid for two pipes, two conds, a socket
// endpoint, and fresh stream buffers; before Call.Buf it still paid one
// allocation per recv.
func BenchmarkConnectPath(b *testing.B) {
	b.ReportAllocs()
	k := kernel.New()
	p := k.NewProc(0x1000_0000, 0x7000_0000)
	sfd := k.Do(p, kernel.Call{Nr: kernel.SysSocket})
	if !sfd.Ok() {
		b.Fatalf("socket: %v", sfd.Err)
	}
	if r := k.Do(p, kernel.Call{Nr: kernel.SysListen, Args: [6]uint64{sfd.Val, 8088, 128}}); !r.Ok() {
		b.Fatalf("listen: %v", r.Err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		scratch := make([]byte, 4096)
		for {
			c := k.Do(p, kernel.Call{Nr: kernel.SysAccept, Args: [6]uint64{sfd.Val}})
			if !c.Ok() {
				return
			}
			msg := k.Do(p, kernel.Call{Nr: kernel.SysRecv, Args: [6]uint64{c.Val, 4096}, Buf: scratch})
			if msg.Ok() && len(msg.Data) > 0 {
				k.Do(p, kernel.Call{Nr: kernel.SysSend, Args: [6]uint64{c.Val}, Data: msg.Data})
			}
			k.Do(p, kernel.Call{Nr: kernel.SysClose, Args: [6]uint64{c.Val}})
		}
	}()
	req := []byte("GET /bench")
	buf := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc, errno := k.Connect(8088)
		if errno != kernel.OK {
			b.Fatalf("connect: %v", errno)
		}
		cc.Write(req)
		if n, err := cc.Read(buf); err != nil || n == 0 {
			b.Fatalf("read: n=%d err=%v", n, err)
		}
		cc.Close()
	}
	b.StopTimer()
	k.CloseListener(8088)
	<-done
}

// BenchmarkChaosOverhead prices the chaos plane's seam when it is NOT
// firing — the cost every deployment pays whether or not a fault plan is
// loaded. disabled = no injector installed: Kernel.Do pays one nil check.
// armed-miss = a listener-only plan is installed and consulted on every
// eligible call but never matches: one atomic counter draw plus a rule
// scan per call. Both cells must stay at 0 allocs/op — the CI bench-smoke
// gate enforces it — so compiling the chaos plane in costs nothing when
// it is off.
//
//	sleep0      nanosleep(0): the injector consult with no fd lookup
//	pipe-write  zero-byte pipe write: adds the descriptor classification
func BenchmarkChaosOverhead(b *testing.B) {
	plan, err := chaos.Parse("target=listener:9999 error=50% seed=1")
	if err != nil {
		b.Fatal(err)
	}
	cells := []struct {
		name string
		inj  kernel.FaultInjector
	}{
		{"disabled", nil},
		{"armed-miss", chaos.New(plan)},
	}
	for _, c := range cells {
		c := c
		b.Run("sleep0/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			k := kernel.New()
			if c.inj != nil {
				k.SetInjector(c.inj)
			}
			p := k.NewProc(0x1000_0000, 0x7000_0000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Do(p, kernel.Call{Nr: kernel.SysNanosleep})
			}
		})
		b.Run("pipe-write/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			k := kernel.New()
			if c.inj != nil {
				k.SetInjector(c.inj)
			}
			p := k.NewProc(0x1000_0000, 0x7000_0000)
			pr := k.Do(p, kernel.Call{Nr: kernel.SysPipe2})
			if !pr.Ok() {
				b.Fatalf("pipe2: %v", pr.Err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Do(p, kernel.Call{Nr: kernel.SysWrite, Args: [6]uint64{pr.Val2}})
			}
		})
	}
}
